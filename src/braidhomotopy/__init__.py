"""Surface braid groups, their link-homotopy quotients, and the
decision oracles that cross-check their presentations.

The names below are re-exported lazily (PEP 562): importing the package
imports none of its modules, and the first access of a name imports the
module that defines it.  So ``python -m braidhomotopy`` loads only the
layers its command runs.
"""

# re-exported name -> the module that defines it
_MODULE_OF = {name: module for module, names in {
    "words": ("Word", "EPSILON", "Gen", "sigma", "loop", "band", "atom",
              "free_reduce", "concat", "invert", "conjugate", "commutator",
              "enumerate_shortlex", "parse_word", "format_word"),
    "perms": ("Permutation", "word_permutation", "is_pure"),
    "presentations": ("Presentation", "RelatorFamily",
                      "surface_braid_presentation", "homotopy_generalized_presentation",
                      "goldsmith_presentation", "pure_homotopy_presentation",
                      "symmetric_presentation", "homotopy_quotient",
                      "expand_t", "expand_a"),
    "handles": ("handle_reduce", "is_trivial_braid", "braid_compare"),
    "magnus": ("magnus_image", "is_rf_trivial", "mu_coefficient"),
    "verify": ("h1", "purity_report", "identity_check", "smith_normal_form"),
    "extension": ("ExtensionData", "assemble_extension", "braid_extension_data",
                  "tietze_eliminate", "todd_coxeter"),
}.items() for name in names}

# Annotated, since the unused-import lint (tests/test_imports.py) reads only a
# literal plain ``__all__ = [...]`` and cannot evaluate this derived list; the
# module has no module-level import for that lint to check.
__all__: list[str] = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
