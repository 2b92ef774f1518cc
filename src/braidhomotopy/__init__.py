"""Surface braid groups, their link-homotopy quotients, and the
decision oracles that cross-check their presentations."""

from braidhomotopy.words import (
    Word,
    EPSILON,
    Gen,
    sigma,
    loop,
    band,
    atom,
    free_reduce,
    concat,
    invert,
    conjugate,
    commutator,
    enumerate_shortlex,
    parse_word,
    format_word,
)
from braidhomotopy.perms import Permutation, word_permutation, is_pure
from braidhomotopy.presentations import (
    Presentation,
    RelatorFamily,
    surface_braid_presentation,
    homotopy_generalized_presentation,
    goldsmith_presentation,
    pure_homotopy_presentation,
    symmetric_presentation,
    homotopy_quotient,
    expand_t,
    expand_a,
)
from braidhomotopy.handles import handle_reduce, is_trivial_braid, braid_compare
from braidhomotopy.magnus import magnus_image, is_rf_trivial, mu_coefficient
from braidhomotopy.verify import h1, purity_report, identity_check, smith_normal_form
from braidhomotopy.extension import (
    ExtensionData,
    assemble_extension,
    braid_extension_data,
    tietze_eliminate,
    todd_coxeter,
)

__all__ = [
    "Word", "EPSILON", "Gen", "sigma", "loop", "band", "atom",
    "free_reduce", "concat", "invert", "conjugate", "commutator",
    "enumerate_shortlex", "parse_word", "format_word",
    "Permutation", "word_permutation", "is_pure",
    "Presentation", "RelatorFamily",
    "surface_braid_presentation", "homotopy_generalized_presentation",
    "goldsmith_presentation", "pure_homotopy_presentation",
    "symmetric_presentation", "homotopy_quotient",
    "expand_t", "expand_a",
    "handle_reduce", "is_trivial_braid", "braid_compare",
    "magnus_image", "is_rf_trivial", "mu_coefficient",
    "h1", "purity_report", "identity_check", "smith_normal_form",
    "ExtensionData", "assemble_extension", "braid_extension_data",
    "tietze_eliminate", "todd_coxeter",
]
