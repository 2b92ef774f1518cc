"""One size rule: ``presentations._check_size`` is the first step wherever the
strand count n and the genus g enter.

Every entry point refuses too few strands or too small a genus with one
``{what} needs ...`` message (exit 2 through the command line), and more
than ``MAX_STRANDS`` strands with ResourceLimitError (exit 3), before any
generator is built.  ``identity_check`` names an unknown kind before any
size rule, and ``expand_t`` and ``expand_a`` leave their index rules to
``words.check_gen``.
"""

import ast
import json
import pathlib
import re
import time

import pytest
from test_strand_cap import no_generators  # noqa: F401  (a fixture)

import braidhomotopy
from braidhomotopy import presentations as pres
from braidhomotopy import verify
from braidhomotopy.cli import run_command
from braidhomotopy.words import AlphabetError, ResourceLimitError

SRC = pathlib.Path(braidhomotopy.__file__).parent


@pytest.fixture
def no_work(monkeypatch, no_generators):  # noqa: F811
    """Make building any generator, or starting any identity check, fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("sigma", "atom", "_check_eq31", "_check_eq32", "_check_lh_transport",
                 "expand_A_pure", "expand_A_geo"):
        monkeypatch.setattr(verify, name, refuse)


def _doc(n, g):
    return {"family": "symmetric", "n": n, "g": g, "closed": None, "lh_bound": None,
            "generators": ["d1"], "relators": [], "families": []}


ENTRY_POINTS = [
    (lambda: pres.surface_braid_presentation(0, 1), "surface needs n >= 1, got 0"),
    (lambda: pres.surface_braid_presentation(2, 0), "surface needs genus g >= 1, got 0"),
    (lambda: pres.homotopy_generalized_presentation(0, 1, True, 1),
     "homotopy needs n >= 1, got 0"),
    (lambda: pres.homotopy_generalized_presentation(2, 0, True, 1),
     "homotopy needs genus g >= 1, got 0"),
    (lambda: pres.homotopy_generalized_presentation(2, 0, False, 1, with_auxiliary=True),
     "homotopy needs genus g >= 1, got 0"),
    (lambda: pres.pure_homotopy_presentation(0, 1, True, 1), "pure needs n >= 1, got 0"),
    (lambda: pres.pure_homotopy_presentation(3, 0, False, 1),
     "pure needs genus g >= 1, got 0"),
    (lambda: pres.goldsmith_presentation(1, 1), "goldsmith needs n >= 2, got 1"),
    (lambda: pres.symmetric_presentation(0), "symmetric needs n >= 1, got 0"),
    (lambda: pres.presentation_from_doc(_doc(0, 0)), "presentation JSON needs n >= 1, got 0"),
    (lambda: pres.presentation_from_doc(_doc(2, -1)),
     "presentation JSON needs genus g >= 0, got -1"),
    (lambda: pres.RelatorFamily("LH", 0, 1, 1, 1), "relator family LH needs n >= 1, got 0"),
    (lambda: pres.RelatorFamily("HN", 3, -1, 0, 1),
     "relator family HN needs genus g >= 0, got -1"),
    (lambda: verify.identity_check("eq31", 1), "eq31 needs n >= 2, got 1"),
    (lambda: verify.identity_check("eq32", 3, -1), "eq32 needs genus g >= 0, got -1"),
    (lambda: verify.identity_check("lh_free_identity", 1), "transport needs n >= 2, got 1"),
    (lambda: verify.identity_check("lh_free_identity", 3, -2),
     "transport needs genus g >= 0, got -2"),
    (lambda: verify.loop_expansion_comparison(1, 1), "a-expansion needs n >= 2, got 1"),
    (lambda: verify.loop_expansion_comparison(2, 0), "a-expansion needs genus g >= 1, got 0"),
]


@pytest.mark.parametrize("call,message", ENTRY_POINTS, ids=[m for _, m in ENTRY_POINTS])
def test_every_entry_point_states_its_size_rule_before_any_work(call, message, no_work):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


COMMANDS = [
    (["pres", "--family", "surface", "-n", "0", "-g", "1"], "surface needs n >= 1, got 0"),
    (["h1", "--family", "surface", "-n", "2", "-g", "0"], "surface needs genus g >= 1, got 0"),
    (["h1", "--family", "quotient", "-n", "2", "-g", "0", "--lh-bound", "1"],
     "surface needs genus g >= 1, got 0"),
    (["pres", "--family", "homotopy", "-n", "0", "-g", "1", "--closed", "--lh-bound", "1"],
     "homotopy needs n >= 1, got 0"),
    (["pres", "--family", "homotopy", "-n", "2", "-g", "0", "--punctured", "--lh-bound", "1",
      "--with-auxiliary"], "homotopy needs genus g >= 1, got 0"),
    (["tc", "--family", "pure", "-n", "2", "-g", "0", "--closed", "--lh-bound", "1"],
     "pure needs genus g >= 1, got 0"),
    (["pres", "--family", "goldsmith", "-n", "1", "--lh-bound", "1"],
     "goldsmith needs n >= 2, got 1"),
    (["verify", "purity", "--family", "symmetric", "-n", "0"], "symmetric needs n >= 1, got 0"),
    (["verify", "eq31", "-n", "1"], "eq31 needs n >= 2, got 1"),
    (["verify", "eq32", "-n", "3", "-g", "-1"], "eq32 needs genus g >= 0, got -1"),
    (["verify", "transport", "-n", "1", "-g", "2"], "transport needs n >= 2, got 1"),
    (["verify", "a-expansion", "-n", "1", "-g", "1"], "a-expansion needs n >= 2, got 1"),
    (["verify", "a-expansion", "-n", "3", "-g", "0"], "a-expansion needs genus g >= 1, got 0"),
]


@pytest.mark.parametrize("argv,message", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_every_command_gives_one_error_line_and_exit_two(argv, message, no_work):
    assert run_command(argv) == (2, b"", f"error: {message}\n".encode())


@pytest.mark.parametrize("n,g,message", [(0, 0, "presentation JSON needs n >= 1, got 0"),
                                         (3, -1, "presentation JSON needs genus g >= 0, got -1")])
def test_a_json_document_gives_one_error_line_and_exit_two(tmp_path, n, g, message, no_work):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(_doc(n, g)), encoding="utf-8")
    assert run_command(["h1", "--input", str(path)]) == (2, b"", f"error: {message}\n".encode())


def test_a_relator_family_over_the_cap_is_refused_at_once():
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="400 strands exceed the cap of 256"):
        pres.RelatorFamily("HN", 400, 0, 0, 1)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("n,g", [(10**6, 1), (1, -1), (0, 0)])
def test_an_unknown_identity_kind_is_named_before_any_size_rule(n, g, no_work):
    with pytest.raises(ValueError, match="^unknown identity kind 'bogus'$"):
        verify.identity_check("bogus", n, g)


@pytest.mark.parametrize("i,j,n", [(2, 5, 4), (3, 2, 4), (0, 2, 4), (1, 1, 4)])
def test_expand_t_out_of_range_is_an_alphabet_error(i, j, n):
    with pytest.raises(AlphabetError):
        pres.expand_t(i, j, n)


@pytest.mark.parametrize("i,r,n,g", [(1, 3, 2, 1), (3, 1, 2, 1), (0, 1, 2, 1), (1, 0, 2, 1),
                                     (1, 1, 2, 0)])
def test_expand_a_out_of_range_is_an_alphabet_error(i, r, n, g):
    with pytest.raises(AlphabetError):
        pres.expand_a(i, r, n, g)


_SIZE_MESSAGE = re.compile(r"needs? (n|genus g) >=")


def _owned(tree):
    """(name of the innermost enclosing function, or None, node) for every node."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else owner
            yield inner, child
            yield from visit(child, inner)

    return visit(tree, None)


def test_only_check_size_states_a_size_rule():
    owners = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docs = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for owner, node in _owned(tree):
            cap = isinstance(node, ast.Compare) and any(
                getattr(side, "id", getattr(side, "attr", None)) == "MAX_STRANDS"
                for side in (node.left, *node.comparators))
            message = (isinstance(node, ast.Constant) and isinstance(node.value, str)
                       and id(node) not in docs and _SIZE_MESSAGE.search(node.value))
            if cap or message:
                owners.add((path.name, owner))
    assert owners == {("presentations.py", "_check_size")}
    assert not hasattr(pres, "_check_strands") and not hasattr(pres, "_check_surface_params")
