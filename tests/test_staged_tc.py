"""Staged Todd-Coxeter: close on the finite relators, check the families.

``todd_coxeter`` first enumerates over the finite relators alone.  If that
table closes and every band word t of every family fixes every coset, it
is returned without building the families.  Otherwise, if the table closes
and every family relator fixes every coset, it is returned; else the
enumeration reruns over all relators.  When the subgroup words fix every
coset the subgroup is normal, and the families are traced from coset 1
alone.  These tests compare it with the one-stage enumeration (the
families inlined as finite relators) and with the rule that traces every
coset, pin each route through the stages, and check the case only the
staged enumeration closes under the default cap.
"""

import itertools
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

import braidhomotopy
from braidhomotopy import extension
from braidhomotopy.cli import run_command
from braidhomotopy.extension import CosetTable, todd_coxeter, word_to_columns
from braidhomotopy.presentations import (
    RelatorFamily,
    expand_a,
    expand_t,
    goldsmith_presentation,
    homotopy_generalized_presentation,
    homotopy_quotient,
    pure_homotopy_presentation,
    surface_braid_presentation,
    symmetric_presentation,
)
from braidhomotopy.words import atom, parse_word


def _inlined(p):
    """The same presentation with its families as finite relators."""
    labeled = p.labeled_relators()
    return replace(p, relators=tuple(w for _, w in labeled),
                   labels=tuple(label for label, _ in labeled), families=())


def _validates(table, p, subgroup):
    rels = [word_to_columns(w, p.generators) for _, w in p.iter_relators()]
    return table.validate(rels, [word_to_columns(w, p.generators) for w in subgroup])


def _pure_subgroup(n, g):
    sub = [expand_a(i, r, n, g) for i in range(1, n + 1) for r in range(1, 2 * g + 1)]
    return sub + [expand_t(i, j, n, g) for i in range(1, n) for j in range(i + 1, n + 1)]


def _family_presentations(bounds=(1, 2), strands=(2, 3, 4, 5)):
    for n in strands:
        for g in (1, 2):
            for bound in bounds:
                for closed in (True, False):
                    yield (f"homotopy-{n}-{g}-{closed}-{bound}",
                           homotopy_generalized_presentation(n, g, closed, bound))
                yield (f"quotient-{n}-{g}-{bound}",
                       homotopy_quotient(surface_braid_presentation(n, g), bound))


@pytest.mark.parametrize("p", [pytest.param(p, id=name) for name, p in _family_presentations()])
def test_staged_pure_index_matches_the_one_stage_enumeration(p):
    n, sub = p.n, _pure_subgroup(p.n, p.g)
    staged, plain = todd_coxeter(p, sub), todd_coxeter(_inlined(p), sub)
    # the one-stage enumeration overflows the default cap on every n = 5,
    # bound-2 case; wherever it closes, both give the index n!
    assert (staged.status, staged.coset_count) == ("closed", math.factorial(n))
    if n < 5 or p.lh_bound < 2:
        assert (plain.status, plain.coset_count) == ("closed", math.factorial(n))
    assert _validates(staged, p, sub)


_GOLDSMITH_WORDS = {3: ["s1", "s2", "s1^2", "s2^3", "s1 s2", "s2 s1^2 s2^-1", "s1^-1 s2",
                        "s1 s2 s1"],
                    4: ["s1", "s2 s3", "s3^2", "s1 s2 s3", "s2^3", "s1^2 s3"]}


def _word_subgroups():
    """Subgroups of Goldsmith's and the pure groups given by words."""
    for n, words in _GOLDSMITH_WORDS.items():
        for pair in itertools.combinations(words, 2):
            yield f"goldsmith-{n}-{'|'.join(pair)}", goldsmith_presentation(n, 1), pair
    for n, closed in itertools.product((2, 3), (True, False)):
        p = pure_homotopy_presentation(n, 1, closed, 1)
        gens = [str(gen) for gen in p.generators]
        for k in range(len(gens)):
            for e in (2, 3) if n == 2 else (2,):
                words = tuple(f"{x}^{e}" if i == k else x for i, x in enumerate(gens))
                yield f"pure-{n}-{closed}-{gens[k]}^{e}", p, words


@pytest.mark.parametrize("p,words", [pytest.param(p, w, id=name)
                                     for name, p, w in _word_subgroups()])
def test_staged_word_subgroups_match_the_one_stage_enumeration(p, words):
    sub = [parse_word(w, p.n, p.g) for w in words]
    staged, plain = todd_coxeter(p, sub, 2000), todd_coxeter(_inlined(p), sub, 2000)
    assert (staged.status, staged.coset_count) == (plain.status, plain.coset_count)
    if staged.status == "overflow":  # the fallback is the one-stage enumeration
        assert staged.rows == plain.rows
    else:
        assert _validates(staged, p, sub)


@pytest.mark.parametrize("words,index,stages", [
    # the finite stage closes and the families fix its one coset
    (["s1", "s2"], 1, [("closed", 1)]),
    # B_3 / <s1, s2^3> has 8 cosets, and an LH relator moves some of them
    (["s1", "s2^3"], 1, [("closed", 8), ("closed", 1)]),
    # <s1 s2, s2 s1^2 s2^-1> has infinite index in B_3
    (["s1 s2", "s2 s1^2 s2^-1"], 2, [("overflow", None), ("closed", 2)]),
], ids=["families-fix-every-coset", "families-move-a-coset", "finite-stage-overflows"])
def test_stage_routes(monkeypatch, words, index, stages):
    seen = []
    enumerate_once = extension._enumerate

    def spy(*args):
        table = enumerate_once(*args)
        seen.append((table.status, table.coset_count if table.status == "closed" else None))
        return table

    monkeypatch.setattr(extension, "_enumerate", spy)
    argv = ["tc", "--family", "goldsmith", "-n", "3", "--lh-bound", "1",
            "--max-cosets", "20000"]
    for w in words:
        argv += ["--subgroup-word", w]
    assert run_command(argv) == (0, f"{index}\n".encode(), b"")
    assert seen == stages


def test_fixes_traces_words_from_the_given_cosets():
    # Z/3 = <x | x^3> acting on its three cosets
    table = CosetTable((atom("x"),), [[1, 2], [2, 0], [0, 1]], "closed")
    assert table.fixes([[0, 0, 0], [0, 1], []])
    assert not table.fixes([[0]])
    assert not table.fixes([[0, 0, 0], [0]], [2])
    assert table.fixes([[0, 1, 0, 0, 0]], [0])


def test_the_staged_enumeration_closes_where_the_one_stage_one_overflows():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(braidhomotopy.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "braidhomotopy", "tc", "--family", "homotopy",
                           "-n", "5", "-g", "2", "--closed", "--lh-bound", "2",
                           "--subgroup", "pure"], capture_output=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"120\n", b"")


def _rule_without_the_core(p, subgroup, max_cosets=extension.DEFAULT_MAX_COSETS):
    """Reference: the first stage is kept only if every family relator
    fixes every coset, with no shortcut for a normal subgroup."""
    gens = p.generators
    rels = [word_to_columns(w, gens) for _, w in p.iter_relators()]
    finite, families = rels[:len(p.relators)], rels[len(p.relators):]
    sub = [word_to_columns(w, gens) for w in subgroup]
    table = extension._enumerate(gens, finite, sub, max_cosets)
    if table.status == "closed" and table.fixes(families):
        return table
    return extension._enumerate(gens, finite + families, sub, max_cosets)


def _same_table(a, b):
    return (a.status, a.rows) == (b.status, b.rows)


# bound 0 has families with no instance, bound 3 long streams
@pytest.mark.parametrize("p", [pytest.param(p, id=name) for name, p in [
    *_family_presentations(), *_family_presentations((0, 3), (2, 3, 4))]])
def test_the_core_check_keeps_every_pure_subgroup_table(p):
    sub = _pure_subgroup(p.n, p.g)
    assert _same_table(todd_coxeter(p, sub), _rule_without_the_core(p, sub))


@pytest.mark.parametrize("p,words", [pytest.param(p, w, id=name)
                                     for name, p, w in _word_subgroups()])
def test_the_core_check_keeps_every_word_subgroup_table(p, words):
    sub = [parse_word(w, p.n, p.g) for w in words]
    assert _same_table(todd_coxeter(p, sub, 2000), _rule_without_the_core(p, sub, 2000))


class _OneFamilyWord:
    """Stand-in for ``p`` with one more word in its family stream, which is
    also the one band word of one more family: the attributes
    ``todd_coxeter`` reads."""

    def __init__(self, p, word):
        self.generators, self.relators = p.generators, p.relators
        self.iter_relators = lambda: itertools.chain(p.iter_relators(), [("F", word)])
        self.families = p.families + (
            SimpleNamespace(check_cap=lambda: None, bands=lambda: {1: [(2, word.codes)]}),)


def test_a_non_normal_subgroup_gets_the_full_check():
    # S_3 acting on the 3 cosets of <(1 2)> = <d1>: d1 fixes coset 1 and
    # moves another, and so does the subgroup word itself
    s3 = symmetric_presentation(3)
    d1 = parse_word("d1", s3.n, s3.g)
    table = todd_coxeter(s3, [d1])
    cols = [word_to_columns(d1, s3.generators)]
    assert table.coset_count == 3 and table.fixes(cols, [0]) and not table.fixes(cols)
    # with d1 as a family relator the first stage must be refused: S_3
    # modulo the normal closure of a transposition is trivial
    p = _OneFamilyWord(s3, d1)
    staged = todd_coxeter(p, [d1])
    assert (staged.status, staged.coset_count) == ("closed", 1)
    assert _same_table(staged, _rule_without_the_core(p, [d1]))


def _spy_fixes(monkeypatch):
    calls = []
    fixes = CosetTable.fixes

    def spy(self, words, cosets=None):
        calls.append((len(words), cosets))
        return fixes(self, words, cosets)

    monkeypatch.setattr(CosetTable, "fixes", spy)
    return calls


def _refuse(monkeypatch, *names):
    """Make each named ``RelatorFamily`` method fail the test if it is called."""
    def refuse(*args, **kwargs):
        raise AssertionError("relator family streamed")

    for name in names:
        monkeypatch.setattr(RelatorFamily, name, refuse)


def test_a_normal_subgroup_containing_every_band_word_streams_no_family(monkeypatch):
    calls = _spy_fixes(monkeypatch)
    _refuse(monkeypatch, "instances")
    argv = ["tc", "--family", "homotopy", "-n", "4", "-g", "1", "--closed", "--lh-bound", "1",
            "--subgroup", "pure"]
    assert run_command(argv) == (0, b"24\n", b"")
    assert calls == [(3, None)]  # t_{1,2}, t_{1,3}, t_{1,4}, over every coset


def test_a_normal_subgroup_traces_the_families_from_coset_1_only(monkeypatch):
    # <s1^3, s2 s1^-1, s1 s2 s1^-2> is the normal subgroup of the braids whose
    # exponent sum is 0 mod 3; t_{1,2} = s1^2 moves its cosets, so the families
    # are streamed, and each relator, a commutator, is traced from coset 1
    calls = _spy_fixes(monkeypatch)
    argv = ["tc", "--family", "goldsmith", "-n", "3", "--lh-bound", "1"]
    for w in ("s1^3", "s2 s1^-1", "s1 s2 s1^-2"):
        argv += ["--subgroup-word", w]
    assert run_command(argv) == (0, b"3\n", b"")
    p = goldsmith_presentation(3, 1)
    families = sum(1 for _ in p.iter_relators()) - len(p.relators)
    assert families > 0
    assert calls == [(2, None), (3, None), (families, [0])]


# the pure-subgroup shapes of the ``coset_enum`` benchmark grid, and more
@pytest.mark.parametrize("p", [pytest.param(p, id=name) for name, p in _family_presentations()])
def test_no_pure_subgroup_enumeration_streams_a_family(monkeypatch, p):
    _refuse(monkeypatch, "instances", "conjugators")
    table = todd_coxeter(p, _pure_subgroup(p.n, p.g))
    assert (table.status, table.coset_count) == ("closed", math.factorial(p.n))
