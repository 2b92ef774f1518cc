"""Staged Todd-Coxeter: close on the finite relators, check the families.

``todd_coxeter`` first enumerates over the finite relators alone.  If that
table closes and every family relator [t, h t h^-1] fixes every coset, it
is returned; else the enumeration reruns over all relators.  The check
builds no relator: the table is a permutation action ρ, and the relator
fixes every coset iff ρ(t) commutes with ρ(h t h^-1).  These tests compare
it with the one-stage enumeration (the families inlined as finite
relators) and with the rule that traces every streamed relator from every
coset, pin each route through the stages, compare ``CosetTable.act`` and
``fixes`` with the state-graph trace they replaced, and check the case
only the staged enumeration closes under the default cap.
"""

import itertools
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace
from functools import reduce
from operator import getitem
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

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
from braidhomotopy.words import atom, concat_all, invert, parse_word


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


# <s1^3, s2 s1^-1, s1 s2 s1^-2> is the normal subgroup of the braids whose
# exponent sum is 0 mod 3: t_{1,2} = s1^2 moves its cosets, but the action is
# abelian, so every family relator fixes them
_Z3_WORDS = ("s1^3", "s2 s1^-1", "s1 s2 s1^-2")
# Goldsmith n = 3 subgroups whose first table is kept though t_{1,2} moves
# its cosets: the Z/3 subgroup, and two pairs, at index 4 and 9, of the 612
# pairs of words of length 1-4 whose bound-1 first table closes within 300
# cosets and is kept so
_MOVING_T_WORDS = {"Z3": _Z3_WORDS, "index-4": ("s1^3 s2", "s1^2 s2 s1"),
                   "index-9": ("s1^2 s2^2", "s2^2 s1^-1")}


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


def _spy_enumerate(monkeypatch):
    """(status, coset count or None on overflow) of each enumeration, in order."""
    seen = []
    enumerate_once = extension._enumerate

    def spy(*args):
        table = enumerate_once(*args)
        seen.append((table.status, table.coset_count if table.status == "closed" else None))
        return table

    monkeypatch.setattr(extension, "_enumerate", spy)
    return seen


@pytest.mark.parametrize("words,index,stages", [
    # the finite stage closes and the families fix its one coset
    (["s1", "s2"], 1, [("closed", 1)]),
    # B_3 / <s1, s2^3> has 8 cosets, and an LH relator moves some of them
    (["s1", "s2^3"], 1, [("closed", 8), ("closed", 1)]),
    # <s1 s2, s2 s1^2 s2^-1> has infinite index in B_3
    (["s1 s2", "s2 s1^2 s2^-1"], 2, [("overflow", None), ("closed", 2)]),
], ids=["families-fix-every-coset", "families-move-a-coset", "finite-stage-overflows"])
def test_stage_routes(monkeypatch, words, index, stages):
    seen = _spy_enumerate(monkeypatch)
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


def _state_graph(table):
    """Each row of a complete table as the list of the rows it leads to."""
    states = [list(row) for row in table.rows]
    for state in states:
        state[:] = [states[v] for v in state]
    return states


def _state_graph_fixes(table, words, cosets=None):
    """``CosetTable.fixes`` before ``act``: a trace is ``reduce(getitem, word, row)``."""
    states = _state_graph(table)
    starts = states if cosets is None else [states[c] for c in cosets]
    return all(reduce(getitem, word, s) is s for word in words for s in starts)


def _state_graph_image(table, word, c):
    states = _state_graph(table)
    end = reduce(getitem, word, states[c])
    return next(k for k, s in enumerate(states) if s is end)


def _closed_tables():
    """S_3 on its elements and on the cosets of <d1>, the Z/3 table, and two
    pure-subgroup tables."""
    s3, goldsmith = symmetric_presentation(3), goldsmith_presentation(3, 1)
    yield todd_coxeter(s3, [])
    yield todd_coxeter(s3, [parse_word("d1", s3.n, s3.g)])
    yield todd_coxeter(goldsmith, [parse_word(w, 3, 0) for w in _Z3_WORDS])
    for p in (homotopy_generalized_presentation(3, 1, True, 1),
              homotopy_quotient(surface_braid_presentation(4, 1), 1)):
        yield todd_coxeter(p, _pure_subgroup(p.n, p.g))


_CLOSED_TABLES = list(_closed_tables())


@st.composite
def _table_words(draw):
    """A closed table, words over its columns (some of the form u u^-1, which
    fix every coset), and the cosets to start from: all, coset 1, or a list."""
    table = draw(st.sampled_from(_CLOSED_TABLES))
    letters = st.lists(st.integers(0, 2 * len(table.generators) - 1), max_size=10)
    words = []
    for u in draw(st.lists(letters, max_size=4)):
        words.append(u + [col ^ 1 for col in reversed(u)] if draw(st.booleans()) else u)
    cosets = draw(st.one_of(st.none(), st.just([0]),
                            st.lists(st.integers(0, table.coset_count - 1), max_size=5)))
    return table, words, cosets


@settings(max_examples=300, deadline=None)
@given(_table_words())
def test_act_and_fixes_match_the_state_graph_trace(case):
    table, words, cosets = case
    starts = range(table.coset_count) if cosets is None else cosets
    for word in words:
        assert table.act(word, cosets) == [_state_graph_image(table, word, c) for c in starts]
    assert table.fixes(words, cosets) == _state_graph_fixes(table, words, cosets)


@pytest.mark.parametrize("table", _CLOSED_TABLES, ids=lambda t: f"{t.coset_count}-cosets")
def test_the_empty_word_acts_as_the_identity(table):
    cosets = list(range(table.coset_count))
    assert table.act([]) == cosets and table.act([], [0]) == [0]
    assert table.fixes([[]]) and table.fixes([[]], [0]) and table.fixes([])
    assert _state_graph_fixes(table, [[]]) and _state_graph_fixes(table, [[]], [0])


def test_the_staged_enumeration_closes_where_the_one_stage_one_overflows():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(braidhomotopy.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "braidhomotopy", "tc", "--family", "homotopy",
                           "-n", "5", "-g", "2", "--closed", "--lh-bound", "2",
                           "--subgroup", "pure"], capture_output=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"120\n", b"")


def _rule_without_the_core(p, subgroup, max_cosets=extension.DEFAULT_MAX_COSETS):
    """Reference: the first stage is kept only if it closes and every streamed
    family relator, traced from every coset, fixes it."""
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


def _check_the_rule(monkeypatch, p, subgroup, max_cosets=extension.DEFAULT_MAX_COSETS):
    """``todd_coxeter`` gives the reference's table in as many enumerations."""
    seen = _spy_enumerate(monkeypatch)
    staged = todd_coxeter(p, subgroup, max_cosets)
    stages = len(seen)
    assert _same_table(staged, _rule_without_the_core(p, subgroup, max_cosets))
    assert len(seen) - stages == stages


# bound 0 has families with no instance, bound 3 long streams
@pytest.mark.parametrize("p", [pytest.param(p, id=name) for name, p in [
    *_family_presentations(), *_family_presentations((0, 3), (2, 3, 4))]])
def test_the_core_check_keeps_every_pure_subgroup_table(monkeypatch, p):
    _check_the_rule(monkeypatch, p, _pure_subgroup(p.n, p.g))


def _reference_word_subgroups():
    """The word subgroups, Goldsmith's n = 3 pairs also at bounds 2 and 3, and
    those of ``_MOVING_T_WORDS`` at bounds 1-3, all at a cap of 2,000 cosets; then
    <s1^2, s2^3> at bounds 1-3 at the default cap, where bound 3 closes only
    past 2,000 cosets."""
    for name, p, words in _word_subgroups():
        yield name, p, words, 2000
    for bound, pair in itertools.product((2, 3), itertools.combinations(_GOLDSMITH_WORDS[3], 2)):
        p = goldsmith_presentation(3, bound)
        yield f"goldsmith-3-{'|'.join(pair)}-b{bound}", p, pair, 2000
    for bound, (name, words) in itertools.product((1, 2, 3), _MOVING_T_WORDS.items()):
        yield f"goldsmith-3-{name}-b{bound}", goldsmith_presentation(3, bound), words, 2000
    for bound in (1, 2, 3):
        yield (f"goldsmith-3-s1^2|s2^3-b{bound}-default-cap", goldsmith_presentation(3, bound),
               ("s1^2", "s2^3"), extension.DEFAULT_MAX_COSETS)


@pytest.mark.parametrize("p,words,max_cosets", [pytest.param(p, w, m, id=name)
                                                for name, p, w, m in _reference_word_subgroups()])
def test_the_core_check_keeps_every_word_subgroup_table(monkeypatch, p, words, max_cosets):
    _check_the_rule(monkeypatch, p, [parse_word(w, p.n, p.g) for w in words], max_cosets)


class _OneFamily:
    """Stand-in for ``p`` with one more family: one band word t, the given
    conjugators h, and the stream of the [t, h t h^-1] that are not freely
    trivial, as ``RelatorFamily`` spells them.  These are the attributes
    ``todd_coxeter`` reads."""

    def __init__(self, p, t, conjugators):
        self.generators, self.relators = p.generators, p.relators
        stream = [("F", rel) for h in conjugators if (rel := concat_all(
            [t, h, t, invert(h), invert(t), h, invert(t), invert(h)]))]
        self.iter_relators = lambda: itertools.chain(p.iter_relators(), stream)
        self.families = p.families + (SimpleNamespace(
            check_cap=lambda i=None: None, bands=lambda: {1: [(2, t.codes)]},
            conjugators=lambda i: [("h", h.codes, invert(h).codes) for h in conjugators]),)


def test_a_non_normal_subgroup_gets_the_full_check():
    # S_4 acting on the 4 cosets of S_3 = <d1, d2>, the stabilizer of the
    # point 4: the relator [d1, d2 d1 d2^-1], a 3-cycle on 1, 2, 3, lies in
    # the subgroup, so it fixes coset 1, and moves another coset
    s4 = symmetric_presentation(4)
    d1, d2 = (parse_word(w, s4.n, s4.g) for w in ("d1", "d2"))
    p = _OneFamily(s4, d1, [parse_word("", s4.n, s4.g), d2])
    table = todd_coxeter(s4, [d1, d2])
    cols = [word_to_columns(w, s4.generators) for _, w in p.iter_relators()][len(s4.relators):]
    assert table.coset_count == 4 and len(cols) == 1
    assert table.fixes(cols, [0]) and not table.fixes(cols)
    # so the first stage must be refused: S_4 modulo the normal closure of a
    # 3-cycle is Z/2, in which the image of <d1, d2> is everything
    staged = todd_coxeter(p, [d1, d2])
    assert (staged.status, staged.coset_count) == ("closed", 1)
    assert _same_table(staged, _rule_without_the_core(p, [d1, d2]))


def _refuse(monkeypatch, *names, owner=RelatorFamily):
    """Make each named method of ``owner`` fail the test if it is called."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{owner.__name__} method called")

    for name in names:
        monkeypatch.setattr(owner, name, refuse)


def test_a_normal_subgroup_containing_every_band_word_streams_no_family(monkeypatch):
    _refuse(monkeypatch, "instances", "conjugators")
    _refuse(monkeypatch, "fixes", owner=CosetTable)
    seen = _spy_enumerate(monkeypatch)
    argv = ["tc", "--family", "homotopy", "-n", "4", "-g", "1", "--closed", "--lh-bound", "1",
            "--subgroup", "pure"]
    assert run_command(argv) == (0, b"24\n", b"")
    assert seen == [("closed", 24)]


def test_an_abelian_action_keeps_the_first_table_though_t_moves_its_cosets(monkeypatch):
    # t_{1,2} = s1^2 moves the 3 cosets of the Z/3 subgroup, so the check
    # reads the conjugators of strand 1; the action is abelian, so every
    # family relator fixes every coset and nothing is streamed or rerun
    _refuse(monkeypatch, "instances")
    _refuse(monkeypatch, "fixes", owner=CosetTable)
    seen, strands = _spy_enumerate(monkeypatch), []
    conjugators = RelatorFamily.conjugators

    def spy(self, i):
        strands.append(i)
        return conjugators(self, i)

    monkeypatch.setattr(RelatorFamily, "conjugators", spy)
    argv = ["tc", "--family", "goldsmith", "-n", "3", "--lh-bound", "1"]
    for w in _Z3_WORDS:
        argv += ["--subgroup-word", w]
    assert run_command(argv) == (0, b"3\n", b"")
    assert seen == [("closed", 3)] and strands == [1]


# the pure-subgroup shapes of the ``coset_enum`` benchmark grid, and more
@pytest.mark.parametrize("p", [pytest.param(p, id=name) for name, p in _family_presentations()])
def test_no_pure_subgroup_enumeration_streams_a_family(monkeypatch, p):
    _refuse(monkeypatch, "instances", "conjugators")
    _refuse(monkeypatch, "fixes", owner=CosetTable)
    table = todd_coxeter(p, _pure_subgroup(p.n, p.g))
    assert (table.status, table.coset_count) == ("closed", math.factorial(p.n))
