"""A first ``tc`` stage that cannot close is skipped.

Coset enumeration closes exactly when the index is finite.  If the exponent
sums of the subgroup words and the finite relators span less than Z^k, over
k generators, the group maps onto the infinite Z^k / span with the subgroup
in its kernel, so the index is infinite; every family relator is a
commutator, with zero exponent sums, so the full presentation has the same
certificate.  ``todd_coxeter`` then runs only the enumeration over all
relators, which the two stages would run second.

These tests compare it with the two-stage rule (``_two_stage``, the stages
as they ran before the certificate, kept verbatim), check that the
certificate fires only where the first stage overflows, check ``_rank``
against the Smith normal form, and pin the routes and bytes that must not
move: the live counts of the family overflows, an empty family stream, the
memory refusal, and the stage routes of subgroups whose abelian quotient is
finite.
"""

from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from braidhomotopy import extension
from braidhomotopy.cli import run_command
from braidhomotopy.extension import _columns, _columns_of, _families_fix_every_coset, todd_coxeter
from braidhomotopy.presentations import (
    exponent_rows,
    goldsmith_presentation,
    homotopy_generalized_presentation,
    pure_homotopy_presentation,
)
from braidhomotopy.verify import smith_normal_form
from braidhomotopy.words import parse_word
from test_staged_tc import _family_presentations, _pure_subgroup, _spy_enumerate, _word_subgroups


def _two_stage(p, subgroup, max_cosets=extension.DEFAULT_MAX_COSETS):
    """``todd_coxeter`` without the certificate: the first stage always runs."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    gens = p.generators
    for fam in p.families:
        fam.check_cap()
    columns = _columns(gens)
    finite = [_columns_of(w.codes, columns) for w in p.relators]
    subgroup_cols = [_columns_of(w.codes, columns) for w in subgroup]
    table = extension._enumerate(gens, finite, subgroup_cols, max_cosets)
    if table.status == "closed" and _families_fix_every_coset(table, p.families, columns):
        return table
    families = [_columns_of(w.codes, columns)
                for _, w in islice(p.iter_relators(), len(p.relators), None)]
    if not families:
        return table
    del table  # so the rerun alone holds a table
    return extension._enumerate(gens, finite + families, subgroup_cols, max_cosets)


def _exponent_rows(p, subgroup):
    """The exponent-sum rows ``todd_coxeter`` reads: subgroup words, then finite relators."""
    return list(exponent_rows(p, [*subgroup, *p.relators]))


def _certified(p, subgroup):
    """Whether the abelian certificate of infinite index holds."""
    k = len(p.generators)
    return extension._rank(_exponent_rows(p, subgroup), k) < k


def _same_table(a, b):
    return (a.status, a.coset_count, a.rows) == (b.status, b.coset_count, b.rows)


def _with_two_stages(monkeypatch, argv):
    """The CLI's (exit, stdout, stderr) with ``_two_stage`` as ``todd_coxeter``."""
    with monkeypatch.context() as m:
        m.setattr(extension, "todd_coxeter", _two_stage)
        return run_command(argv)


FAMILY_OVERFLOWS = [
    (["tc", "--family", "goldsmith", "-n", "3", "--lh-bound", "1", "--max-cosets", "20000"],
     b"overflow after 20000 cosets (15592 live)\n"),
    (["tc", "--family", "homotopy", "-n", "2", "-g", "1", "--closed", "--lh-bound", "1",
      "--max-cosets", "20000"],
     b"overflow after 20000 cosets (19562 live)\n"),
]


@pytest.mark.parametrize("argv,stderr", FAMILY_OVERFLOWS, ids=["goldsmith", "homotopy"])
def test_a_family_overflow_runs_one_enumeration(monkeypatch, argv, stderr):
    seen = _spy_enumerate(monkeypatch)
    result = run_command(argv)
    assert seen == [("overflow", None)]
    assert result == _with_two_stages(monkeypatch, argv) == (3, b"", stderr)
    assert seen == [("overflow", None)] * 3  # the two stages overflow both


# word subgroups whose exponent sums leave a free abelian quotient
_FREE_QUOTIENT_WORDS = [
    (goldsmith_presentation(3, 1), ("s1 s2^-1",)),
    (goldsmith_presentation(3, 1), ("s1^-1 s2", "s2 s1^-1")),
    (goldsmith_presentation(3, 2), ("s1 s2 s1^-1 s2^-1",)),
    (goldsmith_presentation(4, 1), ("s1 s3^-1", "s2 s1^-1")),
    (homotopy_generalized_presentation(2, 1, True, 1), ("s1",)),
    (homotopy_generalized_presentation(2, 1, True, 1), ("s1", "a1.1")),
    (pure_homotopy_presentation(2, 1, True, 1), ("a1.1", "a1.2", "a2.1", "t1.2")),
]


def _subgroups():
    """Each family presentation with its pure subgroup and the trivial one, the
    word subgroups of Goldsmith's and the pure groups, then those of
    ``_FREE_QUOTIENT_WORDS``."""
    for name, p in _family_presentations():
        yield f"{name}-pure", p, _pure_subgroup(p.n, p.g)
        yield f"{name}-trivial", p, []
    for name, p, words in _word_subgroups():
        yield name, p, [parse_word(w, p.n, p.g) for w in words]
    for p, words in _FREE_QUOTIENT_WORDS:
        yield f"free-{p.family}-{p.n}-{'|'.join(words)}", p, [parse_word(w, p.n, p.g) for w in words]


SUBGROUPS = list(_subgroups())


def test_the_certificate_fires_on_some_subgroups_and_on_no_pure_one():
    fired = {name for name, p, sub in SUBGROUPS if _certified(p, sub)}
    assert not any(name.endswith("-pure") for name in fired)
    assert sum(name.endswith("-trivial") for name in fired) == len(list(_family_presentations()))
    assert {name for name in fired if not name.endswith("-trivial")} == {
        name for name, _, _ in SUBGROUPS if name.startswith("free-")}


@pytest.mark.parametrize("p,subgroup", [pytest.param(p, sub, id=name)
                                        for name, p, sub in SUBGROUPS])
def test_the_certificate_is_sound_and_changes_no_table(monkeypatch, p, subgroup):
    k = len(p.generators)
    certified = _certified(p, subgroup)
    assert certified == (smith_normal_form(_exponent_rows(p, subgroup), k).free_rank > 0)
    if certified:
        columns = _columns(p.generators)
        first = extension._enumerate(
            p.generators, [_columns_of(w.codes, columns) for w in p.relators],
            [_columns_of(w.codes, columns) for w in subgroup], 2000)
        assert first.status == "overflow"
    seen = _spy_enumerate(monkeypatch)
    table = todd_coxeter(p, subgroup, 2000)
    if certified:
        assert len(seen) == 1
    assert _same_table(table, _two_stage(p, subgroup, 2000))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.lists(st.integers(-6, 6), min_size=k, max_size=k), max_size=9))))
def test_rank_matches_the_smith_normal_form(case):
    k, rows = case
    free_rank = smith_normal_form(rows, k).free_rank
    assert extension._rank(rows, k) == k - free_rank
    assert (extension._rank(iter(rows), k) < k) == (free_rank > 0)


def test_rank_stops_reading_at_full_rank():
    def rows():
        yield [0, 2, 1]
        yield [3, 0, 0]
        yield [0, 1, 0]
        raise AssertionError("a row past full rank was read")

    assert extension._rank(rows(), 3) == 3


@pytest.mark.parametrize("p", [goldsmith_presentation(3, 0),
                               homotopy_generalized_presentation(2, 1, True, 0)],
                         ids=["goldsmith", "homotopy"])
def test_an_empty_family_stream_returns_the_first_stage_table(monkeypatch, p):
    assert list(islice(p.iter_relators(), len(p.relators), None)) == []
    assert _certified(p, [])
    seen = _spy_enumerate(monkeypatch)
    table = todd_coxeter(p, [], 2000)
    assert seen == [("overflow", None)]
    assert _same_table(table, _two_stage(p, [], 2000))


@pytest.mark.parametrize("argv,k,fit", [(argv, k, fit) for (argv, _), k, fit in zip(
    FAMILY_OVERFLOWS, (2, 3), (2520, 2259))], ids=["goldsmith", "homotopy"])
def test_the_memory_refusal_is_unchanged(monkeypatch, argv, k, fit):
    # a 1 MiB ceiling under a cap of 10^8 cosets: the refusal names only the
    # generator count and the cosets that fit, so skipping a stage cannot move it
    monkeypatch.setattr(extension, "MAX_TABLE_BYTES", 1 << 20)
    argv = [*argv[:-1], "100000000"]
    stderr = (f"resource limit: a coset table over {k} generators passes the memory "
              f"ceiling of 1 MiB at {fit} cosets\n").encode()
    assert run_command(argv) == _with_two_stages(monkeypatch, argv) == (3, b"", stderr)


# the subgroups of ``test_stage_routes`` in test_staged_tc.py
ROUTE_WORDS = [["s1", "s2"], ["s1", "s2^3"], ["s1 s2", "s2 s1^2 s2^-1"]]


@pytest.mark.parametrize("words", ROUTE_WORDS, ids=lambda w: "|".join(w))
def test_a_finite_abelian_quotient_keeps_the_first_stage(words):
    p = goldsmith_presentation(3, 1)
    subgroup = [parse_word(w, 3, 0) for w in words]
    assert smith_normal_form(_exponent_rows(p, subgroup), len(p.generators)).free_rank == 0
    assert not _certified(p, subgroup)


def test_a_first_stage_that_overflows_with_a_finite_abelian_quotient_is_rerun(monkeypatch):
    p = goldsmith_presentation(3, 1)
    subgroup = [parse_word(w, 3, 0) for w in ROUTE_WORDS[2]]
    seen = _spy_enumerate(monkeypatch)
    table = todd_coxeter(p, subgroup, 20000)
    assert seen == [("overflow", None), ("closed", 2)]
    assert _same_table(table, _two_stage(p, subgroup, 20000))
