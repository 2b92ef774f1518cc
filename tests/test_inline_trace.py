"""Coset enumeration traces each relator inline and scans only where the
trace stops.

``extension._enumerate`` traces every relator from the coset it is filling,
one table lookup per letter, and calls ``scan_and_fill`` only when the trace
does not get back to that coset; the scan resumes where the trace stopped.
A coset that ``unify`` kills gets the one shared all-``_UNDEF`` row, so a
trace stops one letter after entering it.  These tests run each enumeration
beside ``_reference_enumerate`` (the enumeration as it was before the trace,
kept verbatim) and compare the status, the live count, the cosets defined
and the numbered rows, or the refusal, on the symmetric groups, seeded word
subgroups of S_6 under caps that overflow in mid-scan, every job of the
``coset_enum`` benchmark grid and the memory refusal.  They also check that
every dead coset shares one row that nothing has written to.
"""

import random

import pytest

from braidhomotopy import extension
from braidhomotopy.cli import run_command
from braidhomotopy.extension import (
    _COLUMN_BYTES,
    _COSET_BYTES,
    _UNDEF,
    MAX_TABLE_BYTES,
    CosetTable,
    _Overflow,
    todd_coxeter,
)
from braidhomotopy.presentations import symmetric_presentation
from braidhomotopy.words import Gen, ResourceLimitError, parse_word
from test_futile_stage import FAMILY_OVERFLOWS
from test_lazy_rows import GRID


def _reference_enumerate(gens: tuple[Gen, ...], relators: list[list[int]],
                         subgroup_cols: list[list[int]], max_cosets: int) -> CosetTable:
    """One HLT enumeration over relators and subgroup words given as columns."""
    ncols = 2 * len(gens)
    fit = MAX_TABLE_BYTES // (_COSET_BYTES + _COLUMN_BYTES * ncols)
    most = min(max_cosets, fit)
    # union-find over cosets (labels[c] == c iff c is live, else an older
    # coset) and one row per coset, whose entries may name dead cosets
    labels = [0]
    table = [[_UNDEF] * ncols]
    merged = 0  # cosets unify has killed: the live count is len(labels) - merged

    def rep(c: int) -> int:
        while labels[c] != c:
            labels[c] = c = labels[labels[c]]
        return c

    def unify(c1: int, c2: int) -> None:
        nonlocal merged
        queue = [(c1, c2)]
        while queue:
            a, b = queue.pop()
            a = a if labels[a] == a else rep(a)
            b = b if labels[b] == b else rep(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            labels[b] = a
            merged += 1
            row_a = table[a]
            # entries are defined in inverse pairs, so nb's row already
            # leads back into b's class, which is now a's
            for col, nb in enumerate(table[b]):
                if nb == _UNDEF:
                    continue
                if row_a[col] == _UNDEF:
                    row_a[col] = nb
                else:
                    queue.append((row_a[col], nb))

    def define(f: int, col: int) -> int:
        d = len(labels)
        if d >= most:
            if d >= max_cosets:
                raise _Overflow
            raise ResourceLimitError(
                f"a coset table over {len(gens)} generators passes the memory ceiling "
                f"of {MAX_TABLE_BYTES >> 20} MiB at {fit} cosets")
        labels.append(d)
        table.append([_UNDEF] * ncols)
        table[f][col], table[d][col ^ 1] = d, f
        return d

    def scan_and_fill(c: int, word: list[int]) -> None:
        f, i, b, j = c, 0, c, len(word) - 1
        while i <= j and (x := table[f][word[i]]) != _UNDEF:
            if labels[x] != x:
                x = table[f][word[i]] = rep(x)
            f, i = x, i + 1
        while j >= i and (x := table[b][word[j] ^ 1]) != _UNDEF:
            if labels[x] != x:
                x = table[b][word[j] ^ 1] = rep(x)
            b, j = x, j - 1
        if j < i:
            if f != b:
                unify(f, b)
            return
        while i < j:
            f, i = define(f, word[i]), i + 1
        table[f][word[j]] = b
        back = table[b][word[j] ^ 1]
        if back == _UNDEF:
            table[b][word[j] ^ 1] = f
        else:  # the gap's first definition filled it
            unify(back, f)

    status = "closed"
    try:
        for word in subgroup_cols:
            scan_and_fill(0, word)
        c = 0
        while c < len(labels):
            if labels[c] == c:
                for rel in relators:
                    scan_and_fill(c, rel)
                    if labels[c] != c:
                        break
                else:
                    for col in range(ncols):
                        if table[c][col] == _UNDEF:
                            define(c, col)
            c += 1
    except _Overflow:
        status = "overflow"
    return CosetTable(gens, table, status, labels=labels, live=len(labels) - merged)


def _outcome(enumerate_once, args):
    """The table or refusal, and (status, live count, cosets defined, rows) or
    the refusal's (type, message)."""
    try:
        table = enumerate_once(*args)
    except ResourceLimitError as exc:
        return exc, (type(exc), str(exc))
    defined = len(table._raw[1])  # before ``rows`` drops the raw table
    return table, (table.status, table.coset_count, defined, table.rows)


def _compare_each_enumeration(monkeypatch):
    """Run every enumeration beside the reference and compare them; the
    outcomes, in order, are returned."""
    outcomes = []
    enumerate_once = extension._enumerate

    def both(*args):
        result, outcome = _outcome(enumerate_once, args)
        assert outcome == _outcome(_reference_enumerate, args)[1]
        outcomes.append(outcome)
        if isinstance(result, ResourceLimitError):
            raise result
        return result

    monkeypatch.setattr(extension, "_enumerate", both)
    return outcomes


@pytest.mark.parametrize("n", range(2, 8))
def test_the_symmetric_groups_match_the_reference(monkeypatch, n):
    outcomes = _compare_each_enumeration(monkeypatch)
    table = todd_coxeter(symmetric_presentation(n), [])
    assert [o[:2] for o in outcomes] == [("closed", table.coset_count)]


def _seeded_word_sets(count=200, n=6):
    rnd = random.Random(34)
    letters = [f"d{i}" for i in range(1, n)]
    for _ in range(count):
        yield [" ".join(rnd.choice(letters) + rnd.choice(("", "^-1", "^2", "^-2"))
                        for _ in range(rnd.randint(1, 8)))
               for _ in range(rnd.randint(1, 3))]


@pytest.mark.parametrize("cap", [50, 300, 100_000])
def test_seeded_word_subgroups_match_the_reference(monkeypatch, cap):
    p = symmetric_presentation(6)
    outcomes = _compare_each_enumeration(monkeypatch)
    for words in _seeded_word_sets():
        todd_coxeter(p, [parse_word(w) for w in words], cap)
    assert len(outcomes) == 200
    statuses = {o[0] for o in outcomes}
    # the two small caps stop some enumerations in mid-scan
    assert statuses == ({"closed", "overflow"} if cap < 100_000 else {"closed"})


@pytest.mark.parametrize("argv,index", GRID, ids=[" ".join(argv[1:]) for argv, _ in GRID])
def test_the_benchmark_grid_matches_the_reference(monkeypatch, argv, index):
    outcomes = _compare_each_enumeration(monkeypatch)
    run_command(argv)
    assert outcomes
    if index is not None:
        assert outcomes[-1][:2] == ("closed", index)


@pytest.mark.parametrize("argv", [argv for argv, _ in FAMILY_OVERFLOWS],
                         ids=["goldsmith", "homotopy"])
def test_the_memory_refusal_matches_the_reference(monkeypatch, argv):
    # the reference reads the ceiling from this module, the enumerator from its own
    monkeypatch.setattr(extension, "MAX_TABLE_BYTES", 1 << 20)
    monkeypatch.setitem(globals(), "MAX_TABLE_BYTES", 1 << 20)
    outcomes = _compare_each_enumeration(monkeypatch)
    code, out, err = run_command([*argv[:-1], "100000000"])
    assert (code, out) == (3, b"")
    assert err.startswith(b"resource limit: a coset table over ")
    assert [o[0] for o in outcomes] == [ResourceLimitError]


def test_every_dead_coset_shares_one_untouched_row():
    table = todd_coxeter(symmetric_presentation(7), [])
    rows, labels = table._raw
    dead = [c for c, label in enumerate(labels) if label != c]
    assert (len(labels), len(dead), table.coset_count) == (6120, 1080, 5040)
    shared = rows[dead[0]]
    assert all(rows[c] is shared for c in dead)
    assert shared == [_UNDEF] * 2 * len(table.generators)
    assert not any(rows[c] is shared for c, label in enumerate(labels) if label == c)
