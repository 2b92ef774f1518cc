"""A coset table is renumbered only when a caller reads its rows.

``extension._enumerate`` returns its own rows (whose entries may name dead
cosets), its union-find labels and its live count; ``coset_count`` is that
count, and the first read of ``rows`` numbers the live cosets in order of
definition.  These tests compare ``rows`` with the eager renumbering that
``_enumerate`` ran before returning (``_eager_rows``, kept verbatim) on every
table of the ``coset_enum`` benchmark grid and on the word-subgroup and
closed tables of test_staged_tc.py, check that a caller reading only the
count never renumbers, that concurrent first reads renumber once, that
``act`` refuses an overflowed table, and that ``RelatorFamily.bands`` spells
the bands alone.
"""

import math
import pickle
import threading
import time

import pytest

from braidhomotopy import extension, presentations
from braidhomotopy.cli import run_command
from braidhomotopy.extension import CosetTable, _UNDEF, todd_coxeter
from braidhomotopy.presentations import RelatorFamily, goldsmith_presentation
from braidhomotopy.words import atom, band, code, image_table, parse_word
from test_staged_tc import _closed_tables, _word_subgroups


def _eager_rows(table, labels):
    """The renumbering ``_enumerate`` ran on every table before it returned."""
    # a dead coset's label is older, so its row number is already known
    number, live = [], []
    for c, label in enumerate(labels):
        number.append(len(live) if label == c else number[label])
        if label == c:
            live.append(c)
    number.append(_UNDEF)  # number[_UNDEF] is _UNDEF
    return [[number[v] for v in table[c]] for c in live]


def _tc(family, index=None, subgroup=None, words=(), max_cosets=None, **flags):
    """A ``coset_enum`` job as (argv, the stdout or stderr it must give)."""
    argv = ["tc", "--family", family]
    for flag, value in flags.items():
        name = f"-{flag}" if len(flag) == 1 else f"--{flag.replace('_', '-')}"
        argv += [name] if value is True else [name, str(value)]
    argv += ["--subgroup", subgroup] if subgroup else []
    for w in words:
        argv += ["--subgroup-word", w]
    argv += ["--max-cosets", str(max_cosets)] if max_cosets else []
    return argv, index


def _coset_enum_grid():
    """The 34 jobs of perfbench's ``coset_enum`` workload, in its order."""
    jobs = [_tc("symmetric", math.factorial(n), n=n) for n in (6, 7)]
    jobs.append(_tc("symmetric", math.factorial(8) // 16, n=8, words=("d1", "d3", "d5", "d7")))
    jobs.append(_tc("symmetric", math.factorial(7) // 3, n=7, words=("d1 d2",)))
    for n in (3, 4, 5):
        for g in (1, 2):
            index = math.factorial(n)
            jobs.append(_tc("surface", index, "pure", n=n, g=g))
            for bound in (1, 2) if n < 5 else (1,):
                jobs.append(_tc("homotopy", index, "pure", n=n, g=g, closed=True,
                                lh_bound=bound))
                jobs.append(_tc("quotient", index, "pure", n=n, g=g, lh_bound=bound))
    jobs += [_tc("surface", max_cosets=20_000, n=2, g=1),
             _tc("surface", max_cosets=20_000, n=3, g=2),
             _tc("homotopy", max_cosets=20_000, n=2, g=1, closed=True, lh_bound=1),
             _tc("goldsmith", max_cosets=20_000, n=3, lh_bound=1)]
    return jobs


GRID = _coset_enum_grid()


def _keep_raw(monkeypatch):
    """A copy of each enumeration's raw rows and labels, with its table, in order."""
    kept = []
    enumerate_once = extension._enumerate

    def spy(*args):
        table = enumerate_once(*args)
        rows, labels = table._raw
        kept.append((table, [row[:] for row in rows], labels[:]))
        return table

    monkeypatch.setattr(extension, "_enumerate", spy)
    return kept


def _check_against_the_eager_rows(kept):
    for table, rows, labels in kept:
        eager = _eager_rows(rows, labels)
        assert table.coset_count == len(eager)
        assert table.rows == eager
        assert table.rows is table.rows and table.coset_count == len(eager)


def test_the_grid_has_the_workload_shape():
    assert len(GRID) == 34 and sum(index is None for _, index in GRID) == 4


@pytest.mark.parametrize("argv,index", GRID, ids=[" ".join(argv[1:]) for argv, _ in GRID])
def test_rows_match_the_eager_renumbering_on_the_grid(monkeypatch, argv, index):
    kept = _keep_raw(monkeypatch)
    code_, out, err = run_command(argv)
    if index is None:
        assert (code_, out) == (3, b"")
        assert err == f"overflow after 20000 cosets ({kept[-1][0].coset_count} live)\n".encode()
    else:
        assert (code_, out, err) == (0, f"{index}\n".encode(), b"")
    assert kept
    _check_against_the_eager_rows(kept)


@pytest.mark.parametrize("p,words", [pytest.param(p, w, id=name)
                                     for name, p, w in _word_subgroups()])
def test_rows_match_the_eager_renumbering_on_the_word_subgroups(monkeypatch, p, words):
    kept = _keep_raw(monkeypatch)
    todd_coxeter(p, [parse_word(w, p.n, p.g) for w in words], 2000)
    _check_against_the_eager_rows(kept)


def test_rows_match_the_eager_renumbering_on_the_closed_tables(monkeypatch):
    kept = _keep_raw(monkeypatch)
    tables = list(_closed_tables())
    assert all(table.status == "closed" for table in tables)
    _check_against_the_eager_rows(kept)


@pytest.mark.parametrize("argv,stdout,stderr", [
    (["tc", "--family", "surface", "-n", "3", "-g", "2", "--max-cosets", "20000"],
     b"", b"overflow after 20000 cosets (19925 live)\n"),
    (["tc", "--family", "symmetric", "-n", "7"], b"5040\n", b""),
], ids=["surface-overflow", "symmetric-7"])
def test_a_caller_reading_only_the_count_never_renumbers(monkeypatch, argv, stdout, stderr):
    def refuse(*args):
        raise AssertionError("renumbered")

    monkeypatch.setattr(extension, "_renumber", refuse)
    assert run_command(argv) == (3 if stderr else 0, stdout, stderr)


def test_table_out_renumbers_once(monkeypatch, tmp_path):
    calls = []
    renumber = extension._renumber

    def spy(*args):
        calls.append(len(args[1]))
        return renumber(*args)

    monkeypatch.setattr(extension, "_renumber", spy)
    path = tmp_path / "table.csv"
    argv = ["tc", "--family", "symmetric", "-n", "5", "--table-out", str(path)]
    assert run_command(argv) == (0, b"120\n", b"")
    assert len(calls) == 1 and len(path.read_text().splitlines()) == 121


def test_concurrent_first_reads_renumber_once(monkeypatch):
    p = goldsmith_presentation(3, 1)
    table = todd_coxeter(p, [parse_word("s1 s2", 3, 0)], 2000)
    rows, labels = table._raw
    eager = _eager_rows(rows, labels)
    calls, barrier = [], threading.Barrier(2)
    renumber = extension._renumber

    def slow(*args):
        calls.append(1)
        barrier.wait(5)  # the other reader starts only while this one holds the lock
        time.sleep(0.05)
        return renumber(*args)

    monkeypatch.setattr(extension, "_renumber", slow)
    seen = [None, None]

    def read(k):
        if k:
            barrier.wait(5)
        seen[k] = table.rows

    threads = [threading.Thread(target=read, args=(k,)) for k in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert len(calls) == 1 and seen[0] is seen[1] and seen[0] == eager
    assert table._raw is None


def test_a_given_table_keeps_its_rows():
    rows = [[1, 2], [2, 0], [0, 1]]
    table = CosetTable((atom("x"),), rows, "closed")
    assert table.rows is rows and table.coset_count == 3
    assert table == CosetTable((atom("x"),), [row[:] for row in rows], "closed")
    assert table != CosetTable((atom("x"),), rows, "overflow")


def test_a_table_pickles_as_its_numbered_rows():
    table = todd_coxeter(goldsmith_presentation(3, 1), [parse_word("s1 s2", 3, 0)], 2000)
    copy = pickle.loads(pickle.dumps(table))
    assert copy == table and copy.coset_count == table.coset_count
    assert repr(copy) == repr(table)


def test_act_refuses_an_overflowed_table():
    p = goldsmith_presentation(3, 1)
    table = todd_coxeter(p, [], 2000)
    assert table.status == "overflow"
    assert any(_UNDEF in row for row in table.rows)
    with pytest.raises(ValueError, match="closed coset table"):
        table.act([0])
    with pytest.raises(ValueError, match="closed coset table"):
        table.fixes([[0, 1]], [0])
    assert not table.validate([], [])


@pytest.mark.parametrize("kind,n,g,strand", [
    ("LH", 4, 2, 1), ("HN", 4, 2, 0), ("HN", 5, 1, 0), ("HN", 3, 0, 0), ("LH1", 4, 2, 2),
    ("LH1", 3, 1, 1), ("LH", 2, 1, 2)])
def test_bands_spell_what_the_image_table_holds(kind, n, g, strand):
    fam = RelatorFamily(kind, n, g, strand, 1)
    images = {i: image_table(map(code, fam.strand_basis(i)), fam._spell)[0]
              for i in fam._strands()}
    assert fam.bands() == {i: [(j, image[code(band(i, j))]) for j in range(i + 1, n + 1)]
                           for i, image in images.items()}


def test_a_pure_subgroup_family_check_spells_no_loop(monkeypatch):
    tables, real = [], presentations.image_table
    monkeypatch.setattr(presentations, "image_table",
                        lambda *args: tables.append(args) or real(*args))
    inside, loops = [], []
    expand_a, tc = presentations.expand_a, extension.todd_coxeter

    def spy_expand_a(*args):
        if inside:
            loops.append(args)
        return expand_a(*args)

    def spy_tc(*args):
        inside.append(1)
        try:
            return tc(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(presentations, "expand_a", spy_expand_a)
    monkeypatch.setattr(extension, "todd_coxeter", spy_tc)
    argv = ["tc", "--family", "quotient", "-n", "5", "-g", "2", "--lh-bound", "1",
            "--subgroup", "pure"]
    assert run_command(argv) == (0, b"120\n", b"")
    assert loops == [] and tables == []
