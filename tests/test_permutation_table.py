"""The transition-table walk of ``perms.PermutationTable`` against the
letter-by-letter reference ``perms.word_permutation``, and the choice
``verify.purity_report`` makes between them."""

import pytest
from hypothesis import given, settings, strategies as st

from braidhomotopy import presentations as pres, verify
from braidhomotopy.perms import (
    Permutation,
    PermutationTable,
    UnsupportedLetterError,
    inverse,
    word_permutation,
)
from braidhomotopy.words import Word, atom, band, invert, loop, parse_word, sigma

ATOMS = [atom("x"), atom("y"), atom("z")]


@st.composite
def alphabets(draw):
    """(n, g, typed letters, atom images): atoms get arbitrary permutations,
    so most are not involutions."""
    n, g = draw(st.integers(1, 7)), draw(st.integers(0, 2))
    gens = [sigma(i) for i in range(1, n)]
    gens += [loop(i, r) for i in range(1, n + 1) for r in range(1, 2 * g + 1)]
    gens += [band(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    images = {x: Permutation(tuple(draw(st.permutations(range(1, n + 1))))) for x in ATOMS}
    return n, g, gens + ATOMS, images


def words(draw, n, g, gens, count):
    letters = st.tuples(st.sampled_from(gens), st.sampled_from([1, -1]))
    return [Word(draw(st.lists(letters, max_size=40)), (n, g)) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_table_walks_every_word_as_the_reference_does(data):
    n, g, gens, images = data.draw(alphabets())
    table = PermutationTable(n, images)
    for w in words(data.draw, n, g, gens, 6):
        assert table.images(w) == word_permutation(w, n, images).images
    assert table.images(Word()) == tuple(range(1, n + 1))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_an_inverse_word_walks_to_the_inverse_permutation(data):
    n, g, gens, images = data.draw(alphabets())
    table = PermutationTable(n, images)
    for w in words(data.draw, n, g, gens, 3):
        p = word_permutation(w, n, images)
        assert word_permutation(invert(w), n, images) == inverse(p)
        assert table.images(invert(w)) == inverse(p).images


def test_an_atom_without_an_image_is_refused_and_leaves_the_table_as_it_was():
    x = {atom("x"): Permutation((2, 3, 1))}
    table = PermutationTable(3, x)
    for text in ("y", "s1 y", "x^-1 y^-1"):
        w = parse_word(text, 3, 0)
        with pytest.raises(UnsupportedLetterError):
            table.images(w)
        with pytest.raises(UnsupportedLetterError):
            word_permutation(w, 3, x)
    assert table.images(parse_word("x^-1 s1", 3, 0)) == (1, 3, 2)
    with pytest.raises(UnsupportedLetterError):
        PermutationTable(3).images(parse_word("x"))


def _families(bound):
    yield pres.surface_braid_presentation(3, 1)
    yield pres.surface_braid_presentation(2, 2)
    yield pres.symmetric_presentation(4)
    yield pres.goldsmith_presentation(4, bound)
    yield pres.homotopy_quotient(pres.surface_braid_presentation(3, 1), bound)
    for closed in (True, False):
        yield pres.pure_homotopy_presentation(3, 1, closed, bound)
        yield pres.homotopy_generalized_presentation(3, 1, closed, bound)


@pytest.mark.parametrize("bound", [0, 1, 2])
@pytest.mark.parametrize("fault", [False, True])
def test_purity_records_are_the_same_on_both_paths(monkeypatch, bound, fault):
    for p in _families(bound):
        # a fault needs a generator that is not pure: a crossing, or a symmetric d_i
        crossing = next((gen for gen in p.generators if gen.kind in ("s", "x")), None)
        if fault and crossing is None:
            continue
        if fault:
            p = p.with_relator("FAULT", Word(((crossing, 1),), (p.n, p.g)))
        table = verify.purity_report(p)
        with monkeypatch.context() as m:
            m.setattr(verify, "TABLE_MAX_N", 0)
            reference = verify.purity_report(p)
        assert table == reference
        assert table.passed != fault and table.fail_count == fault


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(verify, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, name, counted)
    return calls


@pytest.mark.parametrize("n", [7, 8])
def test_the_table_serves_up_to_seven_strands_and_the_reference_above(monkeypatch, n):
    tables = _count_calls(monkeypatch, "PermutationTable")
    walks = _count_calls(monkeypatch, "word_permutation")
    p = pres.symmetric_presentation(n)
    report = verify.purity_report(p.with_relator("FAULT", parse_word("d1 d2")))
    assert report.fail_count == 1
    assert [r.witness for r in report.records if not r.passed] == ["(1 2 3)"]
    if n == 7:
        assert (len(tables), len(walks)) == (1, 0)
    else:
        assert (len(tables), len(walks)) == (0, len(report.records))
