"""Differential test of the relator-family stream.

The oracle rebuilds every family instance from scratch with public word
operations: shortlex enumeration of the conjugator h, letter-by-letter
substitution of the expansions, then ``commutator(t, conjugate(t, hw))``.
The stream must yield the same labels and letters in the same order.
"""

import itertools
from dataclasses import replace

import pytest

from braidhomotopy.presentations import RelatorFamily, expand_a, expand_t
from braidhomotopy.words import (
    band,
    commutator,
    concat_all,
    conjugate,
    enumerate_shortlex,
    format_word,
    free_reduce,
    gen_word,
    invert,
)


def _expand(h, n, g):
    parts = []
    for gen, e in h.letters:
        rep = expand_a(gen.i, gen.j, n, g) if gen.kind == "a" else expand_t(gen.i, gen.j, n, g)
        parts.append(rep if e == 1 else invert(rep))
    return concat_all(parts)


def naive_instances(fam, bound):
    n, g = fam.n, fam.g
    strands = range(1, n) if fam.kind == "HN" else [fam.strand]
    for i in strands:
        basis = fam.strand_basis(i)
        for j in range(i + 1, n + 1):
            t = gen_word(band(i, j), n, g) if fam.kind == "LH1" else expand_t(i, j, n, g)
            for h in enumerate_shortlex(basis, bound, n, g):
                hw = h if fam.kind == "LH1" else _expand(h, n, g)
                rel = commutator(t, conjugate(t, hw))
                # the same element, reduced letter by letter from the raw product
                raw = [t, hw, t, invert(hw), invert(t), hw, invert(t), invert(hw)]
                assert free_reduce([let for w in raw for let in w.letters], n, g) == rel
                if not rel:
                    continue
                tag = format_word(h).replace(" ", ",") or "1"
                if fam.kind == "LH":
                    yield f"LH[j={j},h={tag}]", rel.letters
                else:
                    yield f"{fam.kind}[i={i},j={j},h={tag}]", rel.letters


def _families():
    for n, g in itertools.product(range(2, 5), range(0, 3)):
        yield RelatorFamily("LH", n, g, 1, 2)
        yield RelatorFamily("HN", n, g, 0, 2)
        for strand in range(1, n):
            yield RelatorFamily("LH1", n, g, strand, 2)


@pytest.mark.parametrize("fam", list(_families()),
                         ids=lambda f: f"{f.kind}-n{f.n}-g{f.g}-i{f.strand}")
def test_stream_matches_naive_construction(fam):
    for bound in range(0, 3):
        got = [(label, rel.letters) for label, rel in replace(fam, bound=bound).instances()]
        assert got == list(naive_instances(fam, bound))
    assert [label for label, _ in fam.instances()] == \
        [label for label, _ in naive_instances(fam, fam.bound)]


@pytest.mark.parametrize("fam", [RelatorFamily("LH", 3, 1, 1, 3),
                                 RelatorFamily("HN", 3, 1, 0, 3),
                                 RelatorFamily("LH1", 3, 1, 1, 3)], ids=lambda f: f.kind)
def test_stream_matches_naive_construction_at_length_three(fam):
    # conjugators of length 3 extend a prefix that itself extends a prefix
    got = [(label, rel.letters) for label, rel in fam.instances()]
    assert got == list(naive_instances(fam, 3))


def test_stream_words_carry_the_family_context():
    fam = RelatorFamily("LH", 4, 2, 1, 1)
    assert {rel.context for _, rel in fam.instances()} == {(4, 2)}


def test_unknown_family_kind_rejected():
    with pytest.raises(ValueError):
        RelatorFamily("LQ", 3, 1, 1, 1)
