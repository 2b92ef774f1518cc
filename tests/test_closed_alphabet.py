"""A command holds only what it reads.

``RelatorFamily.alphabet`` is stated in closed form from the strand
bases, so building a presentation spells no image table; ``h1`` reads
the finite relators of its presentation without building another one.
``Presentation`` reads a family's letters in ``Gen.sort_key`` order only up
to the first one that is not a generator, and names that one.
``RelatorFamily.check_cap`` counts a strand's conjugators from the basis
size 2g + n - s, without building the basis.
"""

import random
import time

import pytest

from braidhomotopy import presentations
from braidhomotopy.presentations import (
    Presentation,
    RelatorFamily,
    homotopy_generalized_presentation,
    homotopy_quotient,
    surface_braid_presentation,
)
from braidhomotopy.verify import h1
from braidhomotopy.words import Gen, ResourceLimitError, code, image_table, symbol


def _alphabet_from_images(fam):
    """``RelatorFamily.alphabet`` as it was: the letters of every strand's image table."""
    images = (image_table(map(code, fam.strand_basis(i)), fam._spell)[0] for i in fam._strands())
    letters = set().union(*(rep for image in images for rep in image.values()))
    return {symbol(c) for c in {abs(c) for c in letters}}


FAMILIES = [(kind, n, g, strand) for kind in ("LH", "HN", "LH1") for n in range(1, 9)
            for g in range(4) for strand in ([0] if kind == "HN" else range(1, n + 1))]


def test_the_closed_form_is_the_image_table_alphabet_on_every_small_family(monkeypatch):
    assert len(FAMILIES) == 320
    calls = []  # the reference reads ``words.image_table``, which is not spied on
    monkeypatch.setattr(presentations, "image_table", lambda *args: calls.append(args))
    for kind, n, g, strand in FAMILIES:
        fam = RelatorFamily(kind, n, g, strand, 1)
        alphabet = fam.alphabet()
        assert calls == []
        assert alphabet == _alphabet_from_images(fam), (kind, n, g, strand)


def test_a_quotient_on_256_strands_spells_no_image_table(monkeypatch):
    calls = []
    real = presentations.image_table

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(presentations, "image_table", spy)
    p = homotopy_quotient(surface_braid_presentation(256, 1), 1)
    assert calls == []


@pytest.mark.parametrize("build", [
    lambda: homotopy_generalized_presentation(4, 1, True, 2),
    lambda: homotopy_quotient(surface_braid_presentation(3, 1), 3),
])
def test_h1_reads_the_finite_relators_alone(monkeypatch, build):
    p = build()
    expected = h1(p)
    built = []
    real = Presentation.__post_init__
    monkeypatch.setattr(Presentation, "__post_init__", lambda self: built.append(real(self)))
    monkeypatch.setattr(RelatorFamily, "instances", None)  # streaming a family would fail
    assert h1(p) == expected
    assert built == []


def test_a_quotient_on_256_strands_builds_one_gen_per_letter(monkeypatch):
    p = surface_braid_presentation(256, 1)
    built = []
    real = Gen.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Gen, "__init__", spy)
    homotopy_quotient(p, 1)
    # 255 crossings and 2 loops; spelling each strand's letters built 255 x 257 = 65,535
    assert len(built) <= 257


def _old_refusal(fam, generators):
    """The family rule as it was: the least missing letter by ``Gen.sort_key``."""
    missing = _alphabet_from_images(fam).difference(generators)
    return min(missing, key=Gen.sort_key) if missing else None


def test_the_refusal_names_the_least_missing_letter_on_every_small_family():
    rng = random.Random(2024)
    for kind, n, g, strand in FAMILIES:
        fam = RelatorFamily(kind, n, g, strand, 1)
        letters = list(fam._letters())
        assert letters == sorted(set(letters), key=Gen.sort_key), (kind, n, g, strand)
        for _ in range(4):
            gens = tuple(gen for gen in letters if rng.random() < 0.7)
            bad = _old_refusal(fam, gens)
            if bad is None:
                Presentation("custom", n, g, None, 1, gens, (), (), (fam,))
                continue
            with pytest.raises(ValueError) as exc:
                Presentation("custom", n, g, None, 1, gens, (), (), (fam,))
            assert str(exc.value) == (f"relator family {kind} (strand {strand}) "
                                      f"uses non-generator {bad}")


def test_check_cap_counts_the_strand_basis_on_every_small_family(monkeypatch):
    # ``check_cap`` states each strand's rank as 2g + n - s; it must be the
    # size of the basis it no longer builds
    ranks = []
    count = presentations._conjugator_count
    monkeypatch.setattr(presentations, "_conjugator_count",
                        lambda rank, bound: ranks.append(rank) or count(rank, bound))
    for kind, n, g, strand in FAMILIES:
        fam = RelatorFamily(kind, n, g, strand, 1)
        ranks.clear()
        fam.check_cap()
        assert ranks == [len(fam.strand_basis(s)) for s in fam._strands()], (kind, n, g, strand)


def test_a_genus_of_a_million_is_refused_without_spelling_its_loops():
    # building the 2 x 10^6 basis letters only to count them took 2.4 s
    fam = RelatorFamily("LH", 2, 10**6, 1, 1)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"^relator family LH \(strand 1\) has more "
                                                 rf"than {presentations.MAX_CONJUGATORS} "):
        fam.check_cap()
    assert time.perf_counter() - start < 0.1
