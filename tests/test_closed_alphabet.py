"""A command holds only what it reads.

``RelatorFamily.alphabet`` is stated in closed form from the strand
bases, so building a presentation spells no image table; ``h1`` reads
the finite relators of its presentation without building another one.
``Presentation`` reads a family's letters in ``Gen.sort_key`` order only up
to the first one that is not a generator, and names that one.
"""

import random

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
from braidhomotopy.words import Gen, symbol


def _alphabet_from_images(fam):
    """``RelatorFamily.alphabet`` as it was: the letters of every strand's image table."""
    letters = set().union(*(rep for image in fam._images.values() for rep in image.values()))
    return {symbol(c) for c in {abs(c) for c in letters}}


FAMILIES = [(kind, n, g, strand) for kind in ("LH", "HN", "LH1") for n in range(1, 9)
            for g in range(4) for strand in ([0] if kind == "HN" else range(1, n + 1))]


def test_the_closed_form_is_the_image_table_alphabet_on_every_small_family():
    assert len(FAMILIES) == 320
    for kind, n, g, strand in FAMILIES:
        fam = RelatorFamily(kind, n, g, strand, 1)
        alphabet = fam.alphabet()
        assert "_images" not in fam.__dict__
        assert alphabet == _alphabet_from_images(fam), (kind, n, g, strand)


def test_a_quotient_on_256_strands_spells_no_image_table(monkeypatch):
    calls = []
    real = presentations.image_table

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(presentations, "image_table", spy)
    p = homotopy_quotient(surface_braid_presentation(256, 1), 1)
    assert calls == [] and "_images" not in p.families[-1].__dict__


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
