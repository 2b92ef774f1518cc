"""A command holds only what it reads.

``RelatorFamily.alphabet`` is stated in closed form from the strand
bases, so building a presentation spells no image table; ``h1`` reads
the finite relators of its presentation without building another one.
"""

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
from braidhomotopy.words import symbol


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
