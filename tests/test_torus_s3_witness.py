"""A map to S_3 that the emitted torus relators allow and Bellingeri's do not.

Bellingeri's presentation of B_n(Σ_g) (J. Algebra 2004, Thm 1.1) has
a σ1⁻¹ a σ1⁻¹ = σ1⁻¹ a σ1⁻¹ a for every loop a.  ``surface -n 2 -g 1``
emits R3, R4[r=2,s=1] and R5[r=1], none of which gives that relation for
a_{1,1}; the map s1 ↦ (2 3), a1.1 ↦ (1 2), a1.2 ↦ 1 to S_3 sends the three
emitted relators to the identity and Bellingeri's a_{1,1} relation to a
3-cycle, so that relation does not follow from them.

This pins the group the constructor emits today.  A fix of the torus
presentations (ROADMAP item 3) adds relations, and must update this test.
"""

from braidhomotopy.presentations import surface_braid_presentation
from braidhomotopy.words import parse_word, symbol

IDENTITY = (1, 2, 3)
IMAGES = {"s1": (1, 3, 2), "a1.1": (2, 1, 3), "a1.2": IDENTITY}  # p[k - 1] is k's image
BELLINGERI_A11 = "a1.1 s1^-1 a1.1 s1^-1 a1.1^-1 s1 a1.1^-1 s1"


def _image(codes):
    """The image of a word in S_3, its letters applied left to right."""
    point_of = list(IDENTITY)
    for c in codes:
        p = IMAGES[str(symbol(abs(c)))]
        if c < 0:
            p = tuple(p.index(k) + 1 for k in IDENTITY)
        point_of = [p[k - 1] for k in point_of]
    return tuple(point_of)


def test_the_map_sends_every_emitted_relator_to_the_identity():
    p = surface_braid_presentation(2, 1)
    assert p.labels == ("R3", "R4[r=2,s=1]", "R5[r=1]")
    assert sorted(map(str, p.generators)) == sorted(IMAGES)
    assert [_image(rel.codes) for rel in p.relators] == [IDENTITY] * 3


def test_the_map_sends_bellingeris_a11_relation_to_a_three_cycle():
    got = _image(parse_word(BELLINGERI_A11, 2, 1).codes)
    assert got != IDENTITY and all(got[k - 1] != k for k in IDENTITY)
    assert _image(parse_word(" ".join([BELLINGERI_A11] * 3), 2, 1).codes) == IDENTITY
