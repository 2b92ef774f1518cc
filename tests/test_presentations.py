import json

import pytest

from braidhomotopy.perms import is_pure
from braidhomotopy.presentations import (
    RelatorFamily,
    expand_a,
    expand_A_geo,
    expand_A_pure,
    expand_t,
    expand_T_cap,
    goldsmith_presentation,
    homotopy_generalized_presentation,
    homotopy_quotient,
    parse_relator_lines,
    presentation_from_json,
    presentation_to_json,
    presentation_to_text,
    pure_homotopy_presentation,
    surface_braid_presentation,
    symmetric_presentation,
)
from braidhomotopy.words import AlphabetError, Word, format_word, parse_word


def by_label(p):
    return dict(zip(p.labels, p.relators))


# --- expansions ------------------------------------------------------------

def test_expand_t():
    assert format_word(expand_t(1, 2, 3, 1)) == "s1^2"
    assert format_word(expand_t(2, 4, 4, 1)) == "s2 s3^2 s2^-1"
    with pytest.raises(AlphabetError):
        expand_t(2, 2, 4)


def test_expand_a():
    assert format_word(expand_a(1, 2, 3, 1)) == "a1.2"
    assert format_word(expand_a(3, 1, 3, 1)) == "s2^-1 s1^-1 a1.1 s1^-1 s2^-1"
    assert format_word(expand_a(2, 2, 3, 1)) == "s1 a1.2 s1"
    with pytest.raises(AlphabetError):
        expand_a(4, 1, 3, 1)


def test_expand_T_cap():
    assert expand_T_cap(1, 1, 3, 1) == Word((), (3, 1))
    assert format_word(expand_T_cap(1, 3, 3, 1)) == "t1.3 t1.2"


def test_expand_A_words():
    assert format_word(expand_A_geo(1, 2, 1)) == "s1^-1 a1.2^-1 s1^-1"
    assert format_word(expand_A_pure(2, 1, 2, 2)) == "a2.2^-1 a2.3^-1 a2.4^-1"
    with pytest.raises(AlphabetError):
        expand_A_geo(2, 2, 1)


# --- surface braid group ---------------------------------------------------

def test_surface_3_1_counts():
    p = surface_braid_presentation(3, 1)
    assert len(p.generators) == 4
    assert len(p.relators) == 6
    kinds = [label.split("[")[0] for label in p.labels]
    assert kinds.count("R2") == 1 and kinds.count("R3") == 1
    assert kinds.count("R4") == 1 and kinds.count("R5") == 1
    assert kinds.count("R6") == 2 and kinds.count("R1") == 0


def test_surface_single_strand():
    p = surface_braid_presentation(1, 1)
    assert [str(g) for g in p.generators] == ["a1.1", "a1.2"]
    assert [format_word(w) for w in p.relators] == ["a1.1 a1.2 a1.1^-1 a1.2^-1"]


def test_surface_two_strands_r3():
    p = surface_braid_presentation(2, 1)
    assert format_word(by_label(p)["R3"]) == "a1.1 a1.2 a1.1^-1 a1.2^-1 s1^-2"


def test_surface_rejects_disk():
    with pytest.raises(ValueError):
        surface_braid_presentation(3, 0)


# --- link-homotopy quotient ------------------------------------------------

def test_homotopy_generator_count():
    p = homotopy_generalized_presentation(3, 1, True, 0)
    assert len(p.generators) == 2 * 1 + (3 - 1)


def test_homotopy_punctured_drops_r3():
    closed = homotopy_generalized_presentation(3, 1, True, 1)
    punctured = homotopy_generalized_presentation(3, 1, False, 1)
    assert "R3" in closed.labels and "R3" not in punctured.labels
    assert len(closed.relators) == len(punctured.relators) + 1


def test_lh_skips_self_conjugators():
    labels = [l for l, _ in RelatorFamily("LH", 2, 1, 1, 2).instances()]
    assert all("h=t1.2" not in l.replace("^-1", "") or True for l in labels)
    for l in labels:
        assert "h=1]" not in l
    # h = eps and h = t1.2^k give freely trivial relators: none emitted
    banned = {"LH[j=2,h=t1.2]", "LH[j=2,h=t1.2^-1]", "LH[j=2,h=1]",
              "LH[j=2,h=t1.2^2]", "LH[j=2,h=t1.2^-2]"}
    assert banned.isdisjoint(labels)


def test_lh_bound_zero_empty():
    assert list(RelatorFamily("LH", 2, 1, 1, 0).instances()) == []


def test_lh_instance_nonempty():
    inst = dict(RelatorFamily("LH", 3, 1, 1, 1).instances())
    assert len(inst["LH[j=2,h=t1.3]"]) > 0


def test_lh_relators_all_pure():
    for n, g in [(3, 1), (4, 2)]:
        for _, rel in RelatorFamily("LH", n, g, 1, 1).instances():
            assert is_pure(rel, n)


def test_negative_bound_rejected():
    with pytest.raises(ValueError):
        homotopy_generalized_presentation(3, 1, True, -1)


def test_negative_bound_rejected_where_it_is_stored():
    with pytest.raises(ValueError, match="lh_bound must be >= 0"):
        RelatorFamily("HN", 3, 1, 0, -1)
    with pytest.raises(ValueError, match="lh_bound must be >= 0"):
        pure_homotopy_presentation(1, 2, True, -1)  # no family: the presentation's own bound
    doc = json.loads(presentation_to_json(pure_homotopy_presentation(3, 1, True, 1)))
    for key, holder in (("bound", doc["families"][0]), ("lh_bound", doc)):
        holder[key] = -1
        with pytest.raises(ValueError, match="lh_bound must be >= 0"):
            presentation_from_json(json.dumps(doc))
        holder[key] = 1


def test_with_auxiliary_form():
    p = homotopy_generalized_presentation(3, 1, True, 1, with_auxiliary=True)
    names = {str(g) for g in p.generators}
    assert {"a2.1", "a3.2", "t1.2", "t2.3", "s1", "s2"} <= names
    labels = {l.split("[")[0] for l in p.labels}
    assert {"R7", "R8", "R9"} <= labels
    # auxiliary LH instances stay over band letters
    for label, rel in p.families[0].instances():
        assert all(gen.kind in ("a", "t") for gen, _ in rel.letters)


# --- goldsmith -------------------------------------------------------------

def test_goldsmith_two_strands_trivial():
    p = goldsmith_presentation(2, 4)
    assert len(p.generators) == 1
    assert len([w for _, w in p.iter_relators()]) == 0


def test_goldsmith_three_strands():
    p = goldsmith_presentation(3, 1)
    assert len(p.relators) == 1
    labels = [l for l, _ in p.families[0].instances()]
    assert labels == ["LH[j=2,h=t1.3]", "LH[j=2,h=t1.3^-1]",
                      "LH[j=3,h=t1.2]", "LH[j=3,h=t1.2^-1]"]


def test_goldsmith_rejects_single_strand():
    with pytest.raises(ValueError):
        goldsmith_presentation(1, 0)


def test_goldsmith_is_aletterless_homotopy_machinery():
    n, bound = 4, 2
    gold = {w.letters for _, w in goldsmith_presentation(n, bound).labeled_relators()}
    hom = homotopy_generalized_presentation(n, 1, True, bound)
    kept = set()
    for label, rel in hom.labeled_relators():
        if label == "R3" or label.startswith(("R4", "R5", "R6")):
            continue
        if any(gen.kind == "a" for gen, _ in rel.letters):
            continue
        kept.add(rel.letters)
    assert kept == gold


# --- pure string links -----------------------------------------------------

def test_pure_generator_schema():
    p = pure_homotopy_presentation(2, 1, True, 0)
    assert len(p.generators) == 2 * 1 * 2 + 1
    p = pure_homotopy_presentation(3, 2, True, 0)
    assert len(p.generators) == 2 * 2 * 3 + 3


def test_pure_pr1_instance():
    p = pure_homotopy_presentation(2, 1, True, 0)
    assert format_word(by_label(p)["PR1"]) == "a2.1^-1 a2.2^-1 a2.1 a2.2 t1.2^-1"


def test_pure_punctured_drops_pr1():
    closed = pure_homotopy_presentation(2, 1, True, 0)
    punctured = pure_homotopy_presentation(2, 1, False, 0)
    assert set(closed.labels) - set(punctured.labels) == {"PR1"}


def test_pure_single_strand_closed_is_surface_group():
    p = pure_homotopy_presentation(1, 1, True, 0)
    assert [format_word(w) for w in p.relators] == ["a1.1^-1 a1.2^-1 a1.1 a1.2"]
    punctured = pure_homotopy_presentation(1, 1, False, 0)
    assert punctured.relators == ()


def test_pure_strand_bases():
    fams = pure_homotopy_presentation(3, 1, True, 1).families
    sizes = {fam.strand: len(fam.strand_basis(fam.strand)) for fam in fams}
    assert sizes == {1: 4, 2: 3}


# --- symmetric -------------------------------------------------------------

def test_symmetric_small():
    assert [format_word(w) for w in symmetric_presentation(2).relators] == ["d1^2"]
    p3 = symmetric_presentation(3)
    kinds = [l.split("[")[0] for l in p3.labels]
    assert kinds.count("SR1") == 0 and kinds.count("SR2") == 1 and kinds.count("SR3") == 2
    empty = symmetric_presentation(1)
    assert empty.generators == () and empty.relators == ()


# --- quotient and streams --------------------------------------------------

def test_quotient_bound_zero_keeps_relators():
    p = surface_braid_presentation(3, 1)
    q = homotopy_quotient(p, 0)
    assert [w for _, w in q.iter_relators()] == [w for _, w in p.iter_relators()]


def test_quotient_requires_surface_family():
    with pytest.raises(ValueError):
        homotopy_quotient(symmetric_presentation(3), 1)


def test_hn_covers_both_strands():
    labels = [l for l, _ in RelatorFamily("HN", 3, 1, 0, 1).instances()]
    strands = {l.split("i=")[1].split(",")[0] for l in labels}
    assert strands == {"1", "2"}


def test_hn_generators_pure():
    for _, rel in RelatorFamily("HN", 3, 1, 0, 1).instances():
        assert is_pure(rel, 3)


def test_quotient_abelianization_unchanged():
    from braidhomotopy.verify import h1
    p = surface_braid_presentation(3, 1)
    assert h1(homotopy_quotient(p, 2)) == h1(p)


def test_purity_at_wider_testable_range():
    from braidhomotopy.verify import purity_report
    p = homotopy_generalized_presentation(6, 3, True, 1)
    assert purity_report(p).passed


def test_family_relators_use_only_generators():
    p = homotopy_generalized_presentation(3, 1, True, 2)
    gens = set(p.generators)
    for _, rel in p.labeled_relators():
        assert {gen for gen, _ in rel.letters} <= gens


def test_eq31_transport_is_free_identity():
    # alpha t_{i,j} alpha^-1 = t_{1,j} holds on the nose after expansion
    for n in range(2, 7):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                alpha = parse_word(" ".join(f"s{k}" for k in range(1, i)), n)
                lhs = alpha * expand_t(i, j, n) * alpha.inverse()
                assert lhs == expand_t(1, j, n)


# --- serialization ---------------------------------------------------------

def test_json_roundtrip_bit_exact():
    for p in [surface_braid_presentation(3, 2),
              homotopy_generalized_presentation(3, 1, True, 2),
              goldsmith_presentation(4, 1),
              pure_homotopy_presentation(2, 1, False, 1),
              symmetric_presentation(4),
              homotopy_quotient(surface_braid_presentation(2, 1), 1)]:
        doc = presentation_to_json(p)
        back = presentation_from_json(doc)
        assert back == p
        assert presentation_to_json(back) == doc


def test_text_roundtrip():
    p = surface_braid_presentation(3, 1)
    text = presentation_to_text(p)
    words = parse_relator_lines(text, 3, 1)
    assert words == list(p.relators)
    assert presentation_to_text(p) == text
