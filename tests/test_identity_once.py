"""Each identity check computes each distinct identity once.

``eq32``'s identity for strand i and conjugator h does not depend on j, so
it is certified once per (i, h); ``eq31`` and ``transport`` build
alpha_i = s_1 .. s_{i-1} once per strand; ``transport`` takes one
conjugation step per basis letter and substitutes the strand before's
words.  The references below are the per-pair loops that did each again
for every record; the reports must match them byte for byte.
"""

import itertools

import pytest

from braidhomotopy import extension, presentations, verify
from braidhomotopy.extension import sigma_conj_word
from braidhomotopy.handles import is_trivial_braid
from braidhomotopy.presentations import (
    RelatorFamily,
    _conjugator_count,
    expand_gen,
    expand_t,
    expand_word,
)
from braidhomotopy.verify import CheckRecord, Report, _free_equality, identity_check
from braidhomotopy.words import (
    Word,
    atom,
    commutator,
    concat,
    conjugate,
    format_word,
    gen_word,
    invert,
    sigma,
    symbol,
)


def _alpha(i, n, g, offset=0):
    top = min(i - 1 + offset, n - 1)
    return Word(tuple((sigma(k), 1) for k in range(1, top + 1)), (n, g))


def _reference_eq31(n, g, offset=0):
    records = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rid, t1j = f"eq31[i={i},j={j}]", expand_t(1, j, n, g)
            transported = conjugate(expand_t(i, j, n, g), _alpha(i, n, g, offset))
            free = _free_equality(rid, transported, t1j)
            ok = is_trivial_braid(concat(transported, invert(t1j)))
            records += [free, CheckRecord(rid, "handle", ok, "" if ok else free.witness)]
    return Report.build(f"eq31 n={n}", records)


def _reference_eq32(n, g, bound, fault=False):
    x = gen_word(atom("x"))
    hs = RelatorFamily("LH", n, g, 1, bound).conjugators(1)
    records = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            alpha = _alpha(i, n, g)
            t1j = conjugate(x, alpha)
            for tag, h_codes, _ in hs:
                hw = Word.from_codes(h_codes, (n, g))
                lhs = commutator(t1j, conjugate(t1j, hw))
                gw = conjugate(hw, invert(alpha))
                if fault:
                    gw = concat(gw, gen_word(sigma(1), n, g))
                rhs = conjugate(commutator(x, conjugate(x, gw)), alpha)
                records.append(_free_equality(f"eq32[i={i},j={j},h={tag}]", lhs, rhs))
    return Report.build(f"eq32 n={n} g={g} bound={bound}", records)


def _reference_transport(n, g, fault=False):
    records = []
    for i in range(2, n + 1):
        for b in RelatorFamily("LH1", n, g, i, 0).strand_basis(i):
            word = gen_word(b, n, g)
            for k in range(i - 1, 0, -1):
                word = sigma_conj_word(word, k, n, g, wrong_parity=fault)
            ok = (expand_word(word, n, g) == conjugate(expand_gen(b, n, g), _alpha(i, n, g))
                  and all(symbol(c).i == 1 for c in word.codes if symbol(c).kind in ("a", "t")))
            records.append(CheckRecord(f"transport[i={i},b={b}]", "free", ok,
                                       "" if ok else format_word(word)))
    return Report.build(f"lh transport n={n} g={g}", records)


GRID = list(itertools.product(range(2, 7), range(0, 3), (False, True)))


def _same(report, reference):
    assert report == reference  # title and every record, in order
    assert (report.to_text(), report.to_json()) == (reference.to_text(), reference.to_json())


@pytest.mark.parametrize("n,g,fault", GRID)
def test_eq31_matches_the_per_pair_loop(n, g, fault):
    _same(identity_check("eq31", n, g, fault=fault), _reference_eq31(n, g, int(fault)))


@pytest.mark.parametrize("n,g,fault", GRID)
@pytest.mark.parametrize("bound", [0, 1, 2])
def test_eq32_matches_the_per_pair_loop(n, g, fault, bound):
    _same(identity_check("eq32", n, g, bound, fault), _reference_eq32(n, g, bound, fault))


@pytest.mark.parametrize("n,g,fault", [(n, g, fault) for n, g, fault in GRID
                                       if (n > 2 or g > 0) and (g > 0 or not fault)])
def test_transport_matches_the_per_letter_loop(n, g, fault):
    _same(identity_check("lh_free_identity", n, g, fault=fault),
          _reference_transport(n, g, fault))


def _spy(monkeypatch, module, name):
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("n,g,bound", [(2, 1, 2), (4, 0, 2), (5, 1, 1), (6, 2, 1)])
def test_eq32_certifies_each_strand_and_conjugator_once(monkeypatch, n, g, bound):
    calls = _spy(monkeypatch, verify, "_free_equality")
    report = identity_check("eq32", n, g, bound)
    conjugators = _conjugator_count(2 * g + n - 1, bound)
    assert len(calls) == (n - 1) * conjugators
    assert len(report.records) == n * (n - 1) // 2 * conjugators


@pytest.mark.parametrize("kind,n,g", [("eq31", 5, 1), ("eq32", 5, 1), ("eq31", 6, 0),
                                      ("lh_free_identity", 5, 1), ("lh_free_identity", 6, 2)])
@pytest.mark.parametrize("fault", [False, True])
def test_alpha_is_built_once_per_strand(monkeypatch, kind, n, g, fault):
    calls = _spy(monkeypatch, verify, "_alpha")
    identity_check(kind, n, g, 1, fault)
    strands = [args[0] for args in calls]
    assert strands == sorted(set(strands)) and len(strands) <= n


@pytest.mark.parametrize("n,g", [(2, 1), (3, 0), (5, 1), (6, 2)])
def test_transport_takes_one_step_per_basis_letter(monkeypatch, n, g):
    calls = _spy(monkeypatch, extension, "sigma_conj_word")
    assert identity_check("lh_free_identity", n, g).passed
    assert len(calls) == sum(2 * g + n - i for i in range(2, n + 1))


@pytest.mark.parametrize("fault", [False, True])
def test_eq31_fault_is_one_crossing_too_many(monkeypatch, fault):
    calls = _spy(monkeypatch, verify, "_alpha")
    identity_check("eq31", 4, 1, fault=fault)
    assert [args[0] for args in calls] == [i + fault for i in range(1, 4)]


def test_one_push_down_rule_spells_expand_a_and_r7_r8(monkeypatch):
    presentations.expand_a.cache_clear()
    calls = _spy(monkeypatch, presentations, "_push_down")
    try:
        assert str(presentations.expand_a(3, 2, 3, 1)) == "s2 s1 a1.2 s1 s2"
        assert str(presentations.expand_a(2, 1, 3, 1)) == "s1^-1 a1.1 s1^-1"
        pushed = len(calls)
        p = presentations.homotopy_generalized_presentation(3, 1, True, 0, with_auxiliary=True)
        r7_r8 = [label for label in p.labels if label[:2] in ("R7", "R8")]
    finally:
        presentations.expand_a.cache_clear()
    assert pushed == 3
    assert len(calls) - pushed == len(r7_r8) == 4
