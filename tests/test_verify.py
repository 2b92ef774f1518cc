import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import braidhomotopy

from braidhomotopy.presentations import (
    goldsmith_presentation,
    homotopy_generalized_presentation,
    homotopy_quotient,
    pure_homotopy_presentation,
    surface_braid_presentation,
    symmetric_presentation,
)
from braidhomotopy.verify import (
    AbelianInvariants,
    Report,
    CheckRecord,
    abelianized_matrix,
    h1,
    identity_check,
    loop_expansion_comparison,
    parse_invariants,
    purity_report,
    smith_normal_form,
)
from braidhomotopy.words import parse_word


# --- abelianized matrix ----------------------------------------------------

def test_r2_row():
    p = surface_braid_presentation(3, 1)
    idx = p.labels.index("R2[i=1]")
    row = abelianized_matrix(p)[idx]
    cols = {str(g): v for g, v in zip(p.generators, row)}
    assert cols == {"s1": 1, "s2": -1, "a1.1": 0, "a1.2": 0}


def test_lh_rows_vanish():
    p = homotopy_generalized_presentation(3, 1, True, 1)
    mat = abelianized_matrix(p)
    for row in mat[len(p.relators):]:
        assert all(v == 0 for v in row)


def test_r3_row():
    p = surface_braid_presentation(3, 1)
    idx = p.labels.index("R3")
    row = abelianized_matrix(p)[idx]
    cols = {str(g): v for g, v in zip(p.generators, row)}
    assert cols["a1.1"] == 0 and cols["a1.2"] == 0
    assert cols["s1"] + cols["s2"] == -4


# --- smith normal form -----------------------------------------------------

def test_snf_zero_matrix():
    assert smith_normal_form([[0, 0, 0]], 3) == AbelianInvariants(3, ())


def test_snf_diag2():
    assert smith_normal_form([[2]]) == AbelianInvariants(0, (2,))


def test_snf_symmetric_group():
    assert h1(symmetric_presentation(3)) == AbelianInvariants(0, (2,))


def test_snf_row_col_order_invariance():
    rng = random.Random(23)
    base = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    expected = smith_normal_form(base)
    for _ in range(10):
        rows = base[:]
        rng.shuffle(rows)
        cols = list(range(3))
        rng.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in rows]
        assert smith_normal_form(shuffled) == expected


def test_snf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(31)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        mine = smith_normal_form(mat, cols)
        snf = sympy_snf(sympy.Matrix(mat))
        diag = [abs(snf[i, i]) for i in range(min(rows, cols))
                if i < snf.rows and i < snf.cols]
        nonzero = [d for d in diag if d]
        torsion = tuple(d for d in nonzero if d > 1)
        assert mine == AbelianInvariants(cols - len(nonzero), torsion)


def test_snf_against_sympy_up_to_8x8_with_large_entries():
    # Integer elimination can let entries grow without bound, and matrices up
    # to 8x8 with |x| <= 10^6 are enough to show it.  The SNF runs in a child
    # process under a timeout, so a hang fails the test instead of stalling
    # the suite.
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(47)
    cases = []
    for _ in range(200):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        hi, density = rng.choice((9, 10**3, 10**6)), rng.random()
        cases.append((cols, [[rng.randint(-hi, hi) if rng.random() < density else 0
                              for _ in range(cols)] for _ in range(rows)]))
    script = ("import json, sys\n"
              "from braidhomotopy.verify import smith_normal_form\n"
              "for cols, mat in json.load(sys.stdin):\n"
              "    print(smith_normal_form(mat, cols))\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(braidhomotopy.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], input=json.dumps(cases),
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(cases)
    for (cols, mat), line in zip(cases, lines):
        snf = sympy_snf(sympy.Matrix(mat))
        nonzero = [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i]]
        expected = AbelianInvariants(cols - len(nonzero), tuple(d for d in nonzero if d > 1))
        assert parse_invariants(line) == expected, mat


def test_invariant_rendering():
    assert str(AbelianInvariants(2, (2,))) == "Z^2 + Z/2"
    assert str(AbelianInvariants(0, ())) == "0"
    assert str(AbelianInvariants(1, ())) == "Z"
    assert parse_invariants("Z^2 + Z/2") == AbelianInvariants(2, (2,))
    assert parse_invariants("0") == AbelianInvariants(0, ())


# --- h1 suite ---------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("g", [1, 2])
def test_h1_homotopy(n, g):
    expected = AbelianInvariants(2 * g, (2,))
    for bound in (0, 1):
        for closed in (True, False):
            assert h1(homotopy_generalized_presentation(n, g, closed, bound)) == expected
    assert h1(surface_braid_presentation(n, g)) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_h1_goldsmith(n):
    assert h1(goldsmith_presentation(n, 1)) == AbelianInvariants(1, ())


@pytest.mark.parametrize("n,g", [(1, 1), (2, 1), (3, 1), (2, 2)])
def test_h1_pure(n, g):
    assert h1(pure_homotopy_presentation(n, g, True, 1)) == AbelianInvariants(2 * g * n, ())


def test_h1_quotient_equals_surface():
    for bound in (0, 1, 2):
        p = surface_braid_presentation(3, 1)
        assert h1(homotopy_quotient(p, bound)) == h1(p)


# --- purity -----------------------------------------------------------------

def test_purity_homotopy_passes():
    rep = purity_report(homotopy_generalized_presentation(3, 1, True, 2))
    assert rep.passed and rep.fail_count == 0


def test_purity_symmetric_passes():
    assert purity_report(symmetric_presentation(5)).passed


def test_purity_fault_witness():
    p = homotopy_generalized_presentation(3, 1, True, 0)
    bad = p.with_relator("FAULT", parse_word("s1", 3, 1))
    rep = purity_report(bad)
    assert not rep.passed
    failing = [r for r in rep.records if not r.passed]
    assert len(failing) == 1
    assert failing[0].record_id == "FAULT" and failing[0].witness == "(1 2)"


def test_purity_stable_under_bound_increase():
    for bound in (0, 1, 2):
        rep = purity_report(homotopy_generalized_presentation(3, 1, True, bound))
        assert rep.passed


# --- identity checks --------------------------------------------------------

def test_eq31_all_pairs():
    rep = identity_check("eq31", 6)
    assert rep.passed
    assert len(rep.records) == 2 * 15  # free + handle per pair


def test_eq31_fault_detected():
    rep = identity_check("eq31", 3, fault=True)
    assert not rep.passed


def test_eq32_small():
    assert identity_check("eq32", 4, 1, 2).passed
    assert identity_check("eq32", 2, 2, 1).passed


def test_eq32_fault_detected():
    rep = identity_check("eq32", 3, 1, 1, fault=True)
    assert not rep.passed and rep.fail_count == len(rep.records)


def test_transport_lands_in_strand_one_basis():
    for n, g in [(3, 1), (4, 2)]:
        assert identity_check("lh_free_identity", n, g).passed


def test_transport_fault_detected():
    rep = identity_check("lh_free_identity", 3, 1, fault=True)
    assert not rep.passed


def test_unknown_kind():
    with pytest.raises(ValueError):
        identity_check("eq99", 3)


def test_loop_expansion_comparison_free_equal():
    for n, g in [(2, 1), (3, 2), (4, 3)]:
        assert loop_expansion_comparison(n, g).passed


# --- report container -------------------------------------------------------

def test_report_sorts_records():
    records = [CheckRecord("b", "o", True), CheckRecord("a", "o", False, "w")]
    rep = Report.build("t", records)
    assert [r.record_id for r in rep.records] == ["a", "b"]
    assert not rep.passed and rep.fail_count == 1


def test_report_serialization():
    rep = Report.build("demo", [CheckRecord("r1", "free", True)])
    assert "PASS" in rep.to_text()
    assert '"passed": true' in rep.to_json()


# --- cross-family consistency: expanded relators die in the right lattice ---

def _expand_to_surface_letters(word, n, g):
    from braidhomotopy.presentations import expand_a, expand_t
    from braidhomotopy.words import Word, concat_all, invert
    parts = []
    for gen, e in word.letters:
        rep = expand_a(gen.i, gen.j, n, g) if gen.kind == "a" else expand_t(gen.i, gen.j, n, g)
        parts.append(rep if e == 1 else invert(rep))
    return concat_all(parts) if parts else Word((), (n, g))


def _exponent_row(word, generators):
    idx = {gen: c for c, gen in enumerate(generators)}
    row = [0] * len(generators)
    for gen, e in word.letters:
        row[idx[gen]] += e
    return row


@pytest.mark.parametrize("n,g", [(2, 1), (3, 1), (2, 2)])
def test_pure_relators_abelianize_into_surface_lattice(n, g):
    # every pure string-link relator, pushed down to crossing/loop letters,
    # must be an abelianized consequence of the surface relations: appending
    # its exponent row to the surface matrix cannot move the invariants
    from braidhomotopy.presentations import pure_homotopy_presentation, surface_braid_presentation
    surface = surface_braid_presentation(n, g)
    base_matrix = abelianized_matrix(surface)
    base = smith_normal_form(base_matrix, len(surface.generators))
    pure = pure_homotopy_presentation(n, g, True, 1)
    for label, rel in pure.labeled_relators():
        expanded = _expand_to_surface_letters(rel, n, g)
        row = _exponent_row(expanded, surface.generators)
        grown = smith_normal_form(base_matrix + [row], len(surface.generators))
        assert grown == base, (label, row)


def test_lattice_check_is_not_vacuous():
    from braidhomotopy.presentations import surface_braid_presentation
    from braidhomotopy.words import gen_word, loop
    surface = surface_braid_presentation(2, 1)
    base_matrix = abelianized_matrix(surface)
    base = smith_normal_form(base_matrix, len(surface.generators))
    row = _exponent_row(gen_word(loop(1, 1), 2, 1), surface.generators)
    assert smith_normal_form(base_matrix + [row], len(surface.generators)) != base


def test_pure_lh1_instances_are_reduced_free_trivial():
    # the per-strand self-commutation relators are exactly the reduced-free
    # kernel shape, so the Magnus oracle must kill every emitted instance
    from braidhomotopy.magnus import is_rf_trivial
    from braidhomotopy.presentations import pure_homotopy_presentation
    p = pure_homotopy_presentation(3, 1, True, 1)
    count = 0
    for fam in p.families:
        for _, rel in fam.instances():
            assert is_rf_trivial(rel, list(p.generators))
            count += 1
    assert count > 0
