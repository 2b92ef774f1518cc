"""Cross-oracle verification: strand-permutation purity of relators,
abelianization through exact Smith normal form, and batch certification
of the defining word identities.

Everything here is exact integer arithmetic; there are no tolerances.
Reports are canonicalized by a sort on the record id, so records may be
produced in any order; eq32's records of one strand and conjugator share
one verdict, since their identity does not depend on j.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

from braidhomotopy.perms import (
    TABLE_MAX_N,
    Permutation,
    PermutationTable,
    to_cycles,
    transposition,
    word_permutation,
)
from braidhomotopy.presentations import (
    MAX_CONJUGATORS,
    Presentation,
    RelatorFamily,
    _check_size,
    _conjugator_count,
    expand_A_geo,
    expand_A_pure,
    expand_gen,
    expand_t,
    expand_word,
)
from braidhomotopy.words import (
    ResourceLimitError,
    Word,
    atom,
    commutator,
    concat,
    conjugate,
    format_word,
    gen_word,
    invert,
    code,
    sigma,
    substitute,
    symbol,
)


@dataclass(frozen=True)
class AbelianInvariants:
    """First homology in divisor-chain form: Z^free_rank + sum Z/d."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0 or any(d < 2 for d in self.torsion):
            raise ValueError(f"invariants need free rank >= 0 and torsion >= 2, got "
                             f"{self.free_rank} and {self.torsion}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError(f"torsion {self.torsion} is not a divisor chain")

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def parse_invariants(text: str) -> AbelianInvariants:
    """Parse the ``Z^r + Z/d`` rendering back into invariants."""
    text = text.strip()
    if text == "0":
        return AbelianInvariants(0, ())
    free, torsion = 0, []
    for part in (x.strip() for x in text.split("+")):
        try:
            if part == "Z":
                free += 1
            elif part.startswith("Z^"):
                free += int(part[2:])
            elif part.startswith("Z/"):
                torsion.append(int(part[2:]))
            else:
                raise ValueError
        except ValueError:  # int()'s own message names no component
            raise ValueError(f"unparseable invariant component {part!r}") from None
    return AbelianInvariants(free, tuple(sorted(torsion)))


@dataclass(frozen=True)
class CheckRecord:
    record_id: str
    oracle: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class Report:
    """Per-relator verdicts plus summary counts; canonical record order."""

    title: str
    records: tuple[CheckRecord, ...]

    @staticmethod
    def build(title: str, records: Sequence[CheckRecord]) -> "Report":
        return Report(title, tuple(sorted(records, key=lambda r: r.record_id)))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def fail_count(self) -> int:
        return sum(1 for r in self.records if not r.passed)

    def to_json(self) -> str:
        import json

        doc = {
            "title": self.title,
            "passed": self.passed,
            "checks": len(self.records),
            "failures": self.fail_count,
            "records": [
                {"id": r.record_id, "oracle": r.oracle, "passed": r.passed,
                 "witness": r.witness}
                for r in self.records
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"# {self.title}: {'PASS' if self.passed else 'FAIL'} "
                 f"({len(self.records)} checks, {self.fail_count} failures)"]
        for r in self.records:
            status = "ok  " if r.passed else "FAIL"
            suffix = f"  witness: {r.witness}" if r.witness and not r.passed else ""
            lines.append(f"{status} {r.record_id} [{r.oracle}]{suffix}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# abelianization


def abelianized_matrix(p: Presentation) -> list[list[int]]:
    """Exponent-sum matrix: a row per relator, families included; a column per generator."""
    column = {code(gen): col for col, gen in enumerate(p.generators)}
    rows = []
    for _, rel in p.iter_relators():
        row = [0] * len(column)
        for c, k in Counter(rel.codes).items():
            row[column[abs(c)]] += k if c > 0 else -k
        rows.append(row)
    return rows


def smith_normal_form(mat: Sequence[Sequence[int]],
                      ncols: int | None = None) -> AbelianInvariants:
    """Invariant factors of the cokernel of an integer matrix.

    Rows are relations, columns generators; the result describes
    Z^ncols / rowspace.  Exact arbitrary-precision arithmetic.

    Least-pivot elimination: pivot on a least nonzero |entry| and clear
    its column, then its row, by floor division.  A nonzero remainder is
    smaller than the pivot and is the next pivot; a cleared cross splits
    off |pivot|.  So each pass lowers the least |entry| or shrinks the
    matrix, and the loop ends.  Then diag(a, b) ~ diag(gcd, lcm)
    exchanges make the diagonal a divisor chain.
    """
    if ncols is None:
        if not mat:
            raise ValueError("empty matrix needs an explicit column count")
        ncols = len(mat[0])
    a = [list(row) for row in mat if any(row)]
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    diagonal = []
    while a := [row for row in a if any(row)]:
        pivot = min(a, key=lambda row: min(map(abs, filter(None, row))))
        p = min(filter(None, pivot), key=abs)
        pj = pivot.index(p)
        for i, row in enumerate(a):
            if row[pj] and row is not pivot:
                q = row[pj] // p
                a[i] = [x - q * y for x, y in zip(row, pivot)]
        if any(row[pj] for row in a if row is not pivot):
            continue
        # with column pj clear, the column operations change the pivot row alone
        pivot[:] = [x % p for x in pivot]
        if any(pivot):
            pivot[pj] = p
            continue
        diagonal.append(abs(p))
        for row in a:
            del row[pj]  # the pivot row, now zero, drops out on the next pass
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            d = math.gcd(diagonal[i], diagonal[j])
            diagonal[i], diagonal[j] = d, diagonal[i] * diagonal[j] // d
    return AbelianInvariants(ncols - len(diagonal), tuple(d for d in diagonal if d > 1))


def h1(p: Presentation) -> AbelianInvariants:
    """Abelianization from the finite relators alone: the families are never
    streamed, since every instance [t, t^h] has zero exponent sums.  So the
    result is that of the untruncated families, whatever their bound."""
    return smith_normal_form(abelianized_matrix(replace(p, families=())), ncols=len(p.generators))


# ---------------------------------------------------------------------------
# relator purity


def plant_purity_fault(p: Presentation) -> Presentation:
    """``p`` plus its first crossing generator as the relator ``FAULT``, which is impure."""
    crossing = next((gen for gen in p.generators if gen.kind == "s"), None)
    if crossing is None:
        raise ValueError("purity fault injection needs a crossing generator")
    return p.with_relator("FAULT", gen_word(crossing, p.n, p.g))


def purity_report(p: Presentation) -> Report:
    """Check that every relator induces the trivial strand permutation.

    Up to ``TABLE_MAX_N`` strands one ``PermutationTable`` walks every
    relator; above it each is walked letter by letter."""
    images = ({atom(f"d{i}"): transposition(p.n, i) for i in range(1, p.n)}
              if p.family == "symmetric" else None)  # the symmetric group's d_i
    walk = (PermutationTable(p.n, images).images if p.n <= TABLE_MAX_N
            else lambda rel: word_permutation(rel, p.n, images).images)
    identity, records = tuple(range(1, p.n + 1)), []
    for label, rel in p.iter_relators():
        got = walk(rel)
        ok = got == identity
        records.append(CheckRecord(label, "permutation", ok,
                                   "" if ok else to_cycles(Permutation(got))))
    return Report.build(f"purity {p.family} n={p.n} g={p.g}", records)


# ---------------------------------------------------------------------------
# identity certification


def _alpha(i: int, n: int, g: int) -> Word:
    return Word(tuple((sigma(k), 1) for k in range(1, i)), (n, g))


DEFAULT_IDENTITY_BOUND = 3  # the conjugator bound of eq32 when none is given


def identity_check(kind: str, n: int, g: int = 1, bound: int | None = None,
                   fault: bool = False) -> Report:
    """Batch-certify a defining identity family.

    kind "eq31": the band transport t_{i,j} = alpha^-1 t_{1,j} alpha, by free
    reduction and by handle reduction of the freely reduced word.
    kind "eq32": the substitution t_{1,j} := alpha x alpha^-1 turns the
    strand-1 self-commutation relator into the conjugated strand-i one
    as a free-group identity, for every conjugator h up to the bound.
    kind "lh_free_identity": conjugation transport of each strand-i
    basis symbol lands in the strand-1 free basis after rewriting.

    ``fault`` injects a deliberate single-site corruption (an off-by-one
    conjugator or a wrong-parity rewrite) so suites can prove the checks
    are not vacuous.
    """
    bound = DEFAULT_IDENTITY_BOUND if bound is None else bound
    if kind not in ("eq31", "eq32", "lh_free_identity"):
        raise ValueError(f"unknown identity kind {kind!r}")
    _check_size("transport" if kind == "lh_free_identity" else kind, n, g, least_n=2)
    if kind == "lh_free_identity" and n == 2 and g == 0:
        raise ValueError("transport needs a strand-i basis letter: n >= 3, or n = 2 and g >= 1")
    if kind == "lh_free_identity" and fault and g == 0:
        raise ValueError("transport fault injection needs a loop letter: g >= 1")
    # a record per strand pair and conjugator over the 2g loops and n - 1 bands of strand 1
    if kind == "eq32" and (math.comb(n, 2) * _conjugator_count(2 * g + n - 1, bound)
                           > MAX_CONJUGATORS):
        raise ResourceLimitError(f"eq32 n={n} g={g} bound={bound} needs more than "
                                 f"{MAX_CONJUGATORS} records")
    if kind == "eq31":
        return _check_eq31(n, g, fault)
    if kind == "eq32":
        return _check_eq32(n, g, bound, fault)
    return _check_lh_transport(n, g, fault)


def _free_equality(record_id: str, lhs: Word, rhs: Word) -> CheckRecord:
    """Free-group equality lhs = rhs; the witness is lhs * rhs^-1 reduced."""
    w = concat(lhs, invert(rhs))
    return CheckRecord(record_id, "free", not w, format_word(w))


def _check_eq31(n: int, g: int, fault: bool = False) -> Report:
    from braidhomotopy.handles import is_trivial_braid

    records = []
    for i in range(1, n):
        alpha = _alpha(i + 1 if fault else i, n, g)  # the fault: one crossing too many
        for j in range(i + 1, n + 1):
            w = concat(conjugate(expand_t(i, j, n, g), alpha), invert(expand_t(1, j, n, g)))
            rid, witness, ok = f"eq31[i={i},j={j}]", format_word(w), is_trivial_braid(w)
            records += [CheckRecord(rid, "free", not w, witness),
                        CheckRecord(rid, "handle", ok, "" if ok else witness)]
    return Report.build(f"eq31 n={n}", records)


def _check_eq32(n: int, g: int, bound: int, fault: bool = False) -> Report:
    # x stands for t_{i,j}, so each (i, h) has one identity for all j > i
    x = gen_word(atom("x"))
    hs = [(tag, Word.from_codes(h_codes, (n, g)))
          for tag, h_codes, _ in RelatorFamily("LH", n, g, 1, bound).conjugators(1)]
    records = []
    for i in range(1, n):
        alpha = _alpha(i, n, g)
        alpha_inv, t1j = invert(alpha), conjugate(x, alpha)
        for tag, hw in hs:
            lhs = commutator(t1j, conjugate(t1j, hw))
            gw = conjugate(hw, alpha_inv)
            if fault:
                gw = concat(gw, gen_word(sigma(1), n, g))
            rhs = conjugate(commutator(x, conjugate(x, gw)), alpha)
            verdict = _free_equality("", lhs, rhs)
            records += [CheckRecord(f"eq32[i={i},j={j},h={tag}]", "free", verdict.passed,
                                    verdict.witness) for j in range(i + 1, n + 1)]
    return Report.build(f"eq32 n={n} g={g} bound={bound}", records)


def _check_lh_transport(n: int, g: int, fault: bool = False) -> Report:
    """Conjugating the strand-i basis by alpha = s_1..s_{i-1} lands in the
    strand-1 basis: certified by free equality of the expansions.  Strand i's
    words are one s_{i-1} step into strand i-1's basis, then strand i-1's words."""
    from braidhomotopy.extension import sigma_conj_word

    transported, records = {}, []
    for i in range(2, n + 1):
        alpha, previous, transported = _alpha(i, n, g), transported, {}
        for b in RelatorFamily("LH1", n, g, i, 0).strand_basis(i):
            step = sigma_conj_word(gen_word(b, n, g), i - 1, n, g, wrong_parity=fault)
            word = transported[b] = substitute(step, previous.__getitem__) if i > 2 else step
            ok = (expand_word(word, n, g) == conjugate(expand_gen(b, n, g), alpha)
                  and all(symbol(c).i == 1 for c in word.codes if symbol(c).kind in ("a", "t")))
            records.append(CheckRecord(f"transport[i={i},b={b}]", "free", ok,
                                       "" if ok else format_word(word)))
    return Report.build(f"lh transport n={n} g={g}", records)


def loop_expansion_comparison(n: int, g: int, fault: bool = False) -> Report:
    """Compare the crossing-sandwiched loop word with the strand-2
    rewrite of the plain one; the two stated forms turn out freely equal.

    ``fault`` appends a crossing to the first rewrite, so exactly one
    record must fail.
    """
    _check_size("a-expansion", n, g, least_n=2, least_g=1)
    records = []
    for s in range(1, 2 * g):
        translated = expand_word(expand_A_pure(2, s, n, g), n, g)
        if fault and s == 1:
            translated = concat(translated, gen_word(sigma(1), n, g))
        records.append(_free_equality(f"A-expansion[s={s}]", translated, expand_A_geo(s, n, g)))
    return Report.build(f"A-expansion comparison n={n} g={g}", records)
