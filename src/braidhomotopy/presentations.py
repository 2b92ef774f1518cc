"""Constructors for the presentation families of surface braid groups,
their link-homotopy quotients, and the symmetric group.

Finite relators are stored as single words equal to the identity
(LHS * RHS^-1).  The self-commutation relator families indexed by a
free conjugator h are infinite; they are carried as RelatorFamily
descriptors and materialized on demand, truncated by the shortlex
length of h.  Truncation is always explicit: constructors for families
with such relators require an lh_bound argument.

Derived-symbol expansions follow the defining rewrite rules verbatim:

    t_{i,j}  = s_i s_{i+1} .. s_{j-2} s_{j-1}^2 s_{j-2}^-1 .. s_i^-1
    a_{i+1,r} = s_i a_{i,r} s_i          (r even)
    a_{i+1,r} = s_i^-1 a_{i,r} s_i^-1    (r odd)

Conventions: conjugation is h * t * h^-1, and emitted family relators
skip instances that freely reduce to the empty word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator

from braidhomotopy.words import (
    AlphabetError,
    Gen,
    Word,
    atom,
    band,
    check_gen,
    code,
    commutator,
    concat,
    concat_all,
    enumerate_shortlex,
    format_word,
    gen_word,
    inverse_codes,
    invert,
    join_codes,
    loop,
    parse_gen,
    parse_word,
    sigma,
    substitute,
    symbol,
)


# ---------------------------------------------------------------------------
# derived-generator expansions


@lru_cache(maxsize=None)
def expand_t(i: int, j: int, n: int, g: int = 0) -> Word:
    """Band generator t_{i,j} as a crossing word (rule R9 style)."""
    if not 1 <= i < j <= n:
        raise AlphabetError(f"expand_t needs 1 <= i < j <= n, got ({i}, {j}), n={n}")
    letters = [(sigma(k), 1) for k in range(i, j - 1)]
    letters += [(sigma(j - 1), 1), (sigma(j - 1), 1)]
    letters += [(sigma(k), -1) for k in range(j - 2, i - 1, -1)]
    return Word(tuple(letters), (n, g))


@lru_cache(maxsize=None)
def expand_a(i: int, r: int, n: int, g: int) -> Word:
    """Loop generator a_{i,r} pushed down to strand 1 by parity of r."""
    if not (1 <= i <= n and 1 <= r <= 2 * g):
        raise AlphabetError(f"expand_a indices out of range: ({i}, {r}), n={n}, g={g}")
    if i == 1:
        return gen_word(loop(1, r), n, g)
    sign = 1 if r % 2 == 0 else -1
    s = gen_word(sigma(i - 1), n, g, e=sign)
    return concat_all([s, expand_a(i - 1, r, n, g), s])


def expand_T_cap(i: int, j: int, n: int, g: int) -> Word:
    """Descending band product t_{i,j} t_{i,j-1} .. t_{i,i+1}; empty when j = i."""
    if not 1 <= i <= j <= n:
        raise AlphabetError(f"expand_T_cap needs 1 <= i <= j <= n, got ({i}, {j})")
    return Word(tuple((band(i, k), 1) for k in range(j, i, -1)), (n, g))


def expand_A_pure(j: int, s: int, n: int, g: int) -> Word:
    """Loop-alphabet word a_{j,1}..a_{j,s-1} a_{j,s+1}^-1..a_{j,2g}^-1."""
    if not (1 <= j <= n and 1 <= s <= 2 * g - 1):
        raise AlphabetError(f"expand_A_pure indices out of range: ({j}, {s})")
    letters = [(loop(j, m), 1) for m in range(1, s)]
    letters += [(loop(j, m), -1) for m in range(s + 1, 2 * g + 1)]
    return Word(tuple(letters), (n, g))


def expand_A_geo(s: int, n: int, g: int) -> Word:
    """Crossing-sandwiched variant s_1^-1 (a_{1,1}..a_{1,s-1} a_{1,s+1}^-1..) s_1^-1."""
    if n < 2:
        raise AlphabetError("expand_A_geo needs n >= 2 (it contains s1)")
    if not 1 <= s <= 2 * g - 1:
        raise AlphabetError(f"expand_A_geo needs 1 <= s <= 2g-1, got s={s}, g={g}")
    inner = [(loop(1, m), 1) for m in range(1, s)]
    inner += [(loop(1, m), -1) for m in range(s + 1, 2 * g + 1)]
    return Word(((sigma(1), -1), *inner, (sigma(1), -1)), (n, g))


# ---------------------------------------------------------------------------
# presentation containers


@dataclass(frozen=True)
class RelatorFamily:
    """A truncatable stream of self-commutation relators [t, t^h].

    kind "LH"  - conjugators over the strand-1 basis, everything
                 expanded into crossing/loop letters (quotient groups);
    kind "HN"  - same but ranging over every strand i (the normal
                 generators of the link-homotopically trivial subgroup);
    kind "LH1" - conjugators over the strand-i basis kept as loop/band
                 letters (pure string-link groups).

    ``strand`` fixes i for LH/LH1; 0 means all strands (HN).  ``bound``
    is the default shortlex truncation for the conjugator h.

    Stream order contract: strand i ascending, then j ascending, then h
    in the order of ``enumerate_shortlex(strand_basis(i), bound)``.
    Labels and the skipping of freely trivial instances are part of the
    contract too: serialized presentations and their digests depend on
    all three.
    """

    kind: str
    n: int
    g: int
    strand: int
    bound: int

    def __post_init__(self):
        if self.kind not in ("LH", "HN", "LH1"):
            raise ValueError(f"unknown relator family kind {self.kind!r}")

    def strand_basis(self, i: int) -> tuple[Gen, ...]:
        loops = tuple(loop(i, r) for r in range(1, 2 * self.g + 1))
        bands = tuple(band(i, m) for m in range(i + 1, self.n + 1))
        return loops + bands

    def _letter_image(self, gen: Gen) -> Word:
        """A strand-basis letter as the relators spell it (expanded unless LH1)."""
        if self.kind == "LH1":
            return gen_word(gen, self.n, self.g)
        return expand_gen(gen, self.n, self.g)

    def alphabet(self) -> set[Gen]:
        """Every symbol the relators can use: the letters of each strand basis's images."""
        strands = range(1, self.n) if self.kind == "HN" else [self.strand]
        return {symbol(c) for i in strands for gen in self.strand_basis(i)
                for c in self._letter_image(gen).codes}

    def instances(self, bound: int | None = None) -> Iterator[tuple[str, Word]]:
        """Yield (label, relator) pairs, skipping freely trivial instances."""
        if bound is None:
            bound = self.bound
        if bound < 0:
            raise ValueError(f"truncation bound must be >= 0, got {bound}")
        n, g = self.n, self.g
        ctx = (n, g)
        strands = range(1, n) if self.kind == "HN" else [self.strand]
        for i in strands:
            conjugators = self._conjugators(i, bound)
            for j in range(i + 1, n + 1):
                if self.kind == "LH1":
                    t = gen_word(band(i, j), n, g).codes
                    head = f"LH1[i={i},j={j},h="
                else:
                    t = expand_t(i, j, n, g).codes
                    head = f"HN[i={i},j={j},h=" if self.kind == "HN" else f"LH[j={j},h="
                t_inv = inverse_codes(t)
                for tag, hw, hw_inv in conjugators:
                    # t hw t hw^-1 t^-1 hw t^-1 hw^-1 = [t, hw t hw^-1], one pass
                    rel = t
                    for part in (hw, t, hw_inv, t_inv, hw, t_inv, hw_inv):
                        rel = join_codes(rel, part)
                    if rel:
                        yield head + tag + "]", Word.from_codes(rel, ctx)

    def _conjugators(self, i: int, bound: int) -> list[tuple[str, tuple, tuple]]:
        """(label tag, expansion, inverse) per h; each extends its parent prefix's."""
        n, g = self.n, self.g
        basis = self.strand_basis(i)
        image = {}
        for gen in basis:
            c = code(gen)
            rep = self._letter_image(gen)
            image[c], image[-c] = rep.codes, inverse_codes(rep.codes)
        expansion: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}
        out = []
        for h in enumerate_shortlex(basis, bound, n, g):
            if h:
                expansion[h.codes] = join_codes(expansion[h.codes[:-1]], image[h.codes[-1]])
            hw = expansion[h.codes]
            out.append((format_word(h).replace(" ", ",") or "1", hw, inverse_codes(hw)))
        return out


def expand_gen(gen: Gen, n: int, g: int) -> Word:
    """Loop or band generator as a crossing/loop word."""
    if gen.kind == "a":
        return expand_a(gen.i, gen.j, n, g)
    return expand_t(gen.i, gen.j, n, g)


def expand_word(w: Word, n: int, g: int) -> Word:
    """Loop/band word rewritten into crossing/loop letters."""
    return substitute(w, lambda gen: expand_gen(gen, n, g))


@dataclass(frozen=True)
class Presentation:
    """Generators, finite relators, and truncatable relator families."""

    family: str
    n: int
    g: int
    closed: bool | None
    lh_bound: int | None
    generators: tuple[Gen, ...]
    relators: tuple[Word, ...]
    labels: tuple[str, ...]
    families: tuple[RelatorFamily, ...] = ()

    def __post_init__(self):
        if len(self.relators) != len(self.labels):
            raise ValueError("relators and labels must align")
        letters = {code(gen) for gen in self.generators}
        letters.update([-c for c in letters])
        for label, rel in zip(self.labels, self.relators):
            if not letters.issuperset(rel.codes):
                bad = next(c for c in rel.codes if c not in letters)
                raise ValueError(f"relator {label} uses non-generator {symbol(bad)}")
        for fam in self.families:
            missing = fam.alphabet().difference(self.generators)
            if missing:
                bad = min(missing, key=Gen.sort_key)
                raise ValueError(f"relator family {fam.kind} (strand {fam.strand}) "
                                 f"uses non-generator {bad}")

    def iter_relators(self, bound: int | None = None) -> Iterator[tuple[str, Word]]:
        """Stream the finite relators, then the family instances at the given bound."""
        yield from zip(self.labels, self.relators)
        for fam in self.families:
            yield from fam.instances(bound)

    def labeled_relators(self, bound: int | None = None) -> list[tuple[str, Word]]:
        """``iter_relators`` as a list."""
        return list(self.iter_relators(bound))

    def all_relators(self, bound: int | None = None) -> list[Word]:
        return [rel for _, rel in self.iter_relators(bound)]

    def with_relator(self, label: str, rel: Word) -> "Presentation":
        return replace(self, relators=self.relators + (rel,), labels=self.labels + (label,))


# ---------------------------------------------------------------------------
# constructors


def _check_surface_params(n: int, g: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if g < 1:
        raise ValueError(
            f"need genus g >= 1, got {g}; the disk case lives in goldsmith_presentation")


def _sigma_gens(n: int) -> list[Gen]:
    return [sigma(i) for i in range(1, n)]


def _r1_r2(n: int, g: int) -> list[tuple[str, Word]]:
    rels = []
    for i in range(1, n):
        for j in range(i + 2, n):
            w = commutator(gen_word(sigma(i), n, g), gen_word(sigma(j), n, g))
            rels.append((f"R1[i={i},j={j}]", w))
    for i in range(1, n - 1):
        lhs = Word(((sigma(i), 1), (sigma(i + 1), 1), (sigma(i), 1)), (n, g))
        rhs = Word(((sigma(i + 1), 1), (sigma(i), 1), (sigma(i + 1), 1)), (n, g))
        rels.append((f"R2[i={i}]", concat(lhs, invert(rhs))))
    return rels


def _r3_word(n: int, g: int) -> Word:
    lhs = [(loop(1, r), 1) for r in range(1, 2 * g + 1)]
    lhs += [(loop(1, r), -1) for r in range(1, 2 * g + 1)]
    # crossing side is the all-positive palindrome, not a band generator
    rhs = [(sigma(k), 1) for k in range(1, n - 1)]
    rhs += [(sigma(n - 1), 1), (sigma(n - 1), 1)] if n >= 2 else []
    rhs += [(sigma(k), 1) for k in range(n - 2, 0, -1)]
    return concat(Word(tuple(lhs), (n, g)), invert(Word(tuple(rhs), (n, g))))


def _r4_r5_r6(n: int, g: int) -> list[tuple[str, Word]]:
    rels = []
    if n >= 2:
        for r in range(1, 2 * g + 1):
            for s in range(1, 2 * g):
                if r == s:
                    continue
                w = commutator(gen_word(loop(1, r), n, g), expand_A_geo(s, n, g))
                rels.append((f"R4[r={r},s={s}]", w))
        for r in range(1, 2 * g):
            prefix = Word(tuple((loop(1, m), 1) for m in range(1, r + 1)), (n, g))
            A = expand_A_geo(r, n, g)
            lhs = concat(prefix, A)
            rhs = concat_all([gen_word(sigma(1), n, g, e=2), A, prefix])
            rels.append((f"R5[r={r}]", concat(lhs, invert(rhs))))
    for r in range(1, 2 * g + 1):
        for i in range(2, n):
            w = commutator(gen_word(loop(1, r), n, g), gen_word(sigma(i), n, g))
            rels.append((f"R6[r={r},i={i}]", w))
    return rels


def surface_braid_presentation(n: int, g: int) -> Presentation:
    """Braid group of a closed orientable genus-g surface (relations R1-R6).

    Note the closed-surface relation R3: for n = 1 its crossing side is
    empty, and every relation mentioning s1 (R1, R2, R4, R5, R6) is
    vacuous.
    """
    _check_surface_params(n, g)
    rels = _r1_r2(n, g)
    rels.append(("R3", _r3_word(n, g)))
    rels.extend(_r4_r5_r6(n, g))
    gens = _sigma_gens(n) + [loop(1, r) for r in range(1, 2 * g + 1)]
    return Presentation("surface", n, g, True, None, tuple(gens),
                        tuple(w for _, w in rels), tuple(l for l, _ in rels))


def homotopy_generalized_presentation(n: int, g: int, closed: bool, lh_bound: int,
                                      with_auxiliary: bool = False) -> Presentation:
    """Link-homotopy quotient presentation over a genus-g surface.

    The closed form keeps R1-R6; the punctured form drops R3.  On top of
    the finite relations sits the LH family [t_{1,j}, t_{1,j}^h] with h
    running over the strand-1 free basis, truncated at lh_bound.

    ``with_auxiliary`` emits the redundant generators a_{i,r} (i >= 2)
    and t_{j,k} together with their defining relations R7/R8/R9, the
    form used by the extension-assembly workflow; the LH family is then
    phrased over band letters directly.
    """
    _check_surface_params(n, g)
    if lh_bound < 0:
        raise ValueError(f"lh_bound must be >= 0, got {lh_bound}")
    rels = _r1_r2(n, g)
    if closed:
        rels.append(("R3", _r3_word(n, g)))
    rels.extend(_r4_r5_r6(n, g))
    gens = [loop(1, r) for r in range(1, 2 * g + 1)] + _sigma_gens(n)
    if not with_auxiliary:
        fam = RelatorFamily("LH", n, g, 1, lh_bound)
        return Presentation("homotopy", n, g, closed, lh_bound, tuple(gens),
                            tuple(w for _, w in rels), tuple(l for l, _ in rels), (fam,))
    gens += [loop(i, r) for i in range(2, n + 1) for r in range(1, 2 * g + 1)]
    gens += [band(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    for j in range(1, n):
        for r in range(1, 2 * g + 1):
            s = gen_word(sigma(j), n, g, e=1 if r % 2 == 0 else -1)
            rhs = concat_all([s, gen_word(loop(j, r), n, g), s])
            label = "R7" if r % 2 == 0 else "R8"
            rels.append((f"{label}[j={j},r={r}]",
                         concat(gen_word(loop(j + 1, r), n, g), invert(rhs))))
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            rels.append((f"R9[i={i},j={j}]",
                         concat(gen_word(band(i, j), n, g), invert(expand_t(i, j, n, g)))))
    fam = RelatorFamily("LH1", n, g, 1, lh_bound)
    return Presentation("homotopy-aux", n, g, closed, lh_bound, tuple(gens),
                        tuple(w for _, w in rels), tuple(l for l, _ in rels), (fam,))


def goldsmith_presentation(n: int, lh_bound: int) -> Presentation:
    """Link-homotopy quotient of the classical braid group (the disk case).

    Generators are the crossings alone; the finite relations are R1-R2
    and the LH family runs over the band basis t_{1,2}, .., t_{1,n}.
    """
    if n < 2:
        raise ValueError(f"goldsmith_presentation needs n >= 2, got {n}")
    if lh_bound < 0:
        raise ValueError(f"lh_bound must be >= 0, got {lh_bound}")
    rels = _r1_r2(n, 0)
    fam = RelatorFamily("LH", n, 0, 1, lh_bound)
    return Presentation("goldsmith", n, 0, None, lh_bound, tuple(_sigma_gens(n)),
                        tuple(w for _, w in rels), tuple(l for l, _ in rels), (fam,))


def pure_homotopy_presentation(n: int, g: int, closed: bool, lh_bound: int) -> Presentation:
    """Homotopy string links over a genus-g surface (relations PR1-PR8).

    The punctured variant drops PR1.  The LH1 families, one per strand,
    are phrased over the loop/band generator alphabet directly.
    """
    _check_surface_params(n, g)
    if lh_bound < 0:
        raise ValueError(f"lh_bound must be >= 0, got {lh_bound}")
    ctx = (n, g)
    two_g = 2 * g

    def T(i, j):
        return expand_T_cap(i, j, n, g)

    def A(j, s):
        return expand_A_pure(j, s, n, g)

    def aw(i, r, e=1):
        return gen_word(loop(i, r), n, g, e=e)

    rels: list[tuple[str, Word]] = []
    if closed:
        lhs = [(loop(n, r), -1) for r in range(1, two_g + 1)]
        lhs += [(loop(n, r), 1) for r in range(1, two_g + 1)]
        rhs = concat_all([concat(invert(T(i, n - 1)), T(i, n)) for i in range(1, n)]) \
            if n >= 2 else Word((), ctx)
        rels.append(("PR1", concat(Word(tuple(lhs), ctx), invert(rhs))))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for r in range(1, two_g + 1):
                for s in range(1, two_g):
                    if r == s:
                        continue
                    rels.append((f"PR2[i={i},j={j},r={r},s={s}]",
                                 commutator(aw(i, r), A(j, s))))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for r in range(1, two_g):
                prefix = Word(tuple((loop(i, m), 1) for m in range(1, r + 1)), ctx)
                lhs = concat_all([prefix, A(j, r), invert(prefix), invert(A(j, r))])
                rhs = concat(T(i, j), invert(T(i, j - 1)))
                rels.append((f"PR3[i={i},j={j},r={r}]", concat(lhs, invert(rhs))))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                for l in range(k + 1, n + 1):
                    if (i < j < k < l) or (i < k < l <= j):
                        rels.append((f"PR4[i={i},j={j},k={k},l={l}]",
                                     commutator(T(i, j), T(k, l))))
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            for j in range(k, n + 1):
                for l in range(j + 1, n + 1):
                    lhs = concat_all([T(k, l), T(i, j), invert(T(k, l))])
                    rhs = concat_all([
                        T(i, k - 1), invert(T(i, k)), T(i, j), invert(T(i, l)),
                        T(i, k), invert(T(i, k - 1)), T(i, l)])
                    rels.append((f"PR5[i={i},j={j},k={k},l={l}]", concat(lhs, invert(rhs))))
    for r in range(1, two_g + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(j + 1, n + 1):
                    if (i < j < k) or (j < k < i):
                        rels.append((f"PR6[i={i},j={j},k={k},r={r}]",
                                     commutator(aw(i, r), T(j, k))))
    for j in range(1, n + 1):
        for i in range(j + 1, n + 1):
            for k in range(i, n + 1):
                desc_inv = Word(tuple((loop(j, m), -1) for m in range(two_g, 0, -1)), ctx)
                desc_pos = Word(tuple((loop(j, m), 1) for m in range(two_g, 0, -1)), ctx)
                C = concat_all([desc_inv, T(j, k), desc_pos])
                for r in range(1, two_g + 1):
                    rels.append((f"PR7[j={j},i={i},k={k},r={r}]",
                                 commutator(aw(i, r), C)))
    for j in range(1, n):
        factors = []
        for i in range(1, j):
            desc_inv = Word(tuple((loop(i, m), -1) for m in range(two_g, 0, -1)), ctx)
            asc_pos = Word(tuple((loop(i, m), 1) for m in range(1, two_g + 1)), ctx)
            factors.append(concat_all([desc_inv, T(i, j - 1), invert(T(i, j)), asc_pos]))
        tail = [(loop(j, m), 1) for m in range(1, two_g + 1)]
        tail += [(loop(j, m), -1) for m in range(1, two_g + 1)]
        rhs = concat(concat_all(factors) if factors else Word((), ctx), Word(tuple(tail), ctx))
        rels.append((f"PR8[j={j}]", concat(T(j, n), invert(rhs))))

    gens = [loop(i, r) for i in range(1, n + 1) for r in range(1, two_g + 1)]
    gens += [band(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    fams = tuple(RelatorFamily("LH1", n, g, i, lh_bound) for i in range(1, n))
    return Presentation("pure", n, g, closed, lh_bound, tuple(gens),
                        tuple(w for _, w in rels), tuple(l for l, _ in rels), fams)


def symmetric_presentation(n: int) -> Presentation:
    """Coxeter presentation of the symmetric group on generators d_i."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = [atom(f"d{i}") for i in range(1, n)]
    rels: list[tuple[str, Word]] = []
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append((f"SR1[i={i},j={j}]",
                         commutator(gen_word(d[i - 1]), gen_word(d[j - 1]))))
    for i in range(1, n - 1):
        lhs = Word(((d[i - 1], 1), (d[i], 1), (d[i - 1], 1)))
        rhs = Word(((d[i], 1), (d[i - 1], 1), (d[i], 1)))
        rels.append((f"SR2[i={i}]", concat(lhs, invert(rhs))))
    for i in range(1, n):
        rels.append((f"SR3[i={i}]", Word(((d[i - 1], 1), (d[i - 1], 1)))))
    return Presentation("symmetric", n, 0, None, None, tuple(d),
                        tuple(w for _, w in rels), tuple(l for l, _ in rels))


def homotopy_quotient(p: Presentation, lh_bound: int) -> Presentation:
    """Quotient a surface braid presentation by the link-homotopically
    trivial subgroup: append its normal-generator stream truncated at
    lh_bound."""
    if p.family != "surface":
        raise ValueError(f"homotopy_quotient expects a surface presentation, got {p.family!r}")
    if lh_bound < 0:
        raise ValueError(f"lh_bound must be >= 0, got {lh_bound}")
    fam = RelatorFamily("HN", p.n, p.g, 0, lh_bound)
    return replace(p, family="quotient", lh_bound=lh_bound, families=p.families + (fam,))


def lh_relators(n: int, g: int, lh_bound: int) -> Iterator[Word]:
    """Stream of emitted LH relators [t_{1,j}, t_{1,j}^h] in crossing/loop letters."""
    fam = RelatorFamily("LH", n, g, 1, lh_bound)
    return (rel for _, rel in fam.instances())


def hn_generators(n: int, g: int, lh_bound: int) -> Iterator[Word]:
    """Stream of normal generators [t_{i,j}, t_{i,j}^h] over every strand i."""
    fam = RelatorFamily("HN", n, g, 0, lh_bound)
    return (rel for _, rel in fam.instances())


# ---------------------------------------------------------------------------
# serialization


def presentation_to_text(p: Presentation, bound: int | None = None) -> str:
    """One relator per line in the token grammar (families materialized)."""
    lines = [format_word(rel) for _, rel in p.iter_relators(bound)]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_relator_lines(text: str, n: int, g: int) -> list[Word]:
    return [parse_word(line, n, g) for line in text.splitlines() if line.strip()]


def presentation_to_json(p: Presentation) -> str:
    doc = {
        "family": p.family,
        "n": p.n,
        "g": p.g,
        "closed": p.closed,
        "lh_bound": p.lh_bound,
        "generators": [str(gen) for gen in p.generators],
        "relators": [{"label": label, "word": format_word(rel)}
                     for label, rel in zip(p.labels, p.relators)],
        "families": [{"kind": fam.kind, "strand": fam.strand, "bound": fam.bound,
                      "basis": ([str(b) for b in fam.strand_basis(fam.strand)]
                                if fam.strand else "per-strand")}
                     for fam in p.families],
    }
    return json.dumps(doc, indent=2) + "\n"


_JSON_TYPES = {"family": str, "n": int, "g": int, "closed": (bool, type(None)),
               "lh_bound": (int, type(None)), "generators": list, "relators": list,
               "families": list, "label": str, "word": str, "kind": str, "strand": int,
               "bound": int}


def _fields(doc, *keys) -> list:
    """Values of ``keys`` in a JSON object, type-checked; a bool is no int."""
    if not isinstance(doc, dict):
        raise ValueError(f"presentation JSON: expected an object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"presentation JSON: missing field {key!r}")
        types, value = _JSON_TYPES[key], doc[key]
        if not isinstance(value, types) or (isinstance(value, bool) and types is int):
            raise ValueError(f"presentation JSON: field {key!r} has the wrong type")
    return [doc[key] for key in keys]


def presentation_from_json(text: str) -> Presentation:
    """Inverse of ``presentation_to_json``; a malformed document raises ValueError."""
    family, n, g, closed, lh_bound, tokens, entries, fams = _fields(
        json.loads(text), "family", "n", "g", "closed", "lh_bound", "generators", "relators",
        "families")
    if n < 1 or g < 0 or not all(isinstance(tok, str) for tok in tokens):
        raise ValueError("presentation JSON: need n >= 1, g >= 0 and generator strings")
    gens = tuple(parse_gen(tok) for tok in tokens)
    for gen in gens:
        check_gen(gen, n, g)
    rels = [_fields(entry, "label", "word") for entry in entries]
    fams = [_fields(fam, "kind", "strand", "bound") for fam in fams]
    if any(bound < 0 for _, _, bound in fams):
        raise ValueError("presentation JSON: family bounds must be >= 0")
    return Presentation(family, n, g, closed, lh_bound, gens,
                        tuple(parse_word(word, n, g) for _, word in rels),
                        tuple(label for label, _ in rels),
                        tuple(RelatorFamily(kind, n, g, i, bound) for kind, i, bound in fams))
