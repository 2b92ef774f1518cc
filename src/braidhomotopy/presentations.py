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

Each relation is stated once, by shared builders:

    _rel                lhs = rhs as the relator lhs * rhs^-1
    _braid_relations    R1/R2, and SR1/SR2 of the symmetric group
    _surface_relations  R1-R6; with g = 0, punctured, it gives Goldsmith's R1/R2
    _push_down          s_j^e w s_j^e, the loop push-down rule (expand_a, R7/R8)
    _loops              a run a_{i,r}^e of loop letters (R3, R5, A-words, PR1, PR3, PR7, PR8)
    _pairs              the strand pairs i < j (band generators, R9, PR2-PR7)
    _presentation       the one constructor behind every family and the JSON reader

Every truncation bound is checked by ``_check_bound`` where it is stored
(``RelatorFamily``, ``Presentation``); a family streams at its own bound only.
A strand with more than ``MAX_CONJUGATORS`` conjugators up to its bound
raises ResourceLimitError before any conjugator is built.  ``_check_size``,
the first step wherever n and g enter, is the one size rule: too few strands
or too small a genus raise ValueError, over ``MAX_STRANDS`` ResourceLimitError.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from typing import Iterator

from braidhomotopy.words import (
    AlphabetError,
    Gen,
    ResourceLimitError,
    Word,
    atom,
    band,
    check_gen,
    code,
    commutator,
    concat,
    concat_all,
    conjugate,
    enumerate_shortlex,
    format_word,
    gen_word,
    image_table,
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


MAX_CONJUGATORS = 250_000  # per strand; the n = 5, g = 2, bound-4 strand has 57,857
MAX_STRANDS = 256  # h1 --family goldsmith -n 256 --lh-bound 1 takes about 1 s


# ---------------------------------------------------------------------------
# derived-generator expansions


@lru_cache(maxsize=None)
def expand_t(i: int, j: int, n: int, g: int = 0) -> Word:
    """Band generator t_{i,j} as a crossing word (rule R9 style)."""
    check_gen(band(i, j), n, g)
    letters = [(sigma(k), 1) for k in range(i, j - 1)]
    letters += [(sigma(j - 1), 1), (sigma(j - 1), 1)]
    letters += [(sigma(k), -1) for k in range(j - 2, i - 1, -1)]
    return Word(tuple(letters), (n, g))


@lru_cache(maxsize=None)
def expand_a(i: int, r: int, n: int, g: int) -> Word:
    """Loop generator a_{i,r} pushed down to strand 1 by parity of r."""
    check_gen(loop(i, r), n, g)
    if i == 1:
        return gen_word(loop(1, r), n, g)
    return _push_down(i - 1, r, expand_a(i - 1, r, n, g), n, g)


def _push_down(j: int, r: int, w: Word, n: int, g: int) -> Word:
    """s_j^e w s_j^e, with e = +1 for even r and -1 for odd: a_{j+1,r} from w = a_{j,r}."""
    s = gen_word(sigma(j), n, g, e=1 if r % 2 == 0 else -1)
    return concat_all([s, w, s])


def expand_T_cap(i: int, j: int, n: int, g: int) -> Word:
    """Descending band product t_{i,j} t_{i,j-1} .. t_{i,i+1}; empty when j = i."""
    if not 1 <= i <= j <= n:
        raise AlphabetError(f"expand_T_cap needs 1 <= i <= j <= n, got ({i}, {j})")
    return Word(tuple((band(i, k), 1) for k in range(j, i, -1)), (n, g))


def _loops(i: int, rs, e: int, n: int, g: int) -> Word:
    """The run a_{i,r}^e for r in ``rs``, in that order."""
    return Word(tuple((loop(i, r), e) for r in rs), (n, g))


def expand_A_pure(j: int, s: int, n: int, g: int) -> Word:
    """Loop-alphabet word a_{j,1}..a_{j,s-1} a_{j,s+1}^-1..a_{j,2g}^-1."""
    if not (1 <= j <= n and 1 <= s <= 2 * g - 1):
        raise AlphabetError(f"expand_A_pure indices out of range: ({j}, {s})")
    return concat(_loops(j, range(1, s), 1, n, g), _loops(j, range(s + 1, 2 * g + 1), -1, n, g))


def expand_A_geo(s: int, n: int, g: int) -> Word:
    """Crossing-sandwiched variant s_1^-1 expand_A_pure(1, s) s_1^-1 (needs n >= 2)."""
    s1_inv = gen_word(sigma(1), n, g, e=-1)
    return concat_all([s1_inv, expand_A_pure(1, s, n, g), s1_inv])


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
    is the shortlex truncation for the conjugator h; a stream at another
    bound is that of ``dataclasses.replace(fam, bound=b)``.

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
        _check_size(f"relator family {self.kind}", self.n, self.g)
        _check_bound(self.bound)

    def strand_basis(self, i: int) -> tuple[Gen, ...]:
        loops = tuple(loop(i, r) for r in range(1, 2 * self.g + 1))
        bands = tuple(band(i, m) for m in range(i + 1, self.n + 1))
        return loops + bands

    def _strands(self) -> range:
        """The strands i the family ranges over: 1..n-1 for HN, else its own."""
        return range(1, self.n) if self.kind == "HN" else range(self.strand, self.strand + 1)

    @lru_cache(maxsize=None)
    def _images(self, i: int) -> dict[int, tuple[int, ...]]:
        """The codes of each strand-i basis letter and of its inverse, by signed
        letter code, as the relators spell them (expanded unless LH1); built
        once per family and strand, read by the stream and by ``alphabet``."""
        spell = gen_word if self.kind == "LH1" else expand_gen
        return image_table(map(code, self.strand_basis(i)),
                           lambda gen: spell(gen, self.n, self.g))[0]

    def alphabet(self) -> set[Gen]:
        """Every symbol the relators can use: the letters of each strand basis's images."""
        return {symbol(c) for i in self._strands() for rep in self._images(i).values()
                for c in rep}

    def instances(self) -> Iterator[tuple[str, Word]]:
        """Yield (label, relator) pairs up to the family's bound, skipping
        freely trivial instances."""
        n, ctx = self.n, (self.n, self.g)
        for i in self._strands():
            conjugators, images = self.conjugators(i), self._images(i)
            for j in range(i + 1, n + 1):
                t, t_inv = images[code(band(i, j))], images[-code(band(i, j))]
                head = f"LH[j={j},h=" if self.kind == "LH" else f"{self.kind}[i={i},j={j},h="
                for tag, hw, hw_inv in conjugators:
                    # [t, x] = t x t^-1 x^-1 with x = hw t hw^-1
                    x = join_codes(join_codes(hw, t), hw_inv)
                    rel = join_codes(join_codes(join_codes(t, x), t_inv), inverse_codes(x))
                    if rel:
                        yield head + tag + "]", Word.from_codes(rel, ctx)

    def conjugators(self, i: int) -> list[tuple[str, tuple, tuple]]:
        """(label tag, expansion codes, inverse codes) per conjugator h of strand i,
        in stream order up to the family's bound; each expansion extends its
        parent prefix's.  More than ``MAX_CONJUGATORS`` of them raise
        ResourceLimitError before any is built."""
        n, g, bound = self.n, self.g, self.bound
        basis = self.strand_basis(i)
        if _conjugator_count(len(basis), bound) > MAX_CONJUGATORS:
            raise ResourceLimitError(
                f"relator family {self.kind} (strand {i}) has more than {MAX_CONJUGATORS} "
                f"conjugators up to bound {bound}")
        image = self._images(i)
        expansion: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}
        out = []
        for h in enumerate_shortlex(basis, bound, n, g):
            if h:
                expansion[h.codes] = join_codes(expansion[h.codes[:-1]], image[h.codes[-1]])
            hw = expansion[h.codes]
            out.append((format_word(h).replace(" ", ",") or "1", hw, inverse_codes(hw)))
        return out


def _conjugator_count(rank: int, bound: int) -> int:
    """Freely reduced words of length <= bound over ``rank`` letters and their inverses,
    summed by length (1, 2r, 2r(2r - 1), ..) only until the sum passes ``MAX_CONJUGATORS``."""
    total, layer, length = 1, 2 * rank, 0
    while layer and length < bound and total <= MAX_CONJUGATORS:
        total, layer, length = total + layer, layer * (2 * rank - 1), length + 1
    return total


def _check_size(what: str, n: int, g: int, least_n: int = 1, least_g: int = 0) -> None:
    """The one size rule: ``what`` needs n >= least_n and g >= least_g (else
    ValueError), and at most ``MAX_STRANDS`` strands (else ResourceLimitError)."""
    if n < least_n:
        raise ValueError(f"{what} needs n >= {least_n}, got {n}")
    if g < least_g:
        raise ValueError(f"{what} needs genus g >= {least_g}, got {g}")
    if n > MAX_STRANDS:
        raise ResourceLimitError(f"{n} strands exceed the cap of {MAX_STRANDS}")


def _check_bound(bound: int) -> None:
    if bound < 0:
        raise ValueError(f"lh_bound must be >= 0, got {bound}")


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
    """Generators, finite relators, and truncatable relator families.

    The generators are distinct and valid for (n, g), every relator and
    family uses only them, and each family's strand fits its kind (0 for
    HN, 1..n for LH and LH1); anything else raises ValueError.
    """

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
        if self.lh_bound is not None:
            _check_bound(self.lh_bound)  # pure with n = 1 has a bound but no family
        letters = {code(gen) for gen in self.generators}
        if len(letters) != len(self.generators):
            seen = set()
            bad = next(gen for gen in self.generators if gen in seen or seen.add(gen))
            raise ValueError(f"repeated generator {bad}")
        for gen in self.generators:
            check_gen(gen, self.n, self.g)
        letters.update([-c for c in letters])
        for label, rel in zip(self.labels, self.relators):
            if not letters.issuperset(rel.codes):
                bad = next(c for c in rel.codes if c not in letters)
                raise ValueError(f"relator {label} uses non-generator {symbol(bad)}")
        for fam in self.families:
            if not (fam.strand == 0 if fam.kind == "HN" else 1 <= fam.strand <= self.n):
                raise ValueError(f"relator family {fam.kind} on {self.n} strands "
                                 f"cannot have strand {fam.strand}")
            missing = fam.alphabet().difference(self.generators)
            if missing:
                bad = min(missing, key=Gen.sort_key)
                raise ValueError(f"relator family {fam.kind} (strand {fam.strand}) "
                                 f"uses non-generator {bad}")

    def iter_relators(self) -> Iterator[tuple[str, Word]]:
        """Stream the finite relators, then each family's instances at its bound:
        the one reader of ``RelatorFamily.instances``."""
        yield from zip(self.labels, self.relators)
        for fam in self.families:
            yield from fam.instances()

    def labeled_relators(self) -> list[tuple[str, Word]]:
        """``iter_relators`` as a list."""
        return list(self.iter_relators())

    def with_relator(self, label: str, rel: Word) -> "Presentation":
        return replace(self, relators=self.relators + (rel,), labels=self.labels + (label,))


# ---------------------------------------------------------------------------
# constructors


def _pairs(n: int) -> list[tuple[int, int]]:
    """Strand pairs (i, j), 1 <= i < j <= n, in lexicographic order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _rel(lhs: Word, rhs: Word) -> Word:
    """The relation lhs = rhs as the relator lhs * rhs^-1."""
    return concat(lhs, invert(rhs))


def _presentation(family: str, n: int, g: int, closed: bool | None, lh_bound: int | None,
                  gens, rels: list[tuple[str, Word]], families=()) -> Presentation:
    """A presentation from its generators and (label, relator) pairs."""
    return Presentation(family, n, g, closed, lh_bound, tuple(gens),
                        tuple(w for _, w in rels), tuple(l for l, _ in rels), tuple(families))


def _braid_relations(x: list[Word], tag: str) -> list[tuple[str, Word]]:
    """Far commutation ({tag}1) and the braid relation ({tag}2) among x[0], x[1], .."""
    m = len(x) + 1
    rels = [(f"{tag}1[i={i},j={j}]", commutator(x[i - 1], x[j - 1]))
            for i in range(1, m) for j in range(i + 2, m)]
    rels += [(f"{tag}2[i={i}]", _rel(concat_all([x[i - 1], x[i], x[i - 1]]),
                                     concat_all([x[i], x[i - 1], x[i]])))
             for i in range(1, m - 1)]
    return rels


def _surface_relations(n: int, g: int, closed: bool) -> list[tuple[str, Word]]:
    """R1-R6 of the genus-g surface braid group on n strands; R3 only when closed.

    For g = 0 only R1/R2 remain when punctured: the braid group of the disk.
    """
    run = range(1, 2 * g + 1)
    x = [gen_word(sigma(i), n, g) for i in range(1, n)]
    a = [gen_word(loop(1, r), n, g) for r in run]
    rels = _braid_relations(x, "R")
    if closed:
        # crossing side is the all-positive palindrome, not a band generator
        rels.append(("R3", _rel(concat(_loops(1, run, 1, n, g), _loops(1, run, -1, n, g)),
                                concat_all(x + x[::-1]))))
    if n >= 2:
        rels += [(f"R4[r={r},s={s}]", commutator(a[r - 1], expand_A_geo(s, n, g)))
                 for r in run for s in range(1, 2 * g) if r != s]
        for r in range(1, 2 * g):
            prefix, A = _loops(1, range(1, r + 1), 1, n, g), expand_A_geo(r, n, g)
            rels.append((f"R5[r={r}]", _rel(concat(prefix, A),
                                            concat_all([x[0], x[0], A, prefix]))))
    rels += [(f"R6[r={r},i={i}]", commutator(a[r - 1], x[i - 1]))
             for r in run for i in range(2, n)]
    return rels


def surface_braid_presentation(n: int, g: int) -> Presentation:
    """Braid group of a closed orientable genus-g surface (relations R1-R6).

    Note the closed-surface relation R3: for n = 1 its crossing side is
    empty, and every relation mentioning s1 (R1, R2, R4, R5, R6) is
    vacuous.
    """
    _check_size("surface", n, g, least_g=1)
    gens = [sigma(i) for i in range(1, n)] + [loop(1, r) for r in range(1, 2 * g + 1)]
    return _presentation("surface", n, g, True, None, gens, _surface_relations(n, g, True))


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
    _check_size("homotopy", n, g, least_g=1)
    rels = _surface_relations(n, g, closed)
    gens = [loop(1, r) for r in range(1, 2 * g + 1)] + [sigma(i) for i in range(1, n)]
    if not with_auxiliary:
        return _presentation("homotopy", n, g, closed, lh_bound, gens, rels,
                             [RelatorFamily("LH", n, g, 1, lh_bound)])
    gens += [loop(i, r) for i in range(2, n + 1) for r in range(1, 2 * g + 1)]
    gens += [band(i, j) for i, j in _pairs(n)]
    for j in range(1, n):
        for r in range(1, 2 * g + 1):
            rhs = _push_down(j, r, gen_word(loop(j, r), n, g), n, g)
            label = "R7" if r % 2 == 0 else "R8"
            rels.append((f"{label}[j={j},r={r}]", _rel(gen_word(loop(j + 1, r), n, g), rhs)))
    rels += [(f"R9[i={i},j={j}]", _rel(gen_word(band(i, j), n, g), expand_t(i, j, n, g)))
             for i, j in _pairs(n)]
    return _presentation("homotopy-aux", n, g, closed, lh_bound, gens, rels,
                         [RelatorFamily("LH1", n, g, 1, lh_bound)])


def goldsmith_presentation(n: int, lh_bound: int) -> Presentation:
    """Link-homotopy quotient of the classical braid group (the disk case).

    Generators are the crossings alone; the finite relations are R1-R2
    (the punctured genus-0 surface relations) and the LH family runs over
    the band basis t_{1,2}, .., t_{1,n}.
    """
    _check_size("goldsmith", n, 0, least_n=2)
    return _presentation("goldsmith", n, 0, None, lh_bound, [sigma(i) for i in range(1, n)],
                         _surface_relations(n, 0, False), [RelatorFamily("LH", n, 0, 1, lh_bound)])


def pure_homotopy_presentation(n: int, g: int, closed: bool, lh_bound: int) -> Presentation:
    """Homotopy string links over a genus-g surface (relations PR1-PR8).

    The punctured variant drops PR1.  The LH1 families, one per strand,
    are phrased over the loop/band generator alphabet directly.
    """
    _check_size("pure", n, g, least_g=1)
    two_g = 2 * g
    up, down = range(1, two_g + 1), range(two_g, 0, -1)
    pairs = _pairs(n)

    def T(i, j):
        return expand_T_cap(i, j, n, g)

    def A(j, s):
        return expand_A_pure(j, s, n, g)

    def aw(i, r):
        return gen_word(loop(i, r), n, g)

    rels: list[tuple[str, Word]] = []
    if closed:
        rels.append(("PR1", _rel(concat(_loops(n, up, -1, n, g), _loops(n, up, 1, n, g)),
                                 concat_all([concat(invert(T(i, n - 1)), T(i, n))
                                             for i in range(1, n)]))))
    rels += [(f"PR2[i={i},j={j},r={r},s={s}]", commutator(aw(i, r), A(j, s)))
             for i, j in pairs for r in up for s in range(1, two_g) if r != s]
    rels += [(f"PR3[i={i},j={j},r={r}]",
              _rel(commutator(_loops(i, range(1, r + 1), 1, n, g), A(j, r)),
                   concat(T(i, j), invert(T(i, j - 1)))))
             for i, j in pairs for r in range(1, two_g)]
    # i < j < k < l, or i < k < l <= j
    rels += [(f"PR4[i={i},j={j},k={k},l={l}]", commutator(T(i, j), T(k, l)))
             for (i, j), (k, l) in product(pairs, pairs) if j < k or (i < k and l <= j)]
    rels += [(f"PR5[i={i},j={j},k={k},l={l}]",
              _rel(conjugate(T(i, j), T(k, l)),
                   concat_all([T(i, k - 1), invert(T(i, k)), T(i, j), invert(T(i, l)),
                               T(i, k), invert(T(i, k - 1)), T(i, l)])))
             for (i, k), (j, l) in product(pairs, pairs) if k <= j]
    rels += [(f"PR6[i={i},j={j},k={k},r={r}]", commutator(aw(i, r), T(j, k)))
             for r in up for i in range(1, n + 1) for j, k in pairs if i < j or k < i]
    for j, i in pairs:
        for k in range(i, n + 1):
            C = concat_all([_loops(j, down, -1, n, g), T(j, k), _loops(j, down, 1, n, g)])
            rels += [(f"PR7[j={j},i={i},k={k},r={r}]", commutator(aw(i, r), C)) for r in up]
    for j in range(1, n):
        factors = [concat_all([_loops(i, down, -1, n, g), T(i, j - 1), invert(T(i, j)),
                               _loops(i, up, 1, n, g)]) for i in range(1, j)]
        tail = concat(_loops(j, up, 1, n, g), _loops(j, up, -1, n, g))
        rels.append((f"PR8[j={j}]", _rel(T(j, n), concat_all(factors + [tail]))))

    fams = [RelatorFamily("LH1", n, g, i, lh_bound) for i in range(1, n)]
    return _presentation("pure", n, g, closed, lh_bound, pure_generators(n, g), rels, fams)


def pure_generators(n: int, g: int) -> list[Gen]:
    """The loops a_{i,r}, then the bands t_{i,j}: generators of the pure group."""
    return [loop(i, r) for i in range(1, n + 1) for r in range(1, 2 * g + 1)] + \
        [band(i, j) for i, j in _pairs(n)]


def symmetric_presentation(n: int) -> Presentation:
    """Coxeter presentation of the symmetric group on generators d_i."""
    _check_size("symmetric", n, 0)
    d = [atom(f"d{i}") for i in range(1, n)]
    rels = _braid_relations([gen_word(di) for di in d], "SR")
    rels += [(f"SR3[i={i}]", gen_word(d[i - 1], e=2)) for i in range(1, n)]
    return _presentation("symmetric", n, 0, None, None, d, rels)


def homotopy_quotient(p: Presentation, lh_bound: int) -> Presentation:
    """Quotient a surface braid presentation by the link-homotopically
    trivial subgroup: append its normal-generator stream truncated at
    lh_bound."""
    if p.family != "surface":
        raise ValueError(f"homotopy_quotient expects a surface presentation, got {p.family!r}")
    fam = RelatorFamily("HN", p.n, p.g, 0, lh_bound)
    return replace(p, family="quotient", lh_bound=lh_bound, families=p.families + (fam,))


# ---------------------------------------------------------------------------
# serialization


def presentation_to_text(p: Presentation) -> str:
    """One relator per line in the token grammar (families materialized)."""
    lines = [format_word(rel) for _, rel in p.iter_relators()]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_relator_lines(text: str, n: int, g: int) -> list[Word]:
    return [parse_word(line, n, g) for line in text.splitlines() if line.strip()]


def presentation_to_json(p: Presentation) -> str:
    import json

    return json.dumps(presentation_to_doc(p), indent=2) + "\n"


def presentation_to_doc(p: Presentation) -> dict:
    """The JSON document of ``presentation_to_json``, before it is dumped."""
    return {
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


_JSON_TYPES = {"family": str, "n": int, "g": int, "closed": (bool, type(None)),
               "lh_bound": (int, type(None)), "generators": list, "relators": list,
               "families": list, "label": str, "word": str, "kind": str, "strand": int,
               "bound": int, **dict.fromkeys(  # the extension document's fields
                   ("kernel", "quotient", "lifts", "rel_words", "conj_words"), dict)}


def _fields(doc, *keys, document: str = "presentation") -> list:
    """Values of ``keys`` in an object of a ``document`` JSON, type-checked; a bool is no int."""
    if not isinstance(doc, dict):
        raise ValueError(f"{document} JSON: expected an object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{document} JSON: missing field {key!r}")
        types, value = _JSON_TYPES[key], doc[key]
        if not isinstance(value, types) or isinstance(value, bool) and isinstance(0, types):
            raise ValueError(f"{document} JSON: field {key!r} has the wrong type")
    return [doc[key] for key in keys]


def presentation_from_json(text: str) -> Presentation:
    """Inverse of ``presentation_to_json``; a malformed document raises ValueError."""
    import json

    return presentation_from_doc(json.loads(text))


def presentation_from_doc(doc) -> Presentation:
    """``presentation_from_json`` on an already parsed JSON document."""
    family, n, g, closed, lh_bound, tokens, entries, fams = _fields(
        doc, "family", "n", "g", "closed", "lh_bound", "generators", "relators", "families")
    _check_size("presentation JSON", n, g)
    if not all(isinstance(tok, str) for tok in tokens):
        raise ValueError("presentation JSON: need generator strings")
    gens = [parse_gen(tok) for tok in tokens]
    rels = [_fields(entry, "label", "word") for entry in entries]
    fams = [_fields(fam, "kind", "strand", "bound") for fam in fams]
    return _presentation(family, n, g, closed, lh_bound, gens,
                         [(label, parse_word(word, n, g)) for label, word in rels],
                         [RelatorFamily(kind, n, g, i, bound) for kind, i, bound in fams])
