"""Magnus expansion into the non-repeating monomial ring.

Generators map to 1 + X_i and inverses to 1 - X_i; any monomial with a
repeated letter is identically zero, which makes the ring
finite-dimensional and every image exact.  The kernel of this expansion
contains every relator [x, x^g], so it decides triviality in the
reduced free group up to the faithfulness of the classical invariant:
verdicts are reported relative to the invariant, never as absolute
word-problem answers.

The expansion multiplies left to right by (1 +/- X_i).  Monomials are
grouped by the bitmask of the letters they use: multiplying by X_i
reads only the groups without bit i and writes only into groups with
it, so every group is updated in place.  Since X_i^2 = 0, a run x_i^k
is one update by 1 + kX_i.  Inside the kernel a monomial X_{i1}..X_{im}
is the integer with base-(rank + 1) digits i1..im; the tuple keys of
``NonRepeatingSeries`` are decoded only for a returned image.  A running
count of live monomials stops any expansion that passes
``MAX_MONOMIALS`` with ResourceLimitError: a rank-r image can hold about
e * r! monomials.

``is_rf_trivial`` expands only the cyclically reduced core of the word.
The expansion is a ring homomorphism, so mu(c u c^-1) = mu(c) mu(u)
mu(c)^-1 is 1 exactly when mu(u) is; the cancelled conjugator c is still
checked against the basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Mapping, Sequence

from braidhomotopy.words import Gen, ResourceLimitError, Word, code, symbol

# Live monomials one expansion may hold.  A full rank-9 image has
# e * 9! ~ 986,410, so no word over nine letters or fewer reaches it.
MAX_MONOMIALS = 1_000_000


class BasisError(ValueError):
    """Raised for letters outside the declared basis or malformed monomials."""


@dataclass(frozen=True)
class NonRepeatingSeries:
    """Integer series over monomials with pairwise-distinct indices."""

    rank: int
    coeffs: Mapping[tuple[int, ...], int]

    def __post_init__(self):
        for key, c in self.coeffs.items():
            if len(set(key)) != len(key):
                raise BasisError(f"repeated index in monomial {key}")
            if not all(1 <= i <= self.rank for i in key):
                raise BasisError(f"index out of range in monomial {key}")
            if c == 0:
                raise BasisError("zero coefficients must be dropped")

    def coefficient(self, key: Sequence[int]) -> int:
        return self.coeffs.get(tuple(key), 0)

    def is_one(self) -> bool:
        return dict(self.coeffs) == {(): 1}

    def __eq__(self, other) -> bool:
        return (isinstance(other, NonRepeatingSeries)
                and self.rank == other.rank
                and dict(self.coeffs) == dict(other.coeffs))

    def __str__(self) -> str:
        return format_series(self)


def one(rank: int) -> NonRepeatingSeries:
    return NonRepeatingSeries(rank, {(): 1})


def generator_series(rank: int, i: int, sign: int) -> NonRepeatingSeries:
    """The image 1 + X_i of a generator, or 1 - X_i of its inverse."""
    if not 1 <= i <= rank:
        raise BasisError(f"index {i} out of range for rank {rank}")
    return NonRepeatingSeries(rank, {(): 1, (i,): sign})


def series_mul(a: NonRepeatingSeries, b: NonRepeatingSeries) -> NonRepeatingSeries:
    """Distributive product; monomials with a repeated index vanish."""
    if a.rank != b.rank:
        raise BasisError(f"rank mismatch: {a.rank} vs {b.rank}")
    out: dict[tuple[int, ...], int] = {}
    for ka, ca in a.coeffs.items():
        seen = set(ka)
        for kb, cb in b.coeffs.items():
            if seen.intersection(kb):
                continue
            key = ka + kb
            val = out.get(key, 0) + ca * cb
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return NonRepeatingSeries(a.rank, out)


def _basis_index(codes: Sequence[int], basis: Sequence[Gen] | None) -> dict[int, int]:
    """Position 1..rank of each basis symbol by code; every letter must be in the basis.

    Without an explicit basis the letters' own symbols, sorted, serve as one.
    """
    if basis is None:
        basis = sorted({symbol(c) for c in codes}, key=Gen.sort_key)
    index = {code(gen): i + 1 for i, gen in enumerate(basis)}
    if len(index) != len(basis):
        raise BasisError("basis contains a repeated symbol")
    for c in codes:
        if (c if c > 0 else -c) not in index:
            raise BasisError(f"letter {symbol(c)} outside the basis")
    return index


def _expand(codes: Sequence[int], index: Mapping[int, int],
            base: int) -> tuple[dict[int, dict[int, int]], int]:
    """Mask-grouped image of the letters and its number of live monomials.

    ``groups[mask]`` maps each monomial whose letter set is ``mask`` (bit
    i for X_i), encoded in base ``base``, to its nonzero coefficient.
    Group 0 is always ``{0: 1}``, so the image is 1 iff one monomial lives.
    """
    groups: dict[int, dict[int, int]] = {0: {0: 1}}
    live = 1
    for c, run in groupby(codes):
        i = index[c if c > 0 else -c]
        k = len(list(run)) * (1 if c > 0 else -1)
        bit = 1 << i
        for mask, src in list(groups.items()):
            if mask & bit:
                continue
            dst = groups.get(mask | bit)
            if dst is None:
                groups[mask | bit] = {key * base + i: k * v for key, v in src.items()}
                live += len(src)
            else:
                before = len(dst)
                get = dst.get
                for key, v in src.items():
                    key = key * base + i
                    v = get(key, 0) + k * v
                    if v:
                        dst[key] = v
                    else:
                        del dst[key]
                live += len(dst) - before
                if not dst:
                    del groups[mask | bit]
            if live > MAX_MONOMIALS:
                raise ResourceLimitError(f"Magnus image exceeds {MAX_MONOMIALS} monomials")
    return groups, live


def magnus_image(w: Word, basis: Sequence[Gen] | None = None) -> NonRepeatingSeries:
    """Multiplicative extension of gen -> 1 + X_i over the given basis.

    Without an explicit basis the word's own letters, sorted, serve as
    one.  Letters outside the basis are rejected.
    """
    index = _basis_index(w.codes, basis)
    base = len(index) + 1
    groups, _ = _expand(w.codes, index, base)
    keys: dict[int, tuple[int, ...]] = {0: ()}

    def decode(key: int) -> tuple[int, ...]:  # memoized: images share prefixes
        t = keys.get(key)
        if t is None:
            prefix, i = divmod(key, base)
            t = keys[key] = decode(prefix) + (i,)
        return t

    coeffs = {decode(key): v for group in groups.values() for key, v in group.items()}
    return NonRepeatingSeries(len(index), coeffs)


def is_rf_trivial(w: Word, basis: Sequence[Gen] | None = None) -> bool:
    """True iff the word maps to 1 under the non-repeating expansion.

    Only the cyclically reduced core u of w = c u c^-1 is expanded; every
    letter of w, c included, must lie in the basis.
    """
    codes = w.codes
    index = _basis_index(codes, basis)
    k, n = 0, len(codes)
    while k < n - 1 - k and codes[k] == -codes[n - 1 - k]:
        k += 1
    _, live = _expand(codes[k:n - k], index, len(index) + 1)
    return live == 1


def mu_coefficient(w: Word, indices: Sequence[int],
                   basis: Sequence[Gen] | None = None) -> int:
    """Coefficient of the monomial X_{i1}..X_{im} in the image of w."""
    key = tuple(indices)
    if len(set(key)) != len(key):
        raise BasisError(f"repeated index in {key}")
    return magnus_image(w, basis).coefficient(key)


def format_series(s: NonRepeatingSeries) -> str:
    """Render like ``1 + X1X2 - X2X1``; monomials in length-then-index order."""
    if not s.coeffs:
        return "0"
    parts = []
    for key in sorted(s.coeffs, key=lambda k: (len(k), k)):
        c = s.coeffs[key]
        mono = "".join(f"X{i}" for i in key) or "1"
        mag = abs(c)
        body = mono if mag == 1 and key else (str(mag) if not key else f"{mag}{mono}")
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
