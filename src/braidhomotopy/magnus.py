"""Magnus expansion into the non-repeating monomial ring.

Generators map to 1 + X_i and inverses to 1 - X_i; any monomial with a
repeated letter is identically zero, which makes the ring
finite-dimensional and every image exact.  The kernel of this expansion
contains every relator [x, x^g], so it decides triviality in the
reduced free group up to the faithfulness of the classical invariant:
verdicts are reported relative to the invariant, never as absolute
word-problem answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from braidhomotopy.words import Gen, Word, code, symbol


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


def magnus_image(w: Word, basis: Sequence[Gen] | None = None) -> NonRepeatingSeries:
    """Multiplicative extension of gen -> 1 + X_i over the given basis.

    Without an explicit basis the word's own letters, sorted, serve as
    one.  Letters outside the basis are rejected.
    """
    if basis is None:
        basis = sorted({symbol(c) for c in w.codes}, key=Gen.sort_key)
    index = {code(gen): i + 1 for i, gen in enumerate(basis)}
    if len(index) != len(basis):
        raise BasisError("basis contains a repeated symbol")
    rank = len(basis)
    # multiply left-to-right by (1 +/- X_i): cheap incremental update
    coeffs: dict[tuple[int, ...], int] = {(): 1}
    for c in w.codes:
        i = index.get(c if c > 0 else -c)
        if i is None:
            raise BasisError(f"letter {symbol(c)} outside the basis")
        e = 1 if c > 0 else -1
        out = dict(coeffs)
        for key, c in coeffs.items():
            if i in key:
                continue
            key2 = key + (i,)
            val = out.get(key2, 0) + e * c
            if val:
                out[key2] = val
            elif key2 in out:
                del out[key2]
        coeffs = out
    return NonRepeatingSeries(rank, coeffs)


def is_rf_trivial(w: Word, basis: Sequence[Gen] | None = None) -> bool:
    """True iff the word maps to 1 under the non-repeating expansion."""
    return magnus_image(w, basis).is_one()


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
