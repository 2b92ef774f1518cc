"""Handle reduction: word problem and left-ordering oracle for crossing-only
words (the classical braid group inside the surface braid group).

A handle is a subword  s_i^e v s_i^-e  whose interior v uses only
indices > i.  Reducing it deletes the two s_i letters and rewrites each
interior s_(i+1)^d as s_(i+1)^-e s_i^d s_(i+1)^e, an identity that
follows from the braid relations.  Every reduction sequence terminates;
a handle-free word is empty, or its lowest occurring index appears with
one sign only (sigma-positive / sigma-negative), which decides
triviality and the left order.
"""

from __future__ import annotations

import enum

from braidhomotopy.perms import UnsupportedLetterError
from braidhomotopy.words import Word, concat, invert, sigma, symbol


class StepLimitError(RuntimeError):
    """Raised when a reduction exceeds its step cap (diagnostic, not semantic)."""


class OrderVerdict(enum.Enum):
    LESS = "<"
    EQUAL = "="
    GREATER = ">"


DEFAULT_STEP_CAP = 1_000_000


def _sigma_letters(w: Word) -> list[tuple[int, int]]:
    out = []
    for c in w.codes:
        gen = symbol(c)
        if gen.kind != "s":
            raise UnsupportedLetterError(f"handle reduction needs crossing letters only, got {gen}")
        out.append((gen.i, 1 if c > 0 else -1))
    return out


_NO_INTERIOR = 1 << 30


def _all_handles(letters: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """All handles as (index, open position, close position).

    Handle endpoints are consecutive occurrences of the same index, so a
    single scan tracking the minimum interior index since the previous
    occurrence finds every handle.
    """
    handles = []
    last_seen: dict[int, int] = {}
    interior_min: dict[int, int] = {}
    for q, (i, e) in enumerate(letters):
        p = last_seen.get(i)
        if p is not None and letters[p][1] == -e and interior_min[i] > i:
            handles.append((i, p, q))
        for j in interior_min:
            if j != i:
                interior_min[j] = min(interior_min[j], i)
        last_seen[i] = q
        interior_min[i] = _NO_INTERIOR
    return handles


def _find_handle(letters: list[tuple[int, int]]) -> tuple[int, int] | None:
    """Pick the permitted handle with the lowest index, then leftmost.

    A handle is permitted when it encloses no handle of the next index
    up; reducing a non-permitted handle can regenerate itself forever.
    The earliest-closing handle encloses nothing, so whenever a handle
    exists a permitted one does too.
    """
    handles = _all_handles(letters)
    if not handles:
        return None
    best: tuple[int, int, int] | None = None
    for i, p, q in handles:
        if any(hi == i + 1 and p < hp and hq < q for hi, hp, hq in handles):
            continue
        if best is None or (i, p) < (best[0], best[1]):
            best = (i, p, q)
    return best[1], best[2]


def _reduce_once(letters: list[tuple[int, int]], p: int, q: int) -> list[tuple[int, int]]:
    i, e = letters[p]
    mid = []
    for j, d in letters[p + 1:q]:
        if j == i + 1:
            mid.extend([(i + 1, -e), (i, d), (i + 1, e)])
        else:
            mid.append((j, d))
    out: list[tuple[int, int]] = []
    for let in letters[:p] + mid + letters[q + 1:]:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return out


def handle_reduce(w: Word, step_cap: int = DEFAULT_STEP_CAP) -> Word:
    """Return a handle-free word equal to w in the braid group."""
    letters = _sigma_letters(w)
    steps = 0
    while True:
        found = _find_handle(letters)
        if found is None:
            break
        steps += 1
        if steps > step_cap:
            raise StepLimitError(f"handle reduction exceeded {step_cap} steps")
        letters = _reduce_once(letters, *found)
    return Word(tuple((sigma(i), e) for i, e in letters), w.context)


def main_sign(w: Word) -> int:
    """Sign pattern of the lowest-index letter: +1, -1, or 0 for empty.

    Meaningful on handle-free words, where the lowest occurring index is
    guaranteed to appear with a single sign.
    """
    if not w.letters:
        return 0
    low = min(gen.i for gen, _ in w.letters)
    signs = {e for gen, e in w.letters if gen.i == low}
    if signs == {1}:
        return 1
    if signs == {-1}:
        return -1
    raise ValueError("word is not handle-free")


def is_trivial_braid(w: Word, step_cap: int = DEFAULT_STEP_CAP) -> bool:
    """True iff the crossing-only word represents the trivial braid."""
    return not handle_reduce(w, step_cap).letters


def braid_compare(u: Word, v: Word, step_cap: int = DEFAULT_STEP_CAP) -> OrderVerdict:
    """Left order: compare via the handle-free form of u^-1 v.

    Sigma-positive quotient means u < v.
    """
    reduced = handle_reduce(concat(invert(u), v), step_cap)
    sign = main_sign(reduced)
    if sign == 0:
        return OrderVerdict.EQUAL
    return OrderVerdict.LESS if sign > 0 else OrderVerdict.GREATER


def braid_verdict(w: Word, step_cap: int = DEFAULT_STEP_CAP) -> str:
    """CLI-facing verdict for one word: trivial, positive, or negative."""
    sign = main_sign(handle_reduce(w, step_cap))
    return {0: "trivial", 1: "positive", -1: "negative"}[sign]
