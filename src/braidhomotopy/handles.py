"""Handle reduction: word problem and left-ordering oracle for crossing-only
words (the classical braid group inside the surface braid group).

A handle is a subword  s_i^e v s_i^-e  whose interior v uses only
indices > i.  Reducing it deletes the two s_i letters and rewrites each
interior s_(i+1)^d as s_(i+1)^-e s_i^d s_(i+1)^e, an identity that
follows from the braid relations.  Permitted handles (no handle of the
next index up inside) can be reduced in any order and the process
terminates; a handle-free word is empty, or its lowest occurring index
appears with one sign only (sigma-positive / sigma-negative), which
decides triviality and the left order.

Reduction order, after Dehornoy ("A fast method for comparing braids",
1997): one forward scan over a list of signed indices always reduces
the first handle to close.  That handle contains no other handle, so it
is permitted.  It is rewritten in place, with free cancellation at both
junctions, and the scan resumes at the first changed position.  The
prefix before that position is unchanged and therefore handle-free, so
its scan state is rebuilt by a short backward scan that stops at the
first s_1 (no index lies below it).
"""

from __future__ import annotations

import enum

from braidhomotopy.words import (
    ResourceLimitError,
    UnsupportedLetterError,
    Word,
    code,
    concat,
    invert,
    sigma,
    symbol,
)


class StepLimitError(ResourceLimitError):
    """Raised when a reduction exceeds its step cap (diagnostic, not semantic)."""


class OrderVerdict(enum.Enum):
    LESS = "<"
    EQUAL = "="
    GREATER = ">"


DEFAULT_STEP_CAP = 1_000_000


def _signed_indices(w: Word) -> list[int]:
    """The word as signed crossing indices: +i for s_i, -i for s_i^-1."""
    index = {}
    for c in set(map(abs, w.codes)):
        gen = symbol(c)
        if gen.kind != "s":
            raise UnsupportedLetterError(f"handle reduction needs crossing letters only, got {gen}")
        index[c], index[-c] = gen.i, -gen.i
    return [index[c] for c in w.codes]


def _open_positions(word: list[int], r: int) -> list[int]:
    """Scan state after word[:r]: for each index i, from low to high, the
    last position of i whose letters since then all have indices > i."""
    stack, low, s = [], 1 << 30, r - 1
    while s >= 0 and low > 1:
        if abs(word[s]) < low:
            stack.append(s)
            low = abs(word[s])
        s -= 1
    stack.reverse()
    return stack


def check_step_cap(step_cap: int) -> None:
    """Refuse a negative step cap; 0 allows no handle reduction."""
    if step_cap < 0:
        raise ValueError(f"step_cap must be >= 0, got {step_cap}")


def handle_reduce(w: Word, step_cap: int = DEFAULT_STEP_CAP) -> Word:
    """Return a handle-free word equal to w in the braid group.

    ``step_cap`` (>= 0) bounds the number of handle reductions.
    """
    check_step_cap(step_cap)
    word = _signed_indices(w)
    stack: list[int] = []  # _open_positions(word, q), kept up to date
    q = steps = 0
    while q < len(word):
        c = word[q]
        i = abs(c)
        while stack and abs(word[stack[-1]]) > i:
            stack.pop()
        if not stack or word[stack[-1]] != -c:
            if stack and word[stack[-1]] == c:
                stack.pop()
            stack.append(q)
            q += 1
            continue
        steps += 1
        if steps > step_cap:
            raise StepLimitError(f"handle reduction exceeded {step_cap} steps")
        p = stack.pop()
        up, down = (i + 1, -i - 1) if word[p] > 0 else (-i - 1, i + 1)
        mid: list[int] = []
        for d in word[p + 1:q]:
            for x in ((down, i if d > 0 else -i, up) if abs(d) == i + 1 else (d,)):
                if mid and mid[-1] == -x:
                    mid.pop()
                else:
                    mid.append(x)
        # free cancellation at the junctions of word[:p], mid and word[q + 1:]
        left, right, a, b = p, q + 1, 0, len(mid)
        while left and a < b and word[left - 1] == -mid[a]:
            left, a = left - 1, a + 1
        while right < len(word) and a < b and mid[b - 1] == -word[right]:
            right, b = right + 1, b - 1
        while a == b and left and right < len(word) and word[left - 1] == -word[right]:
            left, right = left - 1, right + 1
        word[left:right] = mid[a:b]
        q = left
        stack = _open_positions(word, q)
    codes = {i: code(sigma(i)) for i in set(map(abs, word))}
    return Word.from_codes(tuple(codes[c] if c > 0 else -codes[-c] for c in word), w.context)


def main_sign(w: Word) -> int:
    """Sign pattern of the lowest-index letter: +1, -1, or 0 for empty.

    Meaningful on handle-free words, where the lowest occurring index is
    guaranteed to appear with a single sign.
    """
    if not w.codes:
        return 0
    index = {c: symbol(c).i for c in set(w.codes)}
    low = min(index.values())
    signs = {c > 0 for c in index if index[c] == low}
    if len(signs) > 1:
        raise ValueError("word is not handle-free")
    return 1 if signs == {True} else -1


def is_trivial_braid(w: Word, step_cap: int = DEFAULT_STEP_CAP) -> bool:
    """True iff the crossing-only word represents the trivial braid."""
    return not handle_reduce(w, step_cap).codes


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
