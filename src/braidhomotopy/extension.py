"""Extension-presentation assembly, Tietze generator elimination, and
Todd-Coxeter coset enumeration.

Given a short exact sequence with presented kernel and quotient, the
assembled presentation has the kernel relators (type 1), the lifted
quotient relators rewritten into kernel words (type 2), and one
conjugation relator per lifted-generator/kernel-generator pair
(type 3).  The braid-specific data for the generalized string-link
quotient ships as a built-in constructor whose conjugation words are
derived from the defining rewrite rules; every band-conjugation formula
is certified against handle reduction in the test suite.

Coset enumeration is Hazelrigg-Leech-Todd with a backward scan: cosets
are defined only inside the gap a relator's forward and backward scans
leave, and the gap's last letter is deduced (see ``todd_coxeter``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Sequence

from braidhomotopy.presentations import (
    Presentation,
    RelatorFamily,
    _fields,
    _presentation,
    exponent_rows,
    presentation_from_doc,
    presentation_to_doc,
    pure_homotopy_presentation,
    symmetric_presentation,
)
from braidhomotopy.words import (
    Gen,
    ResourceLimitError,
    Word,
    band,
    code,
    concat,
    concat_all,
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


class IncompleteDataError(ValueError):
    """Raised when extension data misses a lift or kernel-expression entry."""


class TietzeError(ValueError):
    """Raised when the defining relator does not isolate the generator."""


# ---------------------------------------------------------------------------
# conjugation of kernel generators by crossings


def sigma_conj_band(k: int, i: int, j: int, n: int, g: int) -> Word:
    """s_k t_{i,j} s_k^-1 as a word in band generators.

    Derived from the defining rewrites and certified against handle
    reduction for every index combination with n <= 6.
    """
    ctx = (n, g)
    if k == i - 1:
        return gen_word(band(i - 1, j), n, g)
    if k == i and j == i + 1:
        return gen_word(band(i, j), n, g)
    if k == i:
        return Word(((band(i, i + 1), 1), (band(i + 1, j), 1), (band(i, i + 1), -1)), ctx)
    if k == j - 1:
        return gen_word(band(i, j - 1), n, g)
    if k == j:
        return Word(((band(i, j), -1), (band(i, j + 1), 1), (band(i, j), 1)), ctx)
    return gen_word(band(i, j), n, g)


def sigma_conj_loop(k: int, i: int, r: int, n: int, g: int,
                    wrong_parity: bool = False) -> Word:
    """s_k a_{i,r} s_k^-1 as a word in loop/band generators.

    Strands away from the crossing commute; the adjacent cases follow
    the parity-dependent defining rewrites.  ``wrong_parity`` flips the
    parity branch, a deliberate fault used to prove checks non-vacuous.
    """
    ctx = (n, g)
    even = (r % 2 == 0) != wrong_parity
    if i == k:
        if even:
            return Word(((loop(k + 1, r), 1), (band(k, k + 1), -1)), ctx)
        return Word(((band(k, k + 1), 1), (loop(k + 1, r), 1)), ctx)
    if i == k + 1:
        if even:
            return Word(((band(k, k + 1), 1), (loop(k, r), 1)), ctx)
        return Word(((loop(k, r), 1), (band(k, k + 1), -1)), ctx)
    return gen_word(loop(i, r), n, g)


def _sigma_conj_gen(k: int, gen: Gen, n: int, g: int, wrong_parity: bool = False) -> Word:
    if gen.kind == "a":
        return sigma_conj_loop(k, gen.i, gen.j, n, g, wrong_parity)
    if gen.kind == "t":
        return sigma_conj_band(k, gen.i, gen.j, n, g)
    raise ValueError(f"not a kernel letter: {gen}")


def sigma_conj_word(w: Word, k: int, n: int, g: int,
                    wrong_parity: bool = False) -> Word:
    """Conjugate a loop/band word by s_k, letter by letter."""
    return substitute(w, lambda gen: _sigma_conj_gen(k, gen, n, g, wrong_parity))


# ---------------------------------------------------------------------------
# extension data and assembly


@dataclass(frozen=True)
class ExtensionData:
    """Everything the extension assembler needs.

    ``lifts`` maps each quotient generator to its chosen pre-image
    symbol; ``rel_words`` maps each quotient relator label to the kernel
    word its lift equals; ``conj_words`` maps (quotient generator,
    kernel generator) to the kernel word for lift * x * lift^-1.
    """

    kernel: Presentation
    quotient: Presentation
    lifts: dict[Gen, Gen]
    rel_words: dict[str, Word]
    conj_words: dict[tuple[Gen, Gen], Word]

    def validate(self) -> None:
        kernel_codes = {code(x) for x in self.kernel.generators}
        for y in self.quotient.generators:
            if y not in self.lifts:
                raise IncompleteDataError(f"missing lift for quotient generator {y}")
        for label in self.quotient.labels:
            if label not in self.rel_words:
                raise IncompleteDataError(f"missing kernel expression for relator {label}")
        for y in self.quotient.generators:
            for x in self.kernel.generators:
                if (y, x) not in self.conj_words:
                    raise IncompleteDataError(
                        f"missing conjugation word for pair ({y}, {x})")
        for where, word in [(label, w) for label, w in self.rel_words.items()] + \
                [(f"({y}, {x})", w) for (y, x), w in self.conj_words.items()]:
            for c in word.codes:
                if abs(c) not in kernel_codes:
                    raise IncompleteDataError(
                        f"kernel expression for {where} uses non-kernel letter {symbol(c)}")


def assemble_extension(data: ExtensionData) -> Presentation:
    """Presentation of the middle group of a short exact sequence.

    Kernel relator families are materialized at their stored bound, so
    the result carries finite relators only.  A lift symbol equal to a
    kernel generator, or to another lift, raises ValueError.
    """
    data.validate()
    kernel, quotient = data.kernel, data.quotient
    gens = kernel.generators + tuple(data.lifts[y] for y in quotient.generators)
    n, g = kernel.n, kernel.g
    rels = [(f"A:{label}", rel) for label, rel in kernel.iter_relators()]
    for label, rel in zip(quotient.labels, quotient.relators):
        lifted = substitute(rel, lambda gen: gen_word(data.lifts[gen], n, g))
        rels.append((f"Q:{label}", concat(lifted, invert(data.rel_words[label]))))
    for y in quotient.generators:
        ty = gen_word(data.lifts[y], n, g)
        for x in kernel.generators:
            lhs = concat_all([ty, gen_word(x, n, g), invert(ty)])
            rels.append((f"C[y={data.lifts[y]},x={x}]",
                         concat(lhs, invert(data.conj_words[(y, x)]))))
    return _presentation("extension", n, g, kernel.closed, kernel.lh_bound, gens, rels)


def braid_extension_data(n: int, g: int, closed: bool, lh_bound: int) -> ExtensionData:
    """Built-in data presenting the generalized string-link quotient as an
    extension of the pure string-link group by the symmetric group."""
    kernel = pure_homotopy_presentation(n, g, closed, lh_bound)
    quotient = symmetric_presentation(n)
    lifts = {y: sigma(idx + 1) for idx, y in enumerate(quotient.generators)}
    rel_words = {label: Word((), (n, g)) for label in quotient.labels}
    for i in range(1, n):
        rel_words[f"SR3[i={i}]"] = gen_word(band(i, i + 1), n, g)
    conj_words: dict[tuple[Gen, Gen], Word] = {}
    for idx, y in enumerate(quotient.generators):
        for x in kernel.generators:
            conj_words[(y, x)] = _sigma_conj_gen(idx + 1, x, n, g)
    return ExtensionData(kernel, quotient, lifts, rel_words, conj_words)


# ---------------------------------------------------------------------------
# Tietze elimination


def tietze_eliminate(p: Presentation, gen: Gen, defining: Word) -> Presentation:
    """Remove a generator using a relator that mentions it exactly once.

    The relator x gen^e y = 1 gives gen^-e = y x.  Every relator is
    substituted and freely reduced; those that collapse to the empty word
    disappear, the defining relator (now x x^-1 y^-1 y) among them.
    """
    if p.families:
        raise TietzeError("materialize relator families before Tietze moves")
    if defining not in p.relators:
        raise TietzeError("defining relator is not a relator of the presentation")
    codes, c = defining.codes, code(gen)
    occurrences = [k for k, cur in enumerate(codes) if abs(cur) == c]
    if len(occurrences) != 1:
        raise TietzeError(f"relator does not isolate {gen}: {len(occurrences)} occurrences")
    k = occurrences[0]
    yx = join_codes(codes[k + 1:], codes[:k])
    repl = Word.from_codes(yx if codes[k] < 0 else inverse_codes(yx), defining.context)
    new_rels = []
    new_labels = []
    for label, rel in zip(p.labels, p.relators):
        sub = substitute(rel, lambda cur: repl if cur == gen
                         else Word.from_codes((code(cur),), rel.context))
        if sub:
            new_rels.append(sub)
            new_labels.append(label)
    gens = tuple(x2 for x2 in p.generators if x2 != gen)
    return replace(p, generators=gens, relators=tuple(new_rels), labels=tuple(new_labels))


def find_isolating_relator(p: Presentation, gen: Gen) -> Word | None:
    """Shortest relator mentioning the generator exactly once, if any."""
    c = code(gen)
    isolating = [rel for rel in p.relators if rel.codes.count(c) + rel.codes.count(-c) == 1]
    return min(isolating, key=len, default=None)


def eliminate_all(p: Presentation, gens: Sequence[Gen]) -> Presentation:
    """Chain Tietze eliminations over the listed generators in order."""
    for gen in gens:
        defining = find_isolating_relator(p, gen)
        if defining is None:
            raise TietzeError(f"no isolating relator for {gen}")
        p = tietze_eliminate(p, gen, defining)
    return p


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration


_UNDEF = -1


class CosetTable:
    """Closed (or overflowed) coset table over generator/inverse columns.

    ``CosetTable(generators, rows, status)`` holds the given rows.  A table
    from ``todd_coxeter`` holds the enumeration's own rows (whose entries may
    name dead cosets), union-find ``labels`` and ``live`` count, which is
    ``coset_count``.  The first read of ``rows`` numbers the live cosets, under
    a lock so that concurrent readers see only the finished rows, and drops
    the enumeration's; a caller that reads only the count never renumbers.
    """

    __slots__ = ("generators", "status", "_rows", "_raw", "_live", "_lock")

    def __init__(self, generators: tuple[Gen, ...], rows: list[list[int]], status: str,
                 *, labels: list[int] | None = None, live: int = 0) -> None:
        self.generators, self.status, self._lock = generators, status, threading.Lock()
        if labels is None:
            self._rows, self._raw, self._live = rows, None, len(rows)
        else:
            self._rows, self._raw, self._live = None, (rows, labels), live

    @property
    def rows(self) -> list[list[int]]:
        """One row per live coset, in order of definition; an entry is a row
        number, or ``_UNDEF`` where an overflowed table has none."""
        if self._rows is None:
            with self._lock:
                if self._rows is None:
                    self._rows = _renumber(*self._raw)
                    self._raw = None
        return self._rows

    @property
    def coset_count(self) -> int:
        """The live cosets: the index, if the table is closed."""
        return self._live

    def __eq__(self, other):
        if not isinstance(other, CosetTable):
            return NotImplemented
        return (self.generators, self.rows, self.status) == (other.generators, other.rows,
                                                              other.status)

    def __repr__(self) -> str:
        return f"CosetTable({self.generators!r}, {self.rows!r}, {self.status!r})"

    def __reduce__(self):  # a lock does not pickle: pickle the numbered rows
        return CosetTable, (self.generators, self.rows, self.status)

    def to_csv(self) -> str:
        header = ["coset"]
        for gen in self.generators:
            header += [str(gen), f"{gen}^-1"]
        lines = [",".join(header)]
        for idx, row in enumerate(self.rows):
            cells = [str(idx + 1)]
            cells += [str(v + 1) if v != _UNDEF else "" for v in row]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def act(self, word: Sequence[int], cosets: Sequence[int] | None = None) -> list[int]:
        """The coset c·w of each of the cosets (default: all), for a word given
        as columns.  A closed table is the action ρ of the group on the cosets,
        and ``act(w)`` is the permutation ρ(w); any other raises ValueError, as
        its undefined entries name no coset."""
        if self.status != "closed":
            raise ValueError(f"act needs a closed coset table, not one with status "
                             f"{self.status!r}")
        rows = self.rows
        images = list(range(len(rows))) if cosets is None else list(cosets)
        for col in word:
            images = [rows[c][col] for c in images]
        return images

    def fixes(self, words: Sequence[list[int]], cosets: Sequence[int] | None = None) -> bool:
        """Whether every word, given as columns, leads each of the cosets
        (default: all) back to itself; ``cosets=[0]`` asks whether each word
        lies in the subgroup, the stabilizer of coset 1."""
        starts = self.act([], cosets)
        return all(self.act(word, starts) == starts for word in words)

    def validate(self, relators: Sequence[list[int]], subgroup: Sequence[list[int]]) -> bool:
        """Consistency: every column 2k + 1 undoes column 2k (so both are
        permutations), relators trace home, subgroup words fix coset 1."""
        rows, ncols = self.rows, 2 * len(self.generators)
        if self.status != "closed" or not rows or any(
                len(row) != ncols or not all(0 <= v < len(rows) for v in row) for row in rows):
            return False
        return (all(rows[row[col]][col + 1] == c
                    for c, row in enumerate(rows) for col in range(0, ncols, 2))
                and self.fixes(relators) and self.fixes(subgroup, [0]))


def word_to_columns(w: Word, generators: Sequence[Gen]) -> list[int]:
    return _columns_of(w.codes, _columns(generators))


def _columns(generators: Sequence[Gen]) -> dict[int, int]:
    """Letter code -> coset-table column: 2k for generator k, 2k + 1 for its inverse."""
    return {s * code(gen): 2 * k + (s < 0) for k, gen in enumerate(generators) for s in (1, -1)}


def _columns_of(codes: Sequence[int], columns: dict[int, int]) -> list[int]:
    try:
        return [columns[c] for c in codes]
    except KeyError:
        bad = next(c for c in codes if c not in columns)
        raise ValueError(f"word letter {symbol(bad)} is not a presentation generator") from None


class _Overflow(Exception):
    pass


DEFAULT_MAX_COSETS = 100_000
# memory ceiling of one enumeration: a defined coset costs at most about
# _COSET_BYTES plus _COLUMN_BYTES per column (343-4,391 B measured at 2-202
# columns): its row and label, and its share of the numbered rows that the
# first read of CosetTable.rows builds beside them; a caller that reads only
# the count never builds those.  A coset's row is freed when it dies, so the
# estimate is an upper bound
MAX_TABLE_BYTES = 256 << 20
_COSET_BYTES, _COLUMN_BYTES = 320, 24


def todd_coxeter(p: Presentation, subgroup: Sequence[Word],
                 max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Enumerate cosets of the subgroup generated by the given words.

    Hazelrigg-Leech-Todd with a backward scan: subgroup words are traced
    from coset 1, then each live coset in order traces every relator and
    fills its row.  A trace runs forward over the word and backward over
    its inverse until each meets an undefined entry; cosets are defined
    only inside the gap between the two, whose last letter is deduced.
    Each relator is first traced inline, one lookup per letter: a trace
    that gets back to its coset needs no scan, and any other scan resumes
    where the trace stopped.
    Scans that meet unify their ends.  A closed table's coset count is
    the index and its rows are the live cosets in order of definition.
    The count is the enumeration's live count; the rows are numbered on
    their first read (``CosetTable.rows``), so a caller that reads only
    the count, as ``tc`` without ``--table-out`` does, never renumbers.
    ``max_cosets`` caps the cosets defined, live or dead, by each
    enumeration, and exceeding it gives status "overflow", not an error.
    Defining a coset past ``MAX_TABLE_BYTES`` of estimated memory, below
    the cap, raises ResourceLimitError; so does a family strand over the
    conjugator cap, before anything is enumerated.

    The enumeration runs in stages.  The first enumerates over the finite
    relators alone.  If its table closes and every family relator, at its
    stored bound, fixes every coset (``_families_fix_every_coset``, which
    builds no relator), that table is returned.  Otherwise the families are
    streamed once; an empty stream returns the first table, and any other
    reruns the enumeration from scratch over all relators, finite ones
    first.  So every overflow, and every index the one-stage enumeration
    reaches, stays as it was; the first stage may also close where that
    one overflows, and its table may number cosets differently.

    A first stage that cannot close is skipped.  An enumeration closes
    exactly when the index is finite, and if the exponent sums of the
    subgroup words and the finite relators span less than Z^k, over k
    generators, the group maps onto the infinite Z^k / span with the
    subgroup in the kernel, so the index is infinite.  Every family
    relator is a commutator, with zero exponent sums, so neither stage can
    close: with families, ``_rank`` checks this first, on the rows of
    ``presentations.exponent_rows`` that ``h1`` reads too, and where it holds
    only the rerun runs (on an empty stream, that is the first stage
    itself), with the status, live count and memory refusal the two
    stages give.  A first stage with a finite abelian quotient that still
    overflows, such as that of <s1 s2, s2 s1^2 s2^-1> in Goldsmith's
    group on 3 strands, is still followed by the rerun.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    gens = p.generators
    for fam in p.families:
        fam.check_cap()
    columns = _columns(gens)
    finite = [_columns_of(w.codes, columns) for w in p.relators]
    subgroup_cols = [_columns_of(w.codes, columns) for w in subgroup]
    k = len(gens)
    staged = not p.families or _rank(exponent_rows(p, [*subgroup, *p.relators]), k) == k
    if staged:
        table = _enumerate(gens, finite, subgroup_cols, max_cosets)
        if table.status == "closed" and _families_fix_every_coset(table, p.families, columns):
            return table
    families = [_columns_of(w.codes, columns)
                for _, w in islice(p.iter_relators(), len(p.relators), None)]
    if staged and not families:
        return table
    table = None  # so the rerun alone holds a table
    return _enumerate(gens, finite + families, subgroup_cols, max_cosets)


def _rank(rows: Iterable[Sequence[int]], k: int) -> int:
    """Rank over Q of integer rows of length k, read only until it reaches k.

    Exact fraction-free elimination: each row is cleared, left to right,
    against the echelon row of each pivot column it meets, and the first
    column it has no pivot for takes it, divided by its content, as the
    (pivot entry, nonzero entries) of that column's echelon row.  A pivot
    entry of +-1, the usual case, clears a row without scaling it."""
    echelon: dict[int, tuple[int, list[tuple[int, int]]]] = {}
    for row in rows:
        row = list(row)
        for col in range(k):
            x = row[col]
            if not x:
                continue
            if (pivot := echelon.get(col)) is None:
                d = math.gcd(*row)
                echelon[col] = (x // d, [(c, a // d) for c, a in enumerate(row) if a])
                if len(echelon) == k:
                    return k
                break
            p, entries = pivot
            if p == 1 or p == -1:
                x *= p
            else:
                row = [p * a for a in row]
            for c, b in entries:
                row[c] -= x * b
    return len(echelon)


def _families_fix_every_coset(table: CosetTable, families: Sequence[RelatorFamily],
                              columns: dict[int, int]) -> bool:
    """Whether every family relator, at its bound, fixes every coset of the
    closed table: the table is the action ρ of ``CosetTable.act``, and
    [t, h t h^-1] fixes every coset iff ρ(t) commutes with ρ(h t h^-1).  A t
    with ρ(t) = 1 is skipped; a strand with no other t builds no conjugator h."""
    identity = list(range(table.coset_count))
    for fam in families:
        for i, ts in fam.bands().items():
            moving = [rt for _, t in ts if (rt := table.act(_columns_of(t, columns))) != identity]
            for _, hw, hw_inv in fam.conjugators(i) if moving else ():
                h, h_inv = table.act(_columns_of(hw, columns)), _columns_of(hw_inv, columns)
                for rt in moving:
                    x = table.act(h_inv, [rt[d] for d in h])  # c ↦ c·h t h^-1
                    if [x[d] for d in rt] != [rt[d] for d in x]:
                        return False
    return True


def _enumerate(gens: tuple[Gen, ...], relators: list[list[int]],
               subgroup_cols: list[list[int]], max_cosets: int) -> CosetTable:
    """One HLT enumeration over relators and subgroup words given as columns."""
    ncols = 2 * len(gens)
    fit = MAX_TABLE_BYTES // (_COSET_BYTES + _COLUMN_BYTES * ncols)
    most = min(max_cosets, fit)
    # union-find over cosets (labels[c] == c iff c is live, else an older
    # coset) and one row per coset; a live row's entries may name dead
    # cosets, and every dead coset's row is the one all-_UNDEF row ``dead``,
    # which nothing writes to, so a trace that enters a dead coset stops
    labels = [0]
    table = [[_UNDEF] * ncols]
    dead = [_UNDEF] * ncols
    merged = 0  # cosets unify has killed: the live count is len(labels) - merged

    def rep(c: int) -> int:
        while labels[c] != c:
            labels[c] = c = labels[labels[c]]
        return c

    def unify(c1: int, c2: int) -> None:
        nonlocal merged
        queue = [(c1, c2)]
        while queue:
            a, b = queue.pop()
            a = a if labels[a] == a else rep(a)
            b = b if labels[b] == b else rep(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            labels[b] = a
            merged += 1
            row_a, row_b, table[b] = table[a], table[b], dead
            # entries are defined in inverse pairs, so nb's row already
            # leads back into b's class, which is now a's
            for col, nb in enumerate(row_b):
                if nb == _UNDEF:
                    continue
                if row_a[col] == _UNDEF:
                    row_a[col] = nb
                else:
                    queue.append((row_a[col], nb))

    def define(f: int, col: int) -> int:
        d = len(labels)
        if d >= most:
            if d >= max_cosets:
                raise _Overflow
            raise ResourceLimitError(
                f"a coset table over {len(gens)} generators passes the memory ceiling "
                f"of {MAX_TABLE_BYTES >> 20} MiB at {fit} cosets")
        labels.append(d)
        table.append([_UNDEF] * ncols)
        table[f][col], table[d][col ^ 1] = d, f
        return d

    def scan_and_fill(c: int, word: list[int], f: int, i: int) -> None:
        # the forward scan resumes at coset f, letter i of a trace from c,
        # or restarts from c if f has died
        if labels[f] != f:
            f, i = c, 0
        b, j = c, len(word) - 1
        while i <= j and (x := table[f][word[i]]) != _UNDEF:
            if labels[x] != x:
                x = table[f][word[i]] = rep(x)
            f, i = x, i + 1
        while j >= i and (x := table[b][word[j] ^ 1]) != _UNDEF:
            if labels[x] != x:
                x = table[b][word[j] ^ 1] = rep(x)
            b, j = x, j - 1
        if j < i:
            if f != b:
                unify(f, b)
            return
        while i < j:
            f, i = define(f, word[i]), i + 1
        table[f][word[j]] = b
        back = table[b][word[j] ^ 1]
        if back == _UNDEF:
            table[b][word[j] ^ 1] = f
        else:  # the gap's first definition filled it
            unify(back, f)

    status = "closed"
    try:
        for word in subgroup_cols:
            scan_and_fill(0, word, 0, 0)
        c = 0
        while c < len(labels):
            if labels[c] == c:
                for rel in relators:
                    # trace rel from c; a trace that gets back to c leaves
                    # the scan nothing to do
                    f, i = c, 0
                    for col in rel:
                        x = table[f][col]
                        if x < 0:
                            break
                        f, i = x, i + 1
                    else:
                        if f == c:
                            continue
                    scan_and_fill(c, rel, f, i)
                    if labels[c] != c:
                        break
                else:
                    for col in range(ncols):
                        if table[c][col] == _UNDEF:
                            define(c, col)
            c += 1
    except _Overflow:
        status = "overflow"
    return CosetTable(gens, table, status, labels=labels, live=len(labels) - merged)


def _renumber(table: list[list[int]], labels: list[int]) -> list[list[int]]:
    """The rows of the live cosets of an enumeration's table, numbered 0.. in
    order of definition, with each entry's coset replaced by its live class."""
    # a dead coset's label is older, so its row number is already known
    number, live = [], []
    for c, label in enumerate(labels):
        number.append(len(live) if label == c else number[label])
        if label == c:
            live.append(c)
    number.append(_UNDEF)  # number[_UNDEF] is _UNDEF
    return [[number[v] for v in table[c]] for c in live]


# ---------------------------------------------------------------------------
# serialization


def extension_data_to_json(data: ExtensionData) -> str:
    import json

    doc = {
        "kernel": presentation_to_doc(data.kernel),
        "quotient": presentation_to_doc(data.quotient),
        "lifts": {str(y): str(t) for y, t in data.lifts.items()},
        "rel_words": {label: format_word(w) for label, w in data.rel_words.items()},
        "conj_words": {str(y): {str(x): format_word(w)
                                for (y2, x), w in data.conj_words.items() if y2 == y}
                       for y in data.lifts},
    }
    return json.dumps(doc, indent=2) + "\n"


def _string_map(value, field: str) -> dict[str, str]:
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise ValueError(f"extension JSON: field {field!r} must map names to strings")
    return value


def extension_data_from_json(text: str) -> ExtensionData:
    """Inverse of ``extension_data_to_json``; a malformed document raises ValueError."""
    import json

    kernel, quotient, lifts, rel_words, conj_table = _fields(
        json.loads(text), "kernel", "quotient", "lifts", "rel_words", "conj_words",
        document="extension")
    kernel, quotient = presentation_from_doc(kernel), presentation_from_doc(quotient)
    n, g = kernel.n, kernel.g
    lifts = {parse_gen(y): parse_gen(t) for y, t in _string_map(lifts, "lifts").items()}
    rel_words = {label: parse_word(body, n, g)
                 for label, body in _string_map(rel_words, "rel_words").items()}
    conj_words = {(parse_gen(y), parse_gen(x)): parse_word(body, n, g)
                  for y, table in conj_table.items()
                  for x, body in _string_map(table, f"conj_words.{y}").items()}
    return ExtensionData(kernel, quotient, lifts, rel_words, conj_words)
