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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Sequence

from braidhomotopy.presentations import (
    Presentation,
    presentation_from_json,
    pure_homotopy_presentation,
    symmetric_presentation,
)
from braidhomotopy.words import (
    Gen,
    Word,
    band,
    code,
    concat,
    concat_all,
    format_word,
    gen_word,
    invert,
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
        kernel_gens = set(self.kernel.generators)
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
            for gen, _ in word.letters:
                if gen not in kernel_gens:
                    raise IncompleteDataError(
                        f"kernel expression for {where} uses non-kernel letter {gen}")


def assemble_extension(data: ExtensionData) -> Presentation:
    """Presentation of the middle group of a short exact sequence.

    Kernel relator families are materialized at their stored bound, so
    the result carries finite relators only.
    """
    data.validate()
    kernel, quotient = data.kernel, data.quotient
    gens = kernel.generators + tuple(data.lifts[y] for y in quotient.generators)
    if len(set(gens)) != len(gens):
        raise IncompleteDataError("lift symbols collide with kernel generators")
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
    return Presentation("extension", kernel.n, kernel.g, kernel.closed, kernel.lh_bound,
                        gens, tuple(w for _, w in rels), tuple(l for l, _ in rels))


def braid_extension_data(n: int, g: int, closed: bool, lh_bound: int) -> ExtensionData:
    """Built-in data presenting the generalized string-link quotient as an
    extension of the pure string-link group by the symmetric group."""
    kernel = pure_homotopy_presentation(n, g, closed, lh_bound)
    quotient = symmetric_presentation(n)
    lifts = {y: sigma(idx + 1) for idx, y in enumerate(quotient.generators)}
    rel_words: dict[str, Word] = {}
    for label in quotient.labels:
        if label.startswith("SR3"):
            i = int(label.split("i=")[1].rstrip("]"))
            rel_words[label] = gen_word(band(i, i + 1), n, g)
        else:
            rel_words[label] = Word((), (n, g))
    conj_words: dict[tuple[Gen, Gen], Word] = {}
    for idx, y in enumerate(quotient.generators):
        for x in kernel.generators:
            conj_words[(y, x)] = _sigma_conj_gen(idx + 1, x, n, g)
    return ExtensionData(kernel, quotient, lifts, rel_words, conj_words)


# ---------------------------------------------------------------------------
# Tietze elimination


def tietze_eliminate(p: Presentation, gen: Gen, defining: Word) -> Presentation:
    """Remove a generator using a relator that mentions it exactly once.

    The relator x gen^e y = 1 rewrites gen as (x^-1 y^-1)^e; every other
    relator is substituted and freely reduced, the defining relator is
    dropped, and relators that collapse to the empty word disappear.
    """
    if p.families:
        raise TietzeError("materialize relator families before Tietze moves")
    try:
        pos = p.relators.index(defining)
    except ValueError:
        raise TietzeError("defining relator is not a relator of the presentation")
    occurrences = [(idx, e) for idx, (cur, e) in enumerate(defining.letters) if cur == gen]
    if len(occurrences) != 1:
        raise TietzeError(f"relator does not isolate {gen}: {len(occurrences)} occurrences")
    if gen not in p.generators:
        raise TietzeError(f"{gen} is not a generator")
    idx, e = occurrences[0]
    x = Word(defining.letters[:idx], defining.context)
    y = Word(defining.letters[idx + 1:], defining.context)
    repl = concat(invert(x), invert(y))
    if e == -1:
        repl = invert(repl)
    new_rels = []
    new_labels = []
    for i2, (label, rel) in enumerate(zip(p.labels, p.relators)):
        if i2 == pos:
            continue
        sub = substitute(rel, lambda cur: repl if cur == gen else Word(((cur, 1),), rel.context))
        if sub:
            new_rels.append(sub)
            new_labels.append(label)
    gens = tuple(x2 for x2 in p.generators if x2 != gen)
    return replace(p, generators=gens, relators=tuple(new_rels), labels=tuple(new_labels))


def find_isolating_relator(p: Presentation, gen: Gen) -> Word | None:
    """Shortest relator mentioning the generator exactly once, if any."""
    best = None
    for rel in p.relators:
        count = sum(1 for cur, _ in rel.letters if cur == gen)
        if count == 1 and (best is None or len(rel) < len(best)):
            best = rel
    return best


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


@dataclass
class CosetTable:
    """Closed (or overflowed) coset table over generator/inverse columns."""

    generators: tuple[Gen, ...]
    rows: list[list[int]]
    status: str

    @property
    def coset_count(self) -> int:
        return len(self.rows)

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

    def validate(self, relators: Sequence[list[int]], subgroup: Sequence[list[int]]) -> bool:
        """Consistency: total action, relators trace home, subgroup fixes 1."""
        if self.status != "closed":
            return False
        ncols = 2 * len(self.generators)
        for row in self.rows:
            if len(row) != ncols or any(v == _UNDEF for v in row):
                return False
        for col in range(ncols):
            images = [row[col] for row in self.rows]
            if sorted(images) != list(range(len(self.rows))):
                return False
        for word in relators:
            for start in range(len(self.rows)):
                c = start
                for col in word:
                    c = self.rows[c][col]
                if c != start:
                    return False
        for word in subgroup:
            c = 0
            for col in word:
                c = self.rows[c][col]
            if c != 0:
                return False
        return True


def word_to_columns(w: Word, generators: Sequence[Gen]) -> list[int]:
    return _word_columns(w, _columns(generators))


def _columns(generators: Sequence[Gen]) -> dict[int, int]:
    """Letter code -> coset-table column: 2k for generator k, 2k + 1 for its inverse."""
    return {s * code(gen): 2 * k + (s < 0) for k, gen in enumerate(generators) for s in (1, -1)}


def _word_columns(w: Word, columns: dict[int, int]) -> list[int]:
    if not columns.keys() >= set(w.codes):
        bad = next(c for c in w.codes if c not in columns)
        raise ValueError(f"word letter {symbol(bad)} is not a presentation generator")
    return [columns[c] for c in w.codes]


class _Overflow(Exception):
    pass


class _Enumerator:
    """Relator-tracing enumeration with union-find coincidence handling."""

    def __init__(self, ncols: int, max_cosets: int):
        self.ncols = ncols
        self.max_cosets = max_cosets
        self.neighbors: list[list[int]] = []
        self.labels: list[int] = []
        self.add_vertex()

    def add_vertex(self) -> int:
        if len(self.labels) >= self.max_cosets:
            raise _Overflow
        c = len(self.labels)
        self.labels.append(c)
        self.neighbors.append([_UNDEF] * self.ncols)
        return c

    def rep(self, c: int) -> int:
        root = c
        while self.labels[root] != root:
            root = self.labels[root]
        while self.labels[c] != root:
            self.labels[c], c = root, self.labels[c]
        return root

    def follow(self, c: int, col: int) -> int:
        c = self.rep(c)
        if self.neighbors[c][col] == _UNDEF:
            d = self.add_vertex()
            self.neighbors[c][col] = d
            self.neighbors[d][col ^ 1] = c
        return self.rep(self.neighbors[c][col])

    def follow_path(self, c: int, word: list[int]) -> int:
        for col in word:
            c = self.follow(c, col)
        return c

    def unify(self, c1: int, c2: int) -> None:
        queue = [(c1, c2)]
        while queue:
            a, b = queue.pop()
            a, b = self.rep(a), self.rep(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            self.labels[b] = a
            row_a, row_b = self.neighbors[a], self.neighbors[b]
            for col in range(self.ncols):
                nb = row_b[col]
                if nb == _UNDEF:
                    continue
                if row_a[col] == _UNDEF:
                    row_a[col] = nb
                    nb_rep = self.rep(nb)
                    back = self.neighbors[nb_rep][col ^ 1]
                    if back == _UNDEF:
                        self.neighbors[nb_rep][col ^ 1] = a
                else:
                    queue.append((row_a[col], nb))

    def live(self) -> list[int]:
        return [c for c in range(len(self.labels)) if self.labels[c] == c]


def todd_coxeter(p: Presentation, subgroup: Sequence[Word],
                 max_cosets: int = 100_000) -> CosetTable:
    """Enumerate cosets of the subgroup generated by the given words.

    Relator families are materialized at their stored bounds first.  A
    closed table witnesses the subgroup index as its coset count;
    exceeding ``max_cosets`` is reported as status "overflow", not as an
    error.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    gens = p.generators
    columns = _columns(gens)
    relators = [_word_columns(w, columns) for _, w in p.iter_relators()]
    subgroup_cols = [_word_columns(w, columns) for w in subgroup]
    enum = _Enumerator(2 * len(gens), max_cosets)
    status = "closed"
    try:
        for word in subgroup_cols:
            enum.unify(enum.follow_path(0, word), 0)
        visit = 0
        while visit < len(enum.labels):
            if enum.labels[visit] == visit:
                for rel in relators:
                    enum.unify(enum.follow_path(visit, rel), visit)
                    if enum.labels[visit] != visit:
                        break
                if enum.labels[visit] == visit:
                    for col in range(enum.ncols):
                        enum.follow(visit, col)
            visit += 1
    except _Overflow:
        status = "overflow"
    live = enum.live()
    renumber = {c: i for i, c in enumerate(live)}
    rows = []
    for c in live:
        row = []
        for v in enum.neighbors[c]:
            row.append(renumber[enum.rep(v)] if v != _UNDEF else _UNDEF)
        rows.append(row)
    return CosetTable(tuple(gens), rows, status)


# ---------------------------------------------------------------------------
# serialization


def extension_data_to_json(data: ExtensionData) -> str:
    from braidhomotopy.presentations import presentation_to_json
    doc = {
        "kernel": json.loads(presentation_to_json(data.kernel)),
        "quotient": json.loads(presentation_to_json(data.quotient)),
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
    doc = json.loads(text)
    fields = ("kernel", "quotient", "lifts", "rel_words", "conj_words")
    if not isinstance(doc, dict) or not all(key in doc for key in fields):
        raise ValueError(f"extension JSON: need an object with fields {', '.join(fields)}")
    if not isinstance(doc["conj_words"], dict):
        raise ValueError("extension JSON: field 'conj_words' must be an object")
    kernel = presentation_from_json(json.dumps(doc["kernel"]))
    quotient = presentation_from_json(json.dumps(doc["quotient"]))
    n, g = kernel.n, kernel.g
    lifts = {parse_gen(y): parse_gen(t) for y, t in _string_map(doc["lifts"], "lifts").items()}
    rel_words = {label: parse_word(body, n, g)
                 for label, body in _string_map(doc["rel_words"], "rel_words").items()}
    conj_words = {}
    for y, table in doc["conj_words"].items():
        for x, body in _string_map(table, f"conj_words.{y}").items():
            conj_words[(parse_gen(y), parse_gen(x))] = parse_word(body, n, g)
    return ExtensionData(kernel, quotient, lifts, rel_words, conj_words)
