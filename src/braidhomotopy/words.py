"""Typed free-group words over the braid/surface generator alphabet.

Letters are signed integer codes.  Every generator symbol gets a stable
positive code from one process-wide symbol table the first time it is
seen; the letter ``+code`` is the symbol and ``-code`` its inverse.  A
``Word`` keeps its freely reduced letters as a tuple of codes, so free
reduction, inversion, concatenation, conjugation and commutators compare
ints only.  ``Gen`` objects appear only when parsing, printing, in
the decoded ``Word.letters`` view, and in ``Word(letters)``, which
constructors use for short words.  Codes follow first use, so they
differ between processes; nothing is printed or ordered by code.  The
table also holds the token of each signed code in ``_NAMES`` (``s1``
and ``s1^-1``), so ``format_word`` prints a single letter by one lookup.

Three typed symbol kinds exist (crossing generators ``s``, surface loops
``a``, band generators ``t``) together with named abstract atoms.  Typed
letters are validated against an alphabet context ``(n, g)`` attached to
the word: ``n`` strands and genus ``g``.  Purely abstract words carry no
context and combine with any other word.

``parse_word`` caches each token's letters in ``_TOKENS`` (``s1^-2`` is
two letters ``-c``, for c the code of s1).  Under a context, a word of
few enough tokens, all with small exponents, is looked up in one bulk
pass and freely reduced by ``_reduce``, the one reduction loop, which
``Word(letters)`` and ``substitute`` also use; any other word is read
token by token.

``Gen`` and ``Word`` are plain ``__slots__`` classes, immutable, equal and
hashed as the tuple of their fields.  This module is the one layer every
command imports, so it does not import ``dataclasses`` (which pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``).  Of the layers above it,
only ``handles`` avoids it too, so the saving reaches the free and
Dehornoy ``reduce`` launches.  Assigning to a field raises
``dataclasses.FrozenInstanceError``, imported only then.
"""

from __future__ import annotations

import re
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain
from operator import neg


class ContextError(ValueError):
    """Raised when words over incompatible (n, g) contexts are combined."""


class AlphabetError(ValueError):
    """Raised for out-of-range generator indices or malformed symbols."""


class UnsupportedLetterError(ValueError):
    """Raised when a word contains letters outside the homomorphism domain."""


class ResourceLimitError(RuntimeError):
    """Raised when an input would need more than a fixed cap of work or memory."""


MAX_WORD_LETTERS = 1_000_000  # longest word parse_word expands, before free reduction


def _frozen(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the immutable classes."""
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class Gen:
    """A generator symbol: kind 's' | 'a' | 't' | 'x' plus indices/name."""

    __slots__ = ("kind", "i", "j", "name")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, kind: str, i: int = 0, j: int = 0, name: str = ""):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.i, self.j, self.name) == \
                (other.kind, other.i, other.j, other.name)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.i, self.j, self.name))

    def __repr__(self) -> str:
        return f"Gen(kind={self.kind!r}, i={self.i!r}, j={self.j!r}, name={self.name!r})"

    def __reduce__(self):
        return Gen, (self.kind, self.i, self.j, self.name)

    def __str__(self) -> str:
        if self.kind == "s":
            return f"s{self.i}"
        if self.kind == "a":
            return f"a{self.i}.{self.j}"
        if self.kind == "t":
            return f"t{self.i}.{self.j}"
        return self.name

    def sort_key(self) -> tuple:
        return ({"s": 0, "a": 1, "t": 2, "x": 3}[self.kind], self.i, self.j, self.name)


def sigma(i: int) -> Gen:
    """Crossing generator exchanging strands i and i+1."""
    if i < 1:
        raise AlphabetError(f"sigma index must be >= 1, got {i}")
    return Gen("s", i)


def loop(i: int, r: int) -> Gen:
    """Surface loop generator: strand i through the r-th handle loop."""
    if i < 1 or r < 1:
        raise AlphabetError(f"loop indices must be >= 1, got ({i}, {r})")
    return Gen("a", i, r)


def band(i: int, j: int) -> Gen:
    """Band generator swapping-and-returning strands i < j."""
    if not 1 <= i < j:
        raise AlphabetError(f"band generator needs 1 <= i < j, got ({i}, {j})")
    return Gen("t", i, j)


def atom(name: str) -> Gen:
    """Abstract generator; bypasses (n, g) index validation."""
    if not name:
        raise AlphabetError("atom name must be nonempty")
    return Gen("x", name=name)


def check_gen(gen: Gen, n: int, g: int) -> None:
    """Validate one typed symbol against the alphabet context (n, g)."""
    if gen.kind == "s":
        if not 1 <= gen.i <= n - 1:
            raise AlphabetError(f"{gen} out of range for n={n}")
    elif gen.kind == "a":
        if not (1 <= gen.i <= n and 1 <= gen.j <= 2 * g):
            raise AlphabetError(f"{gen} out of range for n={n}, g={g}")
    elif gen.kind == "t":
        if not 1 <= gen.i < gen.j <= n:
            raise AlphabetError(f"{gen} out of range for n={n}")


# ---------------------------------------------------------------------------
# the symbol table: append-only; _GENS is indexed by positive code (0 is unused),
# _NAMES holds the token of each signed code (``s1`` and ``s1^-1``)

_GENS: list[Gen | None] = [None]
_NAMES: dict[int, str] = {}
_CODES: dict[Gen, int] = {}
_TABLE_LOCK = threading.Lock()


def code(gen: Gen) -> int:
    """The positive letter code of a symbol, assigned on first use."""
    c = _CODES.get(gen)
    if c is None:
        with _TABLE_LOCK:
            c = _CODES.get(gen)
            if c is None:
                c = len(_GENS)
                _GENS.append(gen)
                _NAMES[c] = name = str(gen)
                _NAMES[-c] = name + "^-1"
                _CODES[gen] = c
    return c


def symbol(c: int) -> Gen:
    """The symbol of a signed letter code."""
    return _GENS[c if c > 0 else -c]


_SYMBOL_RE = re.compile(
    r"s(?P<si>\d+)|a(?P<ai>\d+)\.(?P<ar>\d+)|t(?P<ti>\d+)\.(?P<tj>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
)


def _spelling_code(text: str) -> int:
    """Code of a symbol spelled like ``s1``, ``a2.3``, ``t1.3`` or an atom name;
    parsed on every call (the parser caches each whole token's letters in ``_TOKENS``)."""
    m = _SYMBOL_RE.fullmatch(text)
    if m is None:
        raise AlphabetError(f"not a generator symbol: {text!r}")
    if m.group("si") is not None:
        return code(sigma(int(m.group("si"))))
    if m.group("ai") is not None:
        return code(loop(int(m.group("ai")), int(m.group("ar"))))
    if m.group("ti") is not None:
        return code(band(int(m.group("ti")), int(m.group("tj"))))
    return code(atom(m.group("name")))


def parse_gen(token: str) -> Gen:
    """A single generator symbol such as ``a1.2``; no exponent, no context check."""
    return _GENS[_spelling_code(token)]


# ---------------------------------------------------------------------------
# words


def _merge_context(a, b):
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ContextError(f"incompatible alphabet contexts {a} and {b}")


def _reduce(codes: Iterable[int]) -> tuple[int, ...]:
    """Free reduction of an arbitrary letter sequence, in one pass.

    ``inv`` holds the inverse of the top letter, and the stack's base is a
    0 sentinel, which no letter code matches.
    """
    stack = [0]
    inv = 0
    for c in codes:
        if c == inv:
            stack.pop()
            inv = -stack[-1]
        else:
            stack.append(c)
            inv = -c
    del stack[0]
    return tuple(stack)


def join_codes(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Freely reduced product of freely reduced codes: only the junction cancels."""
    if a and b and a[-1] == -b[0]:
        k, m = 1, min(len(a), len(b))
        while k < m and a[-1 - k] == -b[k]:
            k += 1
        return a[:len(a) - k] + b[k:]
    return a + b


def inverse_codes(codes: tuple[int, ...]) -> tuple[int, ...]:
    """Letter codes of the inverse word."""
    return tuple(map(neg, reversed(codes)))


class Word:
    """A freely reduced word; the empty word is the identity.

    ``Word(letters, context)`` encodes ``(Gen, +1/-1)`` pairs into
    ``codes`` and freely reduces them; any other exponent raises
    AlphabetError, and every typed letter is checked against the context,
    cancelled or not.  ``context`` is ``(n, g)`` for words containing typed
    letters and ``None`` for purely abstract words.  Instances are
    immutable and all operations are pure, so words are safe to share
    between threads.
    """

    __slots__ = ("codes", "context")
    __setattr__ = __delattr__ = _frozen
    codes: tuple[int, ...]
    context: tuple[int, int] | None

    def __init__(self, letters: Iterable[tuple[Gen, int]] = (),
                 context: tuple[int, int] | None = None):
        letters = tuple(letters)
        for _, e in letters:
            if e not in (1, -1):
                raise AlphabetError(f"letter exponent must be +/-1, got {e}")
        codes = tuple(code(gen) if e > 0 else -code(gen) for gen, e in letters)
        _init(self, _reduce(codes), _checked_context(codes, context))

    @classmethod
    def from_codes(cls, codes: tuple[int, ...], context: tuple[int, int] | None) -> "Word":
        """Wrap freely reduced codes whose typed letters are valid in ``context``."""
        w = object.__new__(cls)
        _init(w, codes, context)
        return w

    @property
    def letters(self) -> tuple[tuple[Gen, int], ...]:
        """The letters decoded as ``(Gen, +1/-1)`` pairs."""
        return tuple((_GENS[c], 1) if c > 0 else (_GENS[-c], -1) for c in self.codes)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.codes, self.context) == (other.codes, other.context)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.codes, self.context))

    def __reduce__(self):  # codes are per process: pickle the symbols
        return Word, (self.letters, self.context)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, context={self.context})"

    def __len__(self) -> int:
        return len(self.codes)

    def __bool__(self) -> bool:
        return bool(self.codes)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def inverse(self) -> "Word":
        return invert(self)

    def __str__(self) -> str:
        return format_word(self)


def _init(w: Word, codes: tuple[int, ...], context) -> None:
    # a typed first letter settles it without the scan
    if context is not None and (not codes or _GENS[abs(codes[0])].kind == "x") and all(
            _GENS[abs(c)].kind == "x" for c in codes):
        context = None  # atom-only words are context-free; normalize for equality
    object.__setattr__(w, "codes", codes)
    object.__setattr__(w, "context", context)


def _checked_context(codes: Sequence[int], context):
    """Check every typed letter against the context, in order of first use."""
    for c in dict.fromkeys(map(abs, codes)):
        if context is not None:
            check_gen(_GENS[c], *context)
        elif _GENS[c].kind != "x":
            raise ContextError(f"typed letter {_GENS[c]} requires an (n, g) context")
    return context


def _checked(codes: tuple[int, ...], context) -> Word:
    return Word.from_codes(codes, _checked_context(codes, context))


EPSILON = Word()


def _context(n: int | None, g: int | None) -> tuple[int, int] | None:
    """The context of a builder's ``n`` and ``g``: none without ``n``, genus 0 without ``g``."""
    return None if n is None else (n, 0 if g is None else g)


def free_reduce(letters: Iterable[tuple[Gen, int]], n: int | None = None,
                g: int | None = None) -> Word:
    """Freely reduce a raw letter sequence into a Word.

    The result has no adjacent cancelling pair and equals the input in
    the free group.  Typed letters require ``n`` (and ``g`` for loops).
    """
    return Word(letters, _context(n, g))


def concat(u: Word, v: Word) -> Word:
    """Freely reduced product u * v; contexts must be compatible."""
    context = _merge_context(u.context, v.context)
    return Word.from_codes(join_codes(u.codes, v.codes), context)


def concat_all(words: Sequence[Word]) -> Word:
    context = None
    codes: tuple[int, ...] = ()
    for w in words:
        context = _merge_context(context, w.context)
        codes = join_codes(codes, w.codes)
    return Word.from_codes(codes, context)


def invert(w: Word) -> Word:
    """Mirror-reflection inverse: reversed letters with flipped signs."""
    return Word.from_codes(inverse_codes(w.codes), w.context)


def conjugate(t: Word, h: Word) -> Word:
    """The conjugate h * t * h^-1 (conjugator on the left)."""
    context = _merge_context(t.context, h.context)
    codes = join_codes(join_codes(h.codes, t.codes), inverse_codes(h.codes))
    return Word.from_codes(codes, context)


def commutator(u: Word, v: Word) -> Word:
    """The commutator u * v * u^-1 * v^-1."""
    context = _merge_context(u.context, v.context)
    codes = join_codes(join_codes(u.codes, v.codes), inverse_codes(u.codes))
    codes = join_codes(codes, inverse_codes(v.codes))
    return Word.from_codes(codes, context)


def image_table(codes: Iterable[int], image: Callable[[Gen], Word]) -> tuple[dict, tuple | None]:
    """The image codes of each symbol in ``codes`` and of its inverse, by signed letter code,
    and the images' contexts merged as by ``concat_all``; one ``image`` call per symbol."""
    images = [(c, image(_GENS[c])) for c in dict.fromkeys(map(abs, codes))]
    table, context = {}, None
    for c, rep in images:
        table[c], table[-c] = rep.codes, inverse_codes(rep.codes)
        context = _merge_context(context, rep.context)
    return table, context


def substitute(w: Word, image: Callable[[Gen], Word]) -> Word:
    """Image of w under the homomorphism gen -> image(gen), freely reduced in one pass;
    ``image`` is called once per distinct symbol, in order of first use."""
    table, context = image_table(w.codes, image)
    return Word.from_codes(_reduce(chain.from_iterable(map(table.__getitem__, w.codes))),
                           context)


def gen_word(gen: Gen, n: int | None = None, g: int | None = None,
             e: int = 1) -> Word:
    """Single-generator word gen^e."""
    c = code(gen)
    return _checked((c if e > 0 else -c,) * abs(e), _context(n, g))


def enumerate_shortlex(basis: Sequence[Gen], max_len: int,
                       n: int | None = None, g: int | None = None) -> Iterator[Word]:
    """Yield every freely reduced word of length <= max_len exactly once.

    Order is shortlex with letter ranks: basis symbols first (in the
    given order), then their inverses.  So with r = len(basis), word k >= 1
    is word ``0 if k <= 2r else (k - 2) // (2r - 1)`` plus one letter.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    context = _context(n, g)
    codes = [code(b) for b in basis]
    _checked_context(codes, context)
    alphabet = codes + [-c for c in codes]
    yield Word.from_codes((), context)
    layer: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        next_layer = []
        for prefix in layer:
            last = prefix[-1] if prefix else 0
            for c in alphabet:
                if c != -last:
                    ext = prefix + (c,)
                    next_layer.append(ext)
                    yield Word.from_codes(ext, context)
        layer = next_layer


# token -> its letters, e.g. ``s1^-2`` -> (-c, -c) for the code c of s1, which
# parse_word's bulk path reads in one map and the token-by-token path one at a
# time; tokens with |exponent| > _TOKEN_CACHE_EXP are never cached (a word with
# one is read token by token), and a full cache starts over.
# Concurrent parses need no lock: every entry is the token's one decoding, and
# a race can overshoot the size by at most one entry per thread.
_TOKENS: dict[str, tuple[int, ...]] = {}
_TOKEN_CACHE_SIZE = 4096
_TOKEN_CACHE_EXP = 16


def _token(token: str) -> tuple[int, int]:
    """Decode one token into its signed letter code and letter count,
    caching its letters if its exponent is small."""
    name, caret, exp = token.partition("^")
    if caret and not (exp[1:] if exp[:1] == "-" else exp).isdecimal():
        raise AlphabetError(f"unparseable token {token!r}")
    c = _spelling_code(name)
    k = int(exp) if caret else 1
    c, m = (c if k > 0 else -c), abs(k)
    if m <= _TOKEN_CACHE_EXP:
        if len(_TOKENS) >= _TOKEN_CACHE_SIZE:
            _TOKENS.clear()
        _TOKENS[token] = (c,) * m
    return c, m


def parse_word(text: str, n: int | None = None, g: int | None = None) -> Word:
    """Parse the token grammar, e.g. ``s1 a1.2^-1 t1.3``.

    Tokens are whitespace separated; each is a symbol name with an
    optional ``^<signed int>`` exponent.  Abstract identifiers may not
    collide with the reserved ``s<i>``/``a<i>.<r>``/``t<i>.<j>`` forms.
    A word longer than ``MAX_WORD_LETTERS`` letters with its exponents
    expanded raises ResourceLimitError before it is expanded.  Without a
    context, a typed letter raises ContextError even if it cancels; with
    one, the letters left after free reduction are checked against it.

    Each token's letters are cached, at most ``_TOKEN_CACHE_SIZE`` tokens
    with exponents up to ``_TOKEN_CACHE_EXP``, so hostile input cannot grow
    the cache.  Under a context, a word of at most ``MAX_WORD_LETTERS //
    _TOKEN_CACHE_EXP`` tokens, all of them cacheable, cannot pass the
    letter cap: its tokens are looked up in one ``map``, the misses decoded
    in order, and the letters freely reduced by ``_reduce``.  Any other
    word (no context, more tokens, or a larger exponent) is read token by
    token from its first token, so every error is raised where it was.
    """
    context = _context(n, g)
    tokens = text.split()
    if context is not None and len(tokens) <= MAX_WORD_LETTERS // _TOKEN_CACHE_EXP:
        try:
            runs = list(map(_TOKENS.__getitem__, tokens))
        except KeyError:
            runs = list(map(_TOKENS.get, tokens))
            for i, run in enumerate(runs):
                if run is None:
                    c, m = _token(tokens[i])
                    if m > _TOKEN_CACHE_EXP:
                        return _parse_tokens(tokens, context)
                    runs[i] = (c,) * m
        return _checked(_reduce(chain.from_iterable(runs)), context)
    return _parse_tokens(tokens, context)


def _parse_tokens(tokens: list[str], context) -> Word:
    """``parse_word`` token by token, checking the letter cap at each token."""
    stack: list[int] = []
    push, pop, cached = stack.append, stack.pop, _TOKENS.get
    total = 0  # letters read, before reduction
    typed = 0  # first typed letter of a word without a context
    for token in tokens:
        letters = cached(token)
        if letters is None:
            c, m = _token(token)
        else:
            m = len(letters)
            c = letters[0] if m else 0
        if total + m > MAX_WORD_LETTERS and "^" in token:
            raise ResourceLimitError(f"word exceeds {MAX_WORD_LETTERS} letters at {token!r}")
        total += m
        if context is None and not typed and m and _GENS[abs(c)].kind != "x":
            typed = abs(c)
        if m == 1:
            if stack and stack[-1] == -c:
                pop()
            else:
                push(c)
        elif m:
            while m and stack and stack[-1] == -c:
                pop()
                m -= 1
            stack.extend([c] * m)
    if total > MAX_WORD_LETTERS:
        raise ResourceLimitError(f"word exceeds {MAX_WORD_LETTERS} letters")
    if typed:
        raise ContextError(f"typed letter {_GENS[typed]} requires an (n, g) context")
    return _checked(tuple(stack), context)


def format_word(w: Word) -> str:
    """Render a word in the token grammar; runs collapse to powers."""
    parts = []
    run, k = 0, 0
    for c in w.codes:
        if c == run:
            k += 1
        else:
            if k:
                parts.append(_NAMES[run] if k == 1 else _power(run, k))
            run, k = c, 1
    if k:
        parts.append(_NAMES[run] if k == 1 else _power(run, k))
    return " ".join(parts)


def _power(c: int, k: int) -> str:
    """The token of the run c^k, k >= 2."""
    return f"{_NAMES[abs(c)]}^{k if c > 0 else -k}"
