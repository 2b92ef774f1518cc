"""``parse_word`` against the two-pass parser it replaced, kept here verbatim.

The reference expands every token into a letter list, then checks the
context and freely reduces in separate passes.  Both parsers must return
the same codes and context, or raise the same exception type with the
same message.
"""

import pytest
from hypothesis import given, settings, strategies as st

from braidhomotopy import words
from braidhomotopy.words import (
    AlphabetError,
    ResourceLimitError,
    Word,
    _checked,
    _checked_context,
    _reduce,
    _spelling_code,
    atom,
    band,
    loop,
    parse_word,
    sigma,
    substitute,
)


def reference_parse_word(text, n=None, g=None):
    codes = []
    for token in text.split():
        name, caret, exp = token.partition("^")
        if caret and not (exp[1:] if exp[:1] == "-" else exp).isdecimal():
            raise AlphabetError(f"unparseable token {token!r}")
        c = _spelling_code(name)
        if not caret:
            codes.append(c)
        else:
            k = int(exp)
            if len(codes) + abs(k) > words.MAX_WORD_LETTERS:
                raise ResourceLimitError(
                    f"word exceeds {words.MAX_WORD_LETTERS} letters at {token!r}")
            codes.extend([c if k > 0 else -c] * abs(k))
    if len(codes) > words.MAX_WORD_LETTERS:
        raise ResourceLimitError(f"word exceeds {words.MAX_WORD_LETTERS} letters")
    context = None if n is None else (n, 0 if g is None else g)
    if context is None:
        _checked_context(codes, None)
    return _checked(_reduce(codes), context)


def outcome(parse, text, n=None, g=None):
    try:
        w = parse(text, n, g)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return w.codes, w.context


def assert_same(text, n=None, g=None):
    expected = outcome(reference_parse_word, text, n, g)
    assert outcome(parse_word, text, n, g) == expected, (text, n, g)
    return expected


ODD_TOKENS = ["", "   ", "\t s1 \n", "s1", "s1^", "s1^-", "s1^+2", "s1^2^3", "^2", "^",
              "s0", "s0^x", "s0^2", "a1", "a1.2", "a1.2.3", "t2.1", "t1.3^-2", "x^0",
              "s9^0", "x^-0", "x^007", "x_1 y^-3", "1x", "x-1", "x^٣", "x^1.5",
              "s1 bad^x", "bad^x s1", "x s1^0 y", "x^" + "9" * 5000]


@pytest.mark.parametrize("text", ODD_TOKENS)
@pytest.mark.parametrize("n, g", [(None, None), (3, None), (3, 1), (2, 0)])
def test_odd_tokens(text, n, g):
    assert_same(text, n, g)


@pytest.mark.parametrize("text, n, g", [
    ("s1 s1^-1", None, None),          # a typed letter without context, cancelled
    ("x s1 s1^-1 x^-1", None, None),   # the same, after an atom
    ("x s2^3 x^-1 s1", None, None),    # the first typed letter is reported
    ("x y y^-1 x^-1", None, None),
    ("x^3 x^-3", None, None),
    ("x^-2 x^5 x^-3", None, None),
    ("s1 s2 s2^-1 s1^-1", 3, None),
    ("a1.1 s1^2 s1^-2 a1.1^-1", 2, 1),
    ("s5 s5^-1", 3, None),             # out of range but cancelled under a context
    ("s5 s5^-1 s7", 3, None),
    ("s1 a1.1", 2, 0),
    ("t1.3^2 t1.3^-2 t1.2", 3, None),
])
def test_words_that_cancel(text, n, g):
    assert_same(text, n, g)


@pytest.mark.parametrize("cap", [8, words.MAX_WORD_LETTERS])
def test_exponents_at_the_letter_cap(monkeypatch, cap):
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", cap)
    for k in (cap - 1, cap, cap + 1):
        for text in (f"x^{k}", f"x^-{k}", f"y x^{k}", f"x^{k} y", f"y^{k - 1} x^1",
                     f"y^{k - 1} x", f"x^{k} x^-{k}"):
            assert_same(text)


def test_plain_letters_at_the_letter_cap(monkeypatch):
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", 8)
    # plain letters past the cap are refused after the loop, unless a later
    # exponent token trips the in-loop check first
    for k in (7, 8, 9):
        for text in ("x " * k, "x " * k + "y^0", "x " * k + "y^1", "x " * k + "x^-2"):
            assert_same(text)


ATOMS = ["x", "y", "z"]
TYPED = ["s1", "s2", "s4", "a1.1", "a2.3", "t1.2", "t2.3"]
token = st.builds(lambda name, e: name if e is None else f"{name}^{e}",
                  st.sampled_from(ATOMS + TYPED),
                  st.one_of(st.none(), st.integers(-4, 4)))


@settings(deadline=None)
@given(st.lists(token, max_size=30),
       st.sampled_from([(None, None), (3, None), (3, 1), (4, 2)]))
def test_random_token_streams(tokens, context):
    assert_same(" ".join(tokens), *context)


def test_token_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(words, "_TOKEN_CACHE_SIZE", 16)
    for i in range(100):
        parse_word(f"q{i}^2 q{i}")
        assert len(words._TOKENS) <= 16
    parse_word("x^100000")
    assert "x^100000" not in words._TOKENS
    assert parse_word("x^16") == parse_word("x^16")
    assert "x^16" in words._TOKENS



# ---------------------------------------------------------------------------
# one path: a word of at most MAX_WORD_LETTERS // _TOKEN_CACHE_EXP tokens, all
# of them cached, is looked up in one map; every other word is read by _runs;
# then the letters are reduced in one pass


def naive_reduce(codes):
    """Delete adjacent cancelling pairs until none is left."""
    codes = list(codes)
    i = 0
    while i + 1 < len(codes):
        if codes[i] == -codes[i + 1]:
            del codes[i:i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(codes)


def inverse_token(text):
    name, caret, exp = text.partition("^")
    if not caret:
        return f"{name}^-1"
    return f"{name}^{exp[1:] if exp[:1] == '-' else '-' + exp}"


ATOM_ODD = ["x^99999999", "y^-40", "x^0"]
STREAM_ODD = ["s0", "s1^x"] + ATOM_ODD


def stream(rnd, top, size, names=ATOMS + TYPED, odd=STREAM_ODD):
    """``size`` tokens over ``names`` with exponents in [-top, top] or none,
    as ``u u^-1 v`` half the time, with an ``odd`` token now and then."""
    def tok():
        if rnd.random() < 0.002:
            return rnd.choice(odd)
        name = rnd.choice(names)
        return name if rnd.random() < 0.4 else f"{name}^{rnd.randint(-top, top)}"

    if rnd.random() < 0.5:
        return [tok() for _ in range(size)]
    u = [tok() for _ in range(size // 3)]
    return u + [inverse_token(t) for t in reversed(u)] + [tok() for _ in range(size - 2 * len(u))]


@settings(deadline=None, max_examples=60)
@given(st.randoms(use_true_random=False), st.sampled_from([16, 17]), st.integers(0, 2000),
       st.sampled_from([(None, None), (3, None), (3, 1), (4, 2)]))
def test_long_token_streams_cold_and_warm(rnd, top, size, context):
    # without a context, atoms only, so the words reach _reduce
    text = " ".join(stream(rnd, top, size, *((ATOMS, ATOM_ODD) if context[0] is None else ())))
    words._TOKENS.clear()
    assert_same(text, *context)  # cold: every token is a miss
    assert_same(text, *context)  # warm: every cacheable token is a hit


@pytest.mark.parametrize("cap", [160, 175])
@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("last", ["x", "s1^16", "x^-16", "s1^-17", "x^0", "s9", "bad^x"])
def test_token_count_at_the_bulk_bound(monkeypatch, cap, extra, last):
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", cap)
    count = cap // words._TOKEN_CACHE_EXP + extra
    read = []
    real = words._runs

    def spy(tokens):
        read.append(tokens)
        return real(tokens)

    monkeypatch.setattr(words, "_runs", spy)
    # under n = 3, and without a context over atoms
    for body, context in (["s1^16", "x^16"], (3,)), (["x^16", "y^-16"], ()):
        text = " ".join((body * count)[:count - 1] + [last])
        words._TOKENS.clear()
        assert_same(text, *context)  # cold
        read.clear()
        assert_same(text, *context)  # warm
        assert bool(read) == (extra > 0 or last in ("s1^-17", "bad^x")), text


def test_a_miss_filled_between_the_two_lookups(monkeypatch):
    class Racy(dict):
        """Every first lookup misses, as if another parse filled the entry just after."""

        def __getitem__(self, token):
            raise KeyError(token)

    monkeypatch.setattr(words, "_TOKENS", Racy())
    for _ in range(2):  # the second parse finds every token by .get
        assert_same("s1 x^2 s2^-1 s1^16", 3)


@pytest.mark.parametrize("text", ["", "x^0", "s1 s1^-1", "s1^16 s1^-16", "x^3 x^-2", "s2^-1",
                                  "a1.1^5 a1.1^-5 s1", "s1^-1 s1 s1^-1", "x y^0 x^-1 t1.2",
                                  "q q^-1 s1 s1^-1", "x^16 x^-16 x^-16 x^16"])
@pytest.mark.parametrize("context", [(3, 1), (4, 2)])
def test_words_that_reduce_to_at_most_one_letter(text, context):
    words._TOKENS.clear()
    for _ in range(2):  # cold, then warm
        codes, _ = assert_same(text, *context)
        assert len(codes) <= 1 and 0 not in codes


@settings(deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=60))
def test_reduce_against_naive_cancellation(codes):
    assert _reduce(codes) == _reduce(iter(codes)) == naive_reduce(codes)


SYMBOLS = [atom("x"), atom("y"), sigma(1), sigma(2), loop(1, 1), band(1, 3)]
symbol_letters = st.lists(st.tuples(st.sampled_from(SYMBOLS), st.sampled_from([1, -1])),
                          max_size=8)


@settings(deadline=None)
@given(symbol_letters, st.lists(symbol_letters, min_size=len(SYMBOLS), max_size=len(SYMBOLS)),
       st.booleans())
def test_substitute_against_expand_then_reduce(body, bodies, mirror):
    if mirror:  # the image of y undoes that of x, so images cancel across letters
        bodies[1] = [(gen, -e) for gen, e in reversed(bodies[0])]
    table = {gen: Word(b, (3, 1)) for gen, b in zip(SYMBOLS, bodies)}
    w = Word(body, (3, 1))
    expanded = []
    for gen, e in w.letters:
        codes = table[gen].codes
        expanded += codes if e > 0 else [-c for c in reversed(codes)]
    assert substitute(w, table.__getitem__).codes == naive_reduce(expanded)
