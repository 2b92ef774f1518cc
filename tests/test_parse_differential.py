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
    _checked,
    _checked_context,
    _reduce,
    _spelling_code,
    parse_word,
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
