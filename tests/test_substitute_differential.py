"""``substitute`` against the per-letter implementation it replaced, kept here verbatim.

The reference decodes every letter, calls the image (and inverts it) once
per letter and joins the results one at a time.  Both must return the
same codes and context, or raise the same exception type with the same
message; the new one calls the image once per distinct symbol.
"""

import pytest
from hypothesis import given, settings, strategies as st

from braidhomotopy.words import (
    EPSILON,
    ContextError,
    Word,
    atom,
    band,
    concat_all,
    invert,
    loop,
    sigma,
    substitute,
)


def reference_substitute(w, image):
    return concat_all([image(gen) if e > 0 else invert(image(gen)) for gen, e in w.letters])


ATOMS = [atom("x"), atom("y"), atom("z")]
TYPED = [sigma(1), sigma(2), loop(1, 1), loop(2, 2), band(1, 2), band(2, 3)]
CONTEXTS = [(3, 1), (4, 2)]  # every typed symbol above is valid in both


def outcome(substitute_fn, w, image):
    try:
        v = substitute_fn(w, image)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return v.codes, v.context


def letters(symbols, max_size):
    return st.lists(st.tuples(st.sampled_from(symbols), st.sampled_from([1, -1])),
                    max_size=max_size)


@st.composite
def words(draw, symbols, max_size=12):
    """A word over ``symbols``: context None when atom-only, else one of CONTEXTS."""
    body = draw(letters(symbols, max_size))
    typed = any(gen.kind != "x" for gen, _ in body)
    return Word(body, draw(st.sampled_from(CONTEXTS)) if typed else None)


@st.composite
def images(draw, contexts=(None, *CONTEXTS)):
    """An image for every symbol: empty, atom-only or typed words, each context
    drawn from ``contexts`` (None stands for atom-only)."""
    table = {}
    for gen in ATOMS + TYPED:
        context = draw(st.sampled_from(contexts))
        body = draw(letters(ATOMS if context is None else ATOMS + TYPED, 5))
        table[gen] = Word(body, context)
    return table


ALPHABETS = {"atoms": ATOMS, "typed": TYPED, "mixed": ATOMS + TYPED}


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(sorted(ALPHABETS)).flatmap(lambda k: words(ALPHABETS[k])),
       images())
def test_random_words_and_images(w, table):
    expected = outcome(reference_substitute, w, table.__getitem__)
    assert outcome(substitute, w, table.__getitem__) == expected


@settings(deadline=None)
@given(words(ATOMS + TYPED), images(contexts=(None, (3, 1))))
def test_compatible_contexts_never_raise(w, table):
    v = substitute(w, table.__getitem__)
    assert (v.codes, v.context) == outcome(reference_substitute, w, table.__getitem__)


@settings(deadline=None)
@given(words(ATOMS + TYPED, max_size=20), images(contexts=(None, (3, 1))))
def test_image_is_called_once_per_distinct_symbol(w, table):
    calls = []

    def image(gen):
        calls.append(gen)
        return table[gen]

    substitute(w, image)
    assert calls == list(dict.fromkeys(gen for gen, _ in w.letters))


@settings(deadline=None)
@given(words(ATOMS + TYPED), images())
def test_a_missing_image_raises_as_before(w, table):
    partial = {gen: v for k, (gen, v) in enumerate(table.items()) if k % 2}
    expected = outcome(reference_substitute, w, partial.__getitem__)
    assert outcome(substitute, w, partial.__getitem__) == expected


def test_empty_word_and_empty_images():
    def never(gen):
        raise AssertionError(f"image called for {gen}")

    for w in (EPSILON, Word((), (3, 1))):
        assert substitute(w, never) == reference_substitute(w, never) == EPSILON
        assert substitute(w, never).context is None
    x, s1 = ATOMS[0], sigma(1)
    w = Word([(x, 1), (s1, -1), (x, -1)], (3, 1))
    empty = {x: EPSILON, s1: Word((), (3, 1))}
    assert substitute(w, empty.__getitem__) == reference_substitute(w, empty.__getitem__) == EPSILON


def test_incompatible_contexts_raise_the_same_message():
    x, s1, s2 = ATOMS[0], sigma(1), sigma(2)
    w = Word([(x, 1), (s1, 1), (x, -1), (s2, 1), (s1, -1)], (3, 1))
    table = {x: Word([(x, 1)]), s1: Word([(s1, 1)], (3, 1)), s2: Word([(s2, 1)], (4, 2))}
    expected = outcome(reference_substitute, w, table.__getitem__)
    assert expected == (ContextError, "incompatible alphabet contexts (3, 1) and (4, 2)")
    assert outcome(substitute, w, table.__getitem__) == expected


def test_product_is_reduced_across_images():
    x, y = ATOMS[0], ATOMS[1]
    table = {x: Word([(x, 1), (y, 1)]), y: Word([(y, -1), (x, 1)])}
    w = Word([(x, 1), (y, 1), (y, 1), (x, -1)])
    assert substitute(w, table.__getitem__) == reference_substitute(w, table.__getitem__)
    # (x y)(y^-1 x)(y^-1 x)(y^-1 x^-1) = x x y^-1 x y^-1 x^-1
    expected = Word([(x, 1), (x, 1), (y, -1), (x, 1), (y, -1), (x, -1)])
    assert substitute(w, table.__getitem__) == expected


@pytest.mark.parametrize("n, g", [(3, 1), (4, 2)])
def test_expansion_images_match(n, g):
    from braidhomotopy.presentations import expand_gen
    w = Word([(loop(2, 1), 1), (band(1, 3), -1), (loop(3, 2), 1), (band(2, 3), 1)], (n, g))

    def image(gen):
        return expand_gen(gen, n, g)

    assert substitute(w, image) == reference_substitute(w, image)
