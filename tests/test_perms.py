import math

import pytest
from hypothesis import given, strategies as st

from braidhomotopy.perms import (
    Permutation,
    UnsupportedLetterError,
    compose,
    generated_permutations,
    identity,
    inverse,
    is_pure,
    parse_cycles,
    to_cycles,
    transposition,
    word_permutation,
)
from braidhomotopy.presentations import expand_t
from braidhomotopy.words import atom, concat, free_reduce, invert, parse_word, sigma


def test_compose_identity_and_involution():
    p = parse_cycles("(1 3 2)", 3)
    assert compose(identity(3), p) == p
    assert compose(transposition(3, 1), transposition(3, 1)) == identity(3)


def test_compose_adjacent_transpositions():
    q = compose(parse_cycles("(1 2)", 3), parse_cycles("(2 3)", 3))
    assert to_cycles(q) == "(1 2 3)"


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_word_permutation_examples():
    assert word_permutation(parse_word("s1 s1", 3), 3).is_identity()
    assert word_permutation(expand_t(1, 3, 3), 3).is_identity()
    assert to_cycles(word_permutation(parse_word("s1 s2", 3), 3)) == "(1 2 3)"


def test_word_permutation_rejects_atoms():
    with pytest.raises(UnsupportedLetterError):
        word_permutation(parse_word("x"), 3)


def test_inverse_atom_letter_maps_to_the_inverse_image():
    x = {atom("x"): parse_cycles("(1 2 3)", 3)}
    assert to_cycles(word_permutation(parse_word("x"), 3, x)) == "(1 2 3)"
    assert to_cycles(word_permutation(parse_word("x^-1"), 3, x)) == "(1 3 2)"
    assert to_cycles(word_permutation(parse_word("x^-1 s1", 3), 3, x)) == "(2 3)"


def test_is_pure_examples():
    assert is_pure(parse_word("a1.1", 3, 1), 3)
    assert not is_pure(parse_word("s1", 3), 3)
    t12, t13 = expand_t(1, 2, 3), expand_t(1, 3, 3)
    lh = concat(concat(t12, concat(t13, t12)),
                invert(concat(t13, t12)))
    assert is_pure(lh, 3)


sigma_words = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), st.sampled_from([1, -1])),
    max_size=25,
)


@given(sigma_words, sigma_words)
def test_homomorphism_law(a, b):
    n = 4
    u = free_reduce([(sigma(i), e) for i, e in a], n)
    v = free_reduce([(sigma(i), e) for i, e in b], n)
    left = word_permutation(concat(u, v), n)
    right = compose(word_permutation(u, n), word_permutation(v, n))
    assert left == right


@given(sigma_words)
def test_inverse_law(a):
    n = 4
    u = free_reduce([(sigma(i), e) for i, e in a], n)
    assert word_permutation(invert(u), n) == inverse(word_permutation(u, n))


@pytest.mark.parametrize("n", range(2, 7))
def test_transpositions_generate_everything(n):
    gens = [transposition(n, i) for i in range(1, n)]
    assert len(generated_permutations(gens)) == math.factorial(n)


def test_cycle_notation_roundtrip():
    for text in ["()", "(1 2)", "(1 2)(3 4)", "(1 4 2)"]:
        p = parse_cycles(text, 4)
        assert parse_cycles(to_cycles(p), 4) == p
    assert to_cycles(identity(5)) == "()"


def test_cycle_parse_errors():
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 1)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 5)", 3)


def test_permutation_validates_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
