import pytest
from hypothesis import given, strategies as st

from braidhomotopy.words import (
    EPSILON,
    AlphabetError,
    ContextError,
    Word,
    atom,
    band,
    commutator,
    concat,
    conjugate,
    enumerate_shortlex,
    format_word,
    free_reduce,
    gen_word,
    invert,
    loop,
    parse_word,
    sigma,
)


def w(text, n=None, g=None):
    return parse_word(text, n, g)


def test_free_reduce_cancellation():
    assert free_reduce([(sigma(1), 1), (sigma(1), -1)], 3, 1) == Word((), (3, 1))


def test_free_reduce_nested_cancellation():
    letters = [(loop(1, 1), 1), (sigma(2), 1), (sigma(2), -1), (loop(1, 1), -1)]
    assert len(free_reduce(letters, 3, 1)) == 0


def test_free_reduce_partial():
    letters = [(sigma(1), 1), (sigma(2), 1), (sigma(2), -1), (sigma(1), 1)]
    assert format_word(free_reduce(letters, 3, 1)) == "s1^2"


def test_word_constructor_reduces():
    word = Word(((sigma(1), 1), (sigma(1), -1)), (2, 0))
    assert len(word) == 0 and format_word(word) == "" and word == EPSILON
    nested = Word(((sigma(1), 1), (sigma(2), 1), (sigma(2), -1), (sigma(1), 1)), (3, 0))
    assert nested == parse_word("s1^2", 3)


def test_word_constructor_checks_exponents_and_context():
    for e in (2, 0, -3):
        with pytest.raises(AlphabetError):
            Word(((sigma(1), e),), (2, 0))
    with pytest.raises(AlphabetError):  # checked before the pair cancels
        Word(((sigma(2), 1), (sigma(2), -1)), (2, 0))
    with pytest.raises(ContextError):
        Word(((sigma(1), 1), (sigma(1), -1)))


def test_concat_examples():
    assert len(w("s1", 3) * w("s1^-1", 3)) == 0
    word = w("s1 a1.2 t1.3", 3, 1)
    assert concat(Word(), word) == word
    assert format_word(w("s1 s2", 3) * w("s2^-1 s1", 3)) == "s1^2"


def test_concat_context_mismatch():
    with pytest.raises(ContextError):
        concat(w("s1", 3), w("s1", 4))
    with pytest.raises(ContextError):
        concat(w("s1", 3, 1), w("a1.1", 3, 2))


def test_abstract_words_merge_with_any_context():
    mixed = concat(w("x"), w("s1", 3))
    assert mixed.context == (3, 0)


def test_invert_examples():
    assert format_word(invert(w("s1 a1.1", 2, 1))) == "a1.1^-1 s1^-1"
    assert invert(Word()) == Word()


def test_conjugate_convention_left():
    x, y = w("x"), w("y")
    assert format_word(conjugate(x, y)) == "y x y^-1"
    assert conjugate(w("t1.2", 2), Word()) == w("t1.2", 2)
    assert conjugate(w("s1", 2), w("s1", 2)) == w("s1", 2)


def test_commutator_examples():
    x = w("x")
    assert len(commutator(x, x)) == 0
    assert len(commutator(x, Word())) == 0
    t, h = w("t"), w("h")
    expanded = commutator(t, conjugate(t, h))
    assert format_word(expanded) == "t h t h^-1 t^-1 h t^-1 h^-1"


def test_out_of_range_indices():
    with pytest.raises(AlphabetError):
        free_reduce([(sigma(3), 1)], 3, 1)
    with pytest.raises(AlphabetError):
        free_reduce([(loop(1, 3), 1)], 3, 1)
    with pytest.raises(AlphabetError):
        free_reduce([(band(2, 2), 1)], 3, 1)
    with pytest.raises(ContextError):
        free_reduce([(sigma(1), 1)])


@pytest.mark.parametrize("k,max_len,count", [(1, 1, 3), (2, 1, 5), (2, 2, 17)])
def test_shortlex_counts(k, max_len, count):
    basis = [atom(f"x{i}") for i in range(k)]
    assert sum(1 for _ in enumerate_shortlex(basis, max_len)) == count


def test_shortlex_order_and_uniqueness():
    basis = [atom("x"), atom("y")]
    words = list(enumerate_shortlex(basis, 3))
    rank = {(basis[0], 1): 0, (basis[1], 1): 1, (basis[0], -1): 2, (basis[1], -1): 3}
    keys = [(len(word), tuple(rank[let] for let in word.letters)) for word in words]
    assert keys == sorted(keys)
    assert len(set(words)) == len(words)
    for word in words:
        assert free_reduce(word.letters) == word


def test_shortlex_reduced_word_counts_layerwise():
    k = 3
    basis = [atom(f"x{i}") for i in range(k)]
    words = list(enumerate_shortlex(basis, 3))
    by_len = {}
    for word in words:
        by_len[len(word)] = by_len.get(len(word), 0) + 1
    assert by_len[0] == 1
    assert by_len[1] == 2 * k
    assert by_len[2] == 2 * k * (2 * k - 1)
    assert by_len[3] == 2 * k * (2 * k - 1) ** 2


def test_shortlex_empty_basis():
    assert list(enumerate_shortlex([], 5)) == [Word()]


def test_token_grammar_roundtrip():
    text = "s1 a1.2^-1 t1.3"
    word = w(text, 3, 1)
    assert format_word(word) == text
    assert parse_word(format_word(word), 3, 1) == word


def test_token_grammar_powers_and_atoms():
    assert parse_word("s1^3", 2) == parse_word("s1 s1 s1", 2)
    assert parse_word("s1^-2", 2) == invert(parse_word("s1^2", 2))
    assert parse_word("alpha beta^-1").letters[0][0] == atom("alpha")
    with pytest.raises(AlphabetError):
        parse_word("1st", 2)
    assert parse_word("", 2) == Word()


# --- algebraic laws -------------------------------------------------------

letters_strategy = st.lists(
    st.tuples(st.sampled_from([atom("x"), atom("y"), atom("z")]),
              st.sampled_from([1, -1])),
    max_size=30,
)


@given(letters_strategy)
def test_free_reduce_idempotent(letters):
    once = free_reduce(letters)
    assert free_reduce(once.letters) == once


@given(letters_strategy, letters_strategy, letters_strategy)
def test_concat_associative_with_identity(a, b, c):
    u, v, x = free_reduce(a), free_reduce(b), free_reduce(c)
    assert concat(concat(u, v), x) == concat(u, concat(v, x))
    assert concat(u, Word()) == u
    assert concat(Word(), u) == u


@given(letters_strategy, letters_strategy)
def test_length_laws(a, b):
    u, v = free_reduce(a), free_reduce(b)
    assert len(concat(u, v)) <= len(u) + len(v)
    assert len(invert(u)) == len(u)


@given(letters_strategy)
def test_invert_involution(a):
    u = free_reduce(a)
    assert invert(invert(u)) == u
    assert len(concat(u, invert(u))) == 0


def test_gen_word_powers():
    assert gen_word(sigma(1), 3, e=2) == parse_word("s1^2", 3)
    assert gen_word(atom("q"), e=-1) == parse_word("q^-1")
