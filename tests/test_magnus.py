import itertools

import pytest
from hypothesis import given, settings, strategies as st

from braidhomotopy import magnus
from braidhomotopy.cli import run_command
from braidhomotopy.magnus import (
    BasisError,
    NonRepeatingSeries,
    format_series,
    generator_series,
    is_rf_trivial,
    magnus_image,
    mu_coefficient,
    one,
    series_mul,
)
from braidhomotopy.words import (
    ResourceLimitError,
    Word,
    atom,
    commutator,
    concat,
    conjugate,
    enumerate_shortlex,
    format_word,
    free_reduce,
    gen_word,
    invert,
)

X = [atom(f"x{i}") for i in range(1, 5)]


def test_generator_image():
    assert format_series(magnus_image(gen_word(X[0]), X[:2])) == "1 + X1"


def test_commutator_image():
    comm = commutator(gen_word(X[0]), gen_word(X[1]))
    assert format_series(magnus_image(comm, X[:2])) == "1 + X1X2 - X2X1"


def test_self_conjugate_commutator_vanishes():
    lh = commutator(gen_word(X[0]), conjugate(gen_word(X[0]), gen_word(X[1])))
    assert magnus_image(lh, X[:2]).is_one()


def test_square_is_zero():
    assert series_mul(generator_series(1, 1, 1), generator_series(1, 1, -1)).is_one()


def test_distributivity():
    prod = series_mul(generator_series(2, 1, 1), generator_series(2, 2, 1))
    assert format_series(prod) == "1 + X1 + X2 + X1X2"


def test_one_is_neutral():
    a = magnus_image(free_reduce([(X[0], 1), (X[1], -1), (X[0], 1)]), X[:2])
    assert series_mul(one(2), a) == a
    assert series_mul(a, one(2)) == a


def test_rank_mismatch():
    with pytest.raises(BasisError):
        series_mul(one(2), one(3))


def test_out_of_basis_letter():
    with pytest.raises(BasisError):
        magnus_image(gen_word(X[2]), X[:2])


def test_mu_examples():
    word = concat(gen_word(X[0], e=3), gen_word(X[1]))
    assert mu_coefficient(word, (1,), X[:2]) == 3
    comm = commutator(gen_word(X[0]), gen_word(X[1]))
    assert mu_coefficient(comm, (1, 2), X[:2]) == 1
    assert mu_coefficient(Word(), (), X[:2]) == 1
    with pytest.raises(BasisError):
        mu_coefficient(comm, (1, 1), X[:2])


def test_degree_one_is_exponent_sum():
    word = free_reduce([(X[0], 1), (X[1], -1), (X[0], 1), (X[1], -1), (X[0], -1)])
    img = magnus_image(word, X[:2])
    assert img.coefficient((1,)) == 1
    assert img.coefficient((2,)) == -2


def test_monomial_invariants():
    with pytest.raises(BasisError):
        NonRepeatingSeries(2, {(1, 1): 1})
    with pytest.raises(BasisError):
        NonRepeatingSeries(2, {(3,): 1})
    with pytest.raises(BasisError):
        NonRepeatingSeries(2, {(1,): 0})


words_strategy = st.lists(
    st.tuples(st.sampled_from(X), st.sampled_from([1, -1])), max_size=12)


@given(words_strategy, words_strategy)
def test_multiplicative(a, b):
    u, v = free_reduce(a), free_reduce(b)
    lhs = magnus_image(concat(u, v), X)
    rhs = series_mul(magnus_image(u, X), magnus_image(v, X))
    assert lhs == rhs


@given(words_strategy)
def test_inverse_image(a):
    u = free_reduce(a)
    assert series_mul(magnus_image(u, X), magnus_image(invert(u), X)).is_one()


def test_lh_kernel_small_ranks():
    for k in (1, 2, 3):
        basis = X[:k]
        for i in range(k):
            xi = gen_word(basis[i])
            for g in enumerate_shortlex(basis, 3):
                assert is_rf_trivial(commutator(xi, conjugate(xi, g)), basis)


def test_commutator_of_distinct_generators_nontrivial():
    assert not is_rf_trivial(commutator(gen_word(X[0]), gen_word(X[1])), X[:2])
    assert is_rf_trivial(Word(), X[:2])


def test_separation_of_distinct_short_words():
    words = list(enumerate_shortlex(X[:2], 3))
    images = [magnus_image(w, X[:2]) for w in words]
    for (wa, ia), (wb, ib) in itertools.combinations(zip(words, images), 2):
        if ia != ib:
            assert not is_rf_trivial(concat(wa, invert(wb)), X[:2])


def test_default_basis_inference():
    comm = commutator(gen_word(X[0]), gen_word(X[1]))
    assert not is_rf_trivial(comm)
    assert mu_coefficient(comm, (1, 2)) == 1


# ---------------------------------------------------------------------------
# the mask-grouped kernel against a plain left-to-right product

Y = [atom(f"y{i}") for i in range(1, 7)]


@st.composite
def basis_and_letters(draw):
    """A basis of rank <= 6 (some symbols may go unused) and letters with runs."""
    basis = draw(st.permutations(Y))[:draw(st.integers(1, 6))]
    runs = draw(st.lists(st.tuples(st.integers(0, len(basis) - 1), st.sampled_from([1, -1]),
                                   st.integers(1, 3)), max_size=14))
    return basis, [(basis[i], e) for i, e, k in runs for _ in range(k)]


@settings(deadline=None)
@given(basis_and_letters())
def test_kernel_matches_series_product(case):
    basis, letters = case
    expected = one(len(basis))
    for gen, e in letters:
        expected = series_mul(expected, generator_series(len(basis), basis.index(gen) + 1, e))
    assert magnus_image(free_reduce(letters), basis) == expected


@settings(deadline=None)
@given(basis_and_letters(), st.data())
def test_verdict_is_conjugation_invariant(case, data):
    basis, letters = case
    w = free_reduce(letters)
    c = free_reduce(data.draw(st.lists(
        st.tuples(st.sampled_from(basis), st.sampled_from([1, -1])), max_size=8)))
    verdict = magnus_image(w, basis).is_one()
    assert is_rf_trivial(conjugate(w, c), basis) == is_rf_trivial(w, basis) == verdict
    assert is_rf_trivial(conjugate(w, c)) == verdict


def test_trivial_core_inside_a_dense_conjugator():
    c = free_reduce([(gen, 1) for gen in Y] * 2)
    core = commutator(gen_word(Y[0]), conjugate(gen_word(Y[0]), gen_word(Y[1])))
    assert is_rf_trivial(conjugate(core, c), Y)
    assert not is_rf_trivial(conjugate(commutator(gen_word(Y[0]), gen_word(Y[1])), c), Y)


def test_cancelled_conjugator_letter_must_be_in_basis():
    core = commutator(gen_word(Y[0]), conjugate(gen_word(Y[0]), gen_word(Y[1])))
    w = conjugate(core, gen_word(Y[3]))
    assert is_rf_trivial(w) and is_rf_trivial(core, Y[:2])
    with pytest.raises(BasisError, match="letter y4 outside the basis"):
        is_rf_trivial(w, Y[:2])
    with pytest.raises(BasisError, match="letter y4 outside the basis"):
        magnus_image(w, Y[:2])
    with pytest.raises(BasisError, match="repeated symbol"):
        is_rf_trivial(core, [Y[0], Y[1], Y[0]])


# ---------------------------------------------------------------------------
# the monomial cap

DENSE = free_reduce([(gen, 1) for gen in Y[:5]] * 2)  # not a conjugate: nothing cancels


def test_monomial_cap(monkeypatch):
    size = len(magnus_image(DENSE).coeffs)
    assert size > 20
    monkeypatch.setattr(magnus, "MAX_MONOMIALS", 20)
    with pytest.raises(ResourceLimitError, match="exceeds 20 monomials"):
        magnus_image(DENSE)
    with pytest.raises(ResourceLimitError):
        is_rf_trivial(DENSE)
    # cyclic reduction leaves a one-letter core, far under the cap
    assert not is_rf_trivial(conjugate(gen_word(Y[5]), DENSE))
    monkeypatch.setattr(magnus, "MAX_MONOMIALS", size)
    assert len(magnus_image(DENSE).coeffs) == size


def test_monomial_cap_exits_three(monkeypatch):
    monkeypatch.setattr(magnus, "MAX_MONOMIALS", 20)
    code, out, err = run_command(["reduce", "--oracle", "magnus", format_word(DENSE)])
    assert (code, out) == (3, b"")
    assert err == b"resource limit: Magnus image exceeds 20 monomials\n"
