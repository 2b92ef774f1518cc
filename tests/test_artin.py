"""Artin's faithful action of B_n on the free group F_n as a second,
independent word-problem oracle for the handle reducer.

s_i sends x_i to x_i x_(i+1) x_i^-1 and x_(i+1) to x_i and fixes every
other x_j; a braid is trivial iff its automorphism fixes every x_j.
Images grow exponentially with the word, so the samples stay short.
"""

from hypothesis import given, settings, strategies as st

from braidhomotopy.extension import sigma_conj_band
from braidhomotopy.handles import braid_verdict, is_trivial_braid
from braidhomotopy.presentations import expand_t
from braidhomotopy.words import Word, concat, concat_all, free_reduce, gen_word, invert, sigma


def _reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _inv(word):
    return tuple(-x for x in reversed(word))


def artin_images(w: Word, n: int) -> list[tuple[int, ...]]:
    """Images of x_1..x_n (letters +-j for x_j^+-1) under the automorphism of w.

    The action is a homomorphism, phi_uv = phi_u o phi_v, so each letter
    substitutes the images so far into its own short images of x_i, x_(i+1).
    """
    images = [(j,) for j in range(1, n + 1)]
    for gen, e in w.letters:
        a, b = images[gen.i - 1], images[gen.i]
        if e > 0:  # x_i -> x_i x_(i+1) x_i^-1, x_(i+1) -> x_i
            images[gen.i - 1], images[gen.i] = _reduce(a + b + _inv(a)), a
        else:  # x_i -> x_(i+1), x_(i+1) -> x_(i+1)^-1 x_i x_(i+1)
            images[gen.i - 1], images[gen.i] = b, _reduce(_inv(b) + a + b)
    return images


def artin_trivial(w: Word, n: int) -> bool:
    return artin_images(w, n) == [(j,) for j in range(1, n + 1)]


def test_artin_action_satisfies_the_braid_relations():
    n = 5
    for i in range(1, n):
        s, s_inv = gen_word(sigma(i), n), gen_word(sigma(i), n, e=-1)
        assert artin_trivial(concat(s, s_inv), n)
        assert not artin_trivial(s, n)
        for j in range(1, n):
            t = gen_word(sigma(j), n)
            if abs(i - j) >= 2:
                assert artin_trivial(concat_all([s, t, s_inv, invert(t)]), n)
            elif j == i + 1:
                assert artin_trivial(concat_all([s, t, s, invert(t), s_inv, invert(t)]), n)


def _rewrite(letters, moves):
    """Apply braid-relation moves to a letter list: far commutations,
    s_i s_(i+1) s_i -> s_(i+1) s_i s_(i+1) (either sign), free pairs."""
    v = list(letters)
    for kind, at, k in moves:
        t = at % (len(v) + 1)
        if kind == 0 and t + 1 < len(v) and abs(v[t][0] - v[t + 1][0]) >= 2:
            v[t], v[t + 1] = v[t + 1], v[t]
        elif kind == 1 and t + 2 < len(v):
            (i, e), (j, d), (m, f) = v[t:t + 3]
            if i == m and abs(i - j) == 1 and e == d == f:
                v[t:t + 3] = [(j, e), (i, e), (j, e)]
        else:
            v[t:t] = [(k, 1), (k, -1)]
    return v


@st.composite
def braid_samples(draw):
    """(n, word): a random word, or w w'^-1 with w' a braid-relation rewrite of w."""
    n = draw(st.integers(2, 6))
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1]))
    if draw(st.booleans()):
        letters = draw(st.lists(letter, max_size=10))
    else:
        w = draw(st.lists(letter, max_size=7))
        moves = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 20),
                                        st.integers(1, n - 1)), max_size=8))
        letters = w + [(i, -e) for i, e in reversed(_rewrite(w, moves))]
    return n, free_reduce([(sigma(i), e) for i, e in letters], n)


def test_triviality_agrees_with_the_artin_action():
    outcomes = set()

    @settings(max_examples=300, deadline=None)
    @given(braid_samples())
    def check(sample):
        n, w = sample
        trivial = artin_trivial(w, n)
        assert is_trivial_braid(w) == trivial
        assert (braid_verdict(w) == "trivial") == trivial
        outcomes.add(trivial)

    check()
    assert outcomes == {True, False}  # both verdicts were exercised


def test_artin_action_certifies_band_conjugation():
    for n in range(2, 6):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                for k in range(1, n):
                    lhs = concat_all([gen_word(sigma(k), n), expand_t(i, j, n),
                                      gen_word(sigma(k), n, e=-1)])
                    rhs = concat_all([expand_t(b.i, b.j, n) if e > 0
                                      else invert(expand_t(b.i, b.j, n))
                                      for b, e in sigma_conj_band(k, i, j, n, 0).letters])
                    assert artin_trivial(concat(lhs, invert(rhs)), n), (n, k, i, j)
                    # the oracle is not vacuous: a wrong right-hand side fails
                    assert not artin_trivial(concat(lhs, invert(concat(rhs, rhs))), n)
