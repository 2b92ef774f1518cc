import random

import pytest

from braidhomotopy.cli import run_command
from braidhomotopy.handles import (
    OrderVerdict,
    StepLimitError,
    braid_compare,
    braid_verdict,
    handle_reduce,
    is_trivial_braid,
    main_sign,
)
from braidhomotopy.perms import UnsupportedLetterError, word_permutation
from braidhomotopy.presentations import expand_t
from braidhomotopy.words import (
    Word,
    commutator,
    concat,
    conjugate,
    free_reduce,
    invert,
    parse_word,
    sigma,
)


def rand_sigma_word(rng, n, length):
    letters = [(sigma(rng.randint(1, n - 1)), rng.choice([1, -1]))
               for _ in range(length)]
    return free_reduce(letters, n)


def test_free_cancellation():
    assert handle_reduce(parse_word("s1 s1^-1", 2)) == Word((), (2, 0))


def test_braid_relation_is_trivial():
    w = parse_word("s1 s2 s1 s2^-1 s1^-1 s2^-1", 3)
    assert is_trivial_braid(w)


def test_single_main_handle_step():
    w = parse_word("s1 s2 s1^-1", 3)
    assert handle_reduce(w) == parse_word("s2^-1 s1 s2", 3)


def test_rejects_non_crossing_letters():
    with pytest.raises(UnsupportedLetterError):
        handle_reduce(parse_word("a1.1", 2, 1))


def test_step_cap_is_a_resource_error():
    w = parse_word("s3 s1 s2^2 s1^-1 s3^-1 s1 s2^-2 s1^-1", 4)
    with pytest.raises(StepLimitError):
        handle_reduce(w, step_cap=1)


def test_handle_free_output():
    rng = random.Random(3)
    for _ in range(100):
        w = rand_sigma_word(rng, rng.randint(2, 6), rng.randint(0, 40))
        reduced = handle_reduce(w)
        # handle-free: the lowest occurring index has a single sign
        assert main_sign(reduced) in (-1, 0, 1)


def test_w_winv_trivial():
    rng = random.Random(5)
    for _ in range(100):
        w = rand_sigma_word(rng, rng.randint(2, 6), rng.randint(0, 40))
        assert is_trivial_braid(concat(w, invert(w)))


def test_trichotomy_exactly_one():
    rng = random.Random(7)
    for _ in range(100):
        w = rand_sigma_word(rng, rng.randint(2, 5), rng.randint(0, 30))
        verdicts = [is_trivial_braid(w),
                    braid_verdict(w) == "positive",
                    braid_verdict(w) == "negative"]
        assert sum(verdicts) == 1 or (not w.letters and verdicts[0])


def test_left_invariance():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 5)
        u, v, w = (rand_sigma_word(rng, n, 10) for _ in range(3))
        assert braid_compare(u, v) == braid_compare(concat(w, u), concat(w, v))


def test_agreement_with_permutation():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(2, 6)
        w = rand_sigma_word(rng, n, 20)
        if is_trivial_braid(w):
            assert word_permutation(w, n).is_identity()


def test_eq31_certification():
    for n in range(2, 7):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                alpha = free_reduce([(sigma(k), 1) for k in range(1, i)], n)
                w = concat(concat(alpha, expand_t(i, j, n)),
                           concat(invert(alpha), invert(expand_t(1, j, n))))
                assert is_trivial_braid(w)


def test_lh_witness_nontrivial_as_braid():
    t12, t13 = expand_t(1, 2, 3), expand_t(1, 3, 3)
    witness = commutator(t12, conjugate(t12, t13))
    assert not is_trivial_braid(witness)


def test_compare_examples():
    n = 3
    eps = Word((), (n, 0))
    assert braid_compare(eps, parse_word("s1", n)) == OrderVerdict.LESS
    w = parse_word("s1 s2^-1 s1", n)
    assert braid_compare(w, w) == OrderVerdict.EQUAL
    assert braid_compare(parse_word("s1", n), eps) == OrderVerdict.GREATER


def test_verdict_strings():
    assert braid_verdict(parse_word("s1 s1^-1", 2)) == "trivial"
    assert braid_verdict(parse_word("s1", 2)) == "positive"
    assert braid_verdict(parse_word("s2 s1^-1 s2^-1", 3)) == "negative"


# --- independent cross-oracle: reduced Burau is faithful on 3 strands -------

def _laurent_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = ea + eb
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _mat_mul(A, B):
    return tuple(tuple(
        {k: v for k, v in _madd(_laurent_mul(A[i][0], B[0][j]),
                                _laurent_mul(A[i][1], B[1][j])).items() if v}
        for j in range(2)) for i in range(2))


def _madd(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return out


_ONE, _ZERO = {0: 1}, {}
_ID = ((_ONE, _ZERO), (_ZERO, _ONE))
_BURAU = {
    (1, 1): (({1: -1}, _ONE), (_ZERO, _ONE)),
    (1, -1): (({-1: -1}, {-1: 1}), (_ZERO, _ONE)),
    (2, 1): ((_ONE, _ZERO), ({1: 1}, {1: -1})),
    (2, -1): ((_ONE, _ZERO), ({0: 1}, {-1: -1})),
}


def _burau(word):
    M = _ID
    for gen, e in word.letters:
        M = _mat_mul(M, _BURAU[(gen.i, e)])
    return M


def test_burau_satisfies_braid_relation():
    lhs = _burau(parse_word("s1 s2 s1", 3))
    rhs = _burau(parse_word("s2 s1 s2", 3))
    assert lhs == rhs
    assert _burau(parse_word("s1 s1^-1", 3)) == _ID


def test_triviality_agrees_with_faithful_burau():
    # reduced Burau is faithful on three strands: exact independent oracle
    rng = random.Random(97)
    trivial_seen = 0
    for _ in range(300):
        w = rand_sigma_word(rng, 3, rng.randint(0, 14))
        mine = is_trivial_braid(w)
        theirs = _burau(w) == _ID
        assert mine == theirs, w
        trivial_seen += mine
    # make sure the sample is not vacuous on either side
    assert 0 < trivial_seen < 300


def test_burau_certifies_conjugation_table():
    from braidhomotopy.extension import sigma_conj_band
    from braidhomotopy.words import concat_all, gen_word
    n = 3
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            for k in range(1, n):
                lhs = concat_all([gen_word(sigma(k), n), expand_t(i, j, n),
                                  gen_word(sigma(k), n, e=-1)])
                rhs_word = sigma_conj_band(k, i, j, n, 0)
                rhs = concat_all([expand_t(g.i, g.j, n) if e == 1
                                  else invert(expand_t(g.i, g.j, n))
                                  for g, e in rhs_word.letters])
                assert _burau(concat(lhs, invert(rhs))) == _ID


# --- handle-free output, checked by a naive handle finder -------------------

def _naive_handle(word):
    """A handle s_i^e v s_i^-e with every index in v above i, or None."""
    indices = [(gen.i, e) for gen, e in word.letters]
    for p, (i, e) in enumerate(indices):
        for q in range(p + 1, len(indices)):
            j, d = indices[q]
            if j <= i:
                if (j, d) == (i, -e):
                    return p, q
                break
    return None


def test_naive_handle_finder_finds_handles():
    assert _naive_handle(parse_word("s2 s1 s3 s2^-1 s1^-1", 4)) == (1, 4)
    assert _naive_handle(parse_word("s1 s2 s1", 3)) is None


def test_output_contains_no_handle():
    rng = random.Random(17)
    for _ in range(400):
        n = rng.randint(2, 6)
        w = rand_sigma_word(rng, n, rng.randint(0, 60))
        assert _naive_handle(handle_reduce(w)) is None, w


def test_step_cap_counts_handle_reductions():
    # three handles of indices 1, 3, 5 that no reduction touches but its own
    w = parse_word("s1 s2 s1^-1 s3 s4 s3^-1 s5 s6 s5^-1", 7)
    for cap in (0, 1, 2):
        with pytest.raises(StepLimitError):
            handle_reduce(w, step_cap=cap)
    assert handle_reduce(w, step_cap=3) == parse_word(
        "s2^-1 s1 s2 s4^-1 s3 s4 s6^-1 s5 s6", 7)
    argv = ["reduce", "--oracle", "dehornoy", str(w), "-n", "7", "--step-cap"]
    assert run_command(argv + ["2"])[0] == 3
    assert run_command(argv + ["3"])[:2] == (0, b"positive\n")
