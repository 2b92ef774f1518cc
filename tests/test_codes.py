"""The int-coded letter encoding and hostile presentation JSON."""

import copy
import dataclasses
import json
import pickle
import time

import pytest

from braidhomotopy.cli import run_command
from braidhomotopy.presentations import (
    homotopy_generalized_presentation,
    presentation_from_json,
    presentation_to_json,
)
from braidhomotopy.words import (
    AlphabetError,
    ContextError,
    Word,
    atom,
    code,
    parse_gen,
    parse_word,
    sigma,
    symbol,
)


def test_codes_are_signed_symbol_codes():
    w = parse_word("s1 a1.2^-1 t1.3", 3, 1)
    assert [abs(c) for c in w.codes] == [code(gen) for gen, _ in w.letters]
    assert [c > 0 for c in w.codes] == [True, False, True]
    assert [symbol(c) for c in w.codes] == [gen for gen, _ in w.letters]
    assert code(sigma(1)) == code(sigma(1)) > 0


def test_letters_view_rebuilds_the_word():
    w = parse_word("s1^2 a1.1 s2^-1 x", 3, 1)
    assert Word(w.letters, w.context) == w
    assert hash(Word(w.letters, w.context)) == hash(w)


def test_word_is_immutable_and_survives_pickle_and_copy():
    w = parse_word("s1 a1.1^-1", 2, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.codes = ()
    assert pickle.loads(pickle.dumps(w)) == w
    assert copy.deepcopy(w) == w


def test_atom_only_words_drop_the_context():
    assert Word(((atom("q"), 1),), (3, 1)).context is None
    assert parse_word("q q^-1 s1 s1^-1", 3, 1).context is None


def test_typed_letters_need_a_context_even_when_they_cancel():
    with pytest.raises(ContextError):
        parse_word("s1 s1^-1")


def test_out_of_range_letters_that_cancel_are_accepted():
    assert parse_word("s5 s5^-1", 3) == Word()


@pytest.mark.parametrize("token", ["s1^", "s1^--1", "s1^+1", "s1^1^2", "1s", "t1.x", "s1 s2"])
def test_parse_gen_rejects_non_symbols(token):
    with pytest.raises(AlphabetError):
        parse_gen(token)


@pytest.mark.parametrize("text", ["s1^", "s1^--1", "s1^+1", "s1^1^2", "t1.x", "s0"])
def test_parse_word_rejects_malformed_tokens(text):
    with pytest.raises(AlphabetError):
        parse_word(text, 3, 1)


def test_parse_word_spellings():
    assert parse_word("s01^2", 3) == parse_word("s1 s1", 3)
    assert parse_word("s1^0 a1", 3) == Word(((atom("a1"), 1),))
    assert parse_gen("a1.2") == parse_word("a1.2", 1, 1).letters[0][0]


GOOD = json.loads(presentation_to_json(homotopy_generalized_presentation(3, 1, True, 1)))


@pytest.mark.parametrize("doc", [
    {"n": 3}, [1, 2], "text", 7,
    dict(GOOD, n="3"), dict(GOOD, n=True), dict(GOOD, n=0), dict(GOOD, g=-1),
    dict(GOOD, generators=["s1", 2]), dict(GOOD, generators=["s1^2"]),
    dict(GOOD, generators=["s7"]), dict(GOOD, relators=[3]),
    dict(GOOD, relators=[{"label": "r"}]), dict(GOOD, relators=[{"label": "r", "word": 1}]),
    dict(GOOD, families=[{"kind": "LQ", "strand": 1, "bound": 1}]),
    dict(GOOD, families=[{"kind": "LH", "strand": 1, "bound": -1}]),
    dict(GOOD, families=[{"kind": "LH", "strand": 1}]),
    dict(GOOD, closed="yes"), dict(GOOD, lh_bound=1.5),
])
def test_malformed_presentation_json_raises_value_error(doc):
    with pytest.raises(ValueError):
        presentation_from_json(json.dumps(doc))


@pytest.mark.parametrize("text", ['{"n":3}', "[1,2]"])
@pytest.mark.parametrize("argv", [["verify", "purity"], ["h1"]])
def test_malformed_input_exits_two(tmp_path, text, argv):
    path = tmp_path / "p.json"
    path.write_text(text)
    code_, out, err = run_command(argv + ["--input", str(path)])
    assert code_ == 2 and out == b"" and err.startswith(b"error: ")


def test_family_letters_outside_the_generators_exit_two(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(GOOD, generators=["s1", "s2", "a1.1"])))
    code_, _, err = run_command(["h1", "--input", str(path)])
    assert code_ == 2 and b"non-generator" in err


@pytest.mark.parametrize("argv", [["verify", "purity"], ["h1"]])
def test_family_alphabet_must_be_generators(tmp_path, argv):
    # the n=3 LH family needs s2 and a1.2; neither is among the generators
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(GOOD, generators=["s1", "a1.1"], relators=[])))
    code_, out, err = run_command(argv + ["--input", str(path)])
    assert code_ == 2 and out == b"" and b"non-generator" in err


def test_exponent_beyond_the_word_cap_exits_three_before_expanding():
    start = time.perf_counter()
    code_, out, err = run_command(["reduce", "--oracle", "dehornoy", "s1^100000000", "-n", "2"])
    assert time.perf_counter() - start < 0.5
    assert (code_, out) == (3, b"") and err.startswith(b"resource limit: ")
    code_, _, err = run_command(["reduce", "s1^600000 s2^-600000", "-n", "3"])
    assert code_ == 3 and err.startswith(b"resource limit: ")
