"""Each input rule has one owner: the family flags in the CLI table, the
generators and the family strands in ``Presentation``, and the typed-letter
context in ``words``."""

import itertools
import json

import pytest

from braidhomotopy.cli import run_command
from braidhomotopy.extension import ExtensionData, assemble_extension
from braidhomotopy.presentations import Presentation
from braidhomotopy.words import (
    AlphabetError,
    ContextError,
    Word,
    atom,
    band,
    free_reduce,
    gen_word,
    sigma,
)

FLAGS = {"g": ["-g", "1"], "closed": ["--closed"], "lh_bound": ["--lh-bound", "1"]}
NEEDS = {"g": "-g", "closed": "--closed or --punctured", "lh_bound": "an explicit --lh-bound"}
FAMILY_NEEDS = {
    "surface": ("g",),
    "homotopy": ("g", "closed", "lh_bound"),
    "goldsmith": ("lh_bound",),
    "pure": ("g", "closed", "lh_bound"),
    "quotient": ("g", "lh_bound"),
}
COMMANDS = [["pres"], ["tc"], ["h1"], ["verify", "purity"]]


def _missing_cases():
    for family, needs in FAMILY_NEEDS.items():
        for k in range(1, len(needs) + 1):
            for missing in itertools.combinations(needs, k):
                flags = [f for name in needs if name not in missing for f in FLAGS[name]]
                # the first missing argument in the order g, closed, bound is named
                yield family, flags, f"{family} needs {NEEDS[missing[0]]}"
    for flags in (["-g", "1"], ["-g", "1", "--lh-bound", "1"], ["-g", "-1"]):
        yield "goldsmith", flags, "goldsmith is the disk case; drop -g"


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("family,flags,message", list(_missing_cases()))
def test_a_family_missing_a_flag_is_a_usage_error(command, family, flags, message):
    argv = command + ["--family", family, "-n", "3"] + flags
    assert run_command(argv) == (2, b"", f"usage error: {message}\n".encode())


def test_goldsmith_accepts_genus_zero():
    argv = ["h1", "--family", "goldsmith", "-n", "3", "-g", "0", "--lh-bound", "1"]
    assert run_command(argv) == (0, b"Z\n", b"")


# --- the generators: distinct and valid for (n, g), checked by Presentation --

def _doc(generators, relators=(), n=1):
    return {"family": "custom", "n": n, "g": 0, "closed": None, "lh_bound": None,
            "generators": list(generators),
            "relators": [{"label": f"r{k}", "word": w} for k, w in enumerate(relators)],
            "families": []}


def _run_on(tmp_path, doc, command):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return run_command(command + ["--input", str(path)])


def _one_error_line(err: bytes) -> str:
    text = err.decode()
    assert text.startswith("error: ") and text.count("\n") == 1 and text.endswith("\n")
    return text


@pytest.mark.parametrize("command", [["h1"], ["verify", "purity"]], ids=" ".join)
@pytest.mark.parametrize("doc,repeated", [
    (_doc(["x", "x"]), "x"),  # was Z^2
    (_doc(["x", "x", "y"], ["x^2"]), "x"),  # was "error: ragged matrix"
    (_doc(["s1", "s2", "s1"], ["s1 s2 s1 s2^-1 s1^-1 s2^-1"], n=3), "s1"),  # was an IndexError
])
def test_repeated_generators_exit_two(tmp_path, command, doc, repeated):
    code, out, err = _run_on(tmp_path, doc, command)
    assert (code, out) == (2, b"")
    assert _one_error_line(err) == f"error: repeated generator {repeated}\n"


def test_a_presentation_refuses_repeated_or_out_of_range_generators():
    with pytest.raises(ValueError, match="repeated generator s1"):
        Presentation("custom", 3, 0, None, None, (sigma(1), sigma(2), sigma(1)), (), ())
    with pytest.raises(ValueError, match="repeated generator q"):
        Presentation("custom", 1, 0, None, None, (atom("q"), atom("q")), (), ())
    with pytest.raises(AlphabetError, match="s3 out of range for n=3"):
        Presentation("custom", 3, 0, None, None, (sigma(1), sigma(3)), (), ())
    with pytest.raises(AlphabetError, match="t2.4 out of range for n=3"):
        Presentation("custom", 3, 1, None, None, (band(2, 4),), (), ())


def test_a_lift_equal_to_a_kernel_generator_is_refused():
    x, y = atom("x"), atom("y")
    kernel = Presentation("custom", 1, 0, None, None, (x,), (), ())
    quotient = Presentation("custom", 1, 0, None, None, (y,), (Word(((y, 1), (y, 1))),), ("y2",))
    data = ExtensionData(kernel, quotient, {y: x}, {"y2": Word()}, {(y, x): gen_word(x)})
    with pytest.raises(ValueError, match="repeated generator x"):
        assemble_extension(data)


# --- relator-family strands fit their kind: HN 0, LH and LH1 1..n ------------

def _family_doc(argv, strand):
    code, out, _ = run_command(["pres"] + argv + ["--format", "json"])
    assert code == 0
    doc = json.loads(out)
    doc["families"][-1]["strand"] = strand
    return doc


GOLDSMITH = ["--family", "goldsmith", "-n", "3", "--lh-bound", "1"]
QUOTIENT = ["--family", "quotient", "-n", "3", "-g", "1", "--lh-bound", "1"]


@pytest.mark.parametrize("command", [["h1"], ["verify", "purity"]], ids=" ".join)
@pytest.mark.parametrize("argv,strand,kind", [(GOLDSMITH, 9, "LH"), (GOLDSMITH, 0, "LH"),
                                              (QUOTIENT, 2, "HN"), (QUOTIENT, -1, "HN")])
def test_a_family_strand_its_kind_cannot_have_exits_two(tmp_path, command, argv, strand, kind):
    code, out, err = _run_on(tmp_path, _family_doc(argv, strand), command)
    assert (code, out) == (2, b"")
    assert _one_error_line(err) == \
        f"error: relator family {kind} on 3 strands cannot have strand {strand}\n"


def test_an_lh_family_on_the_last_strand_still_loads(tmp_path):
    code, out, err = _run_on(tmp_path, _family_doc(GOLDSMITH, 3), ["verify", "purity"])
    assert code == 0 and b"PASS" in out and err == b""


# --- the typed-letter context, checked once in words ---------------------

def test_gen_word_without_a_context_names_the_typed_letter():
    with pytest.raises(ContextError, match="typed letter s1 requires an"):
        gen_word(sigma(1))


def test_free_reduce_without_a_context_names_the_typed_letter():
    with pytest.raises(ContextError, match="typed letter s2 requires an"):
        free_reduce([(sigma(2), 1), (sigma(2), -1)])


def test_a_subgroup_word_off_the_generators_exits_two():
    code, out, err = run_command(["tc", "--family", "surface", "-n", "2", "-g", "1",
                                  "--subgroup-word", "t1.2"])
    assert (code, out) == (2, b"")
    assert _one_error_line(err) == "error: word letter t1.2 is not a presentation generator\n"
