"""Rules of single CLI flags that hold for every command.

``--output FILE`` receives stdout, and is written only when the command
exits 0 or 1: exits 2 and 3 leave FILE as it was.  ``reduce --step-cap``
must be >= 0 for every oracle.  ``reduce --input FILE`` appends the
file's non-blank lines to the positional words.  Documented usage errors
exit 2 with one ``error:`` line and no stdout.
"""

import pytest
from hypothesis import given, settings

from braidhomotopy.cli import run_command
from test_exit_contract import argvs

SENTINEL = b"sentinel: this file predates the command\n"


@pytest.fixture(scope="module")
def output_path(tmp_path_factory):
    return tmp_path_factory.mktemp("output") / "report.txt"


def _check_output_rule(path, argv):
    """Run argv with and without ``--output path``; path starts as SENTINEL."""
    code, out, err = run_command(argv)
    path.write_bytes(SENTINEL)
    code_to_file, out_to_file, err_to_file = run_command(argv + ["--output", str(path)])
    assert (code_to_file, err_to_file) == (code, err)
    if code in (2, 3):
        assert (out_to_file, path.read_bytes()) == (out, SENTINEL)
    else:
        assert (out_to_file, path.read_bytes()) == (b"", out)
    return code


@settings(max_examples=100, deadline=None)
@given(argvs())
def test_output_is_written_only_on_exit_zero_or_one(output_path, argv):
    _check_output_rule(output_path, argv)


@pytest.mark.parametrize("argv, code", [
    (["h1", "--family", "goldsmith", "-n", "3", "--lh-bound", "1", "--expect", "garbage"], 2),
    (["verify", "eq31", "-n", "1"], 2),
    (["tc", "--family", "surface", "-n", "2", "-g", "1", "--max-cosets", "200"], 3),
    (["h1", "--family", "goldsmith", "-n", "4", "--lh-bound", "0", "--expect", "Z^2"], 1),
    (["pres", "--family", "symmetric", "-n", "3"], 0),
])
def test_output_survives_failed_commands(tmp_path, argv, code):
    assert _check_output_rule(tmp_path / "report.txt", argv) == code


def test_output_that_cannot_be_written_goes_to_stdout(tmp_path):
    code, out, err = run_command(["reduce", "s1 s2", "-n", "3", "--output", str(tmp_path)])
    assert (code, out) == (2, b"s1 s2\n")
    assert err.startswith(b"i/o error: ") and err.count(b"\n") == 1


@pytest.mark.parametrize("argv, cap", [
    (["s1", "-n", "3"], "-1"),
    (["--oracle", "magnus", "s1 s1^-1", "-n", "3"], "-7"),
    (["--oracle", "free", "s0"], "-1"),
    (["--oracle", "dehornoy", "--compare", "s1", "-n", "3"], "-2"),
])
def test_negative_step_cap_is_refused_for_every_oracle(argv, cap):
    code, out, err = run_command(["reduce", "--step-cap", cap, *argv])
    assert (code, out, err) == (2, b"", f"error: step_cap must be >= 0, got {cap}\n".encode())


@pytest.mark.parametrize("oracle, expected", [
    ("free", b"s1 s2\n"), ("dehornoy", b"positive\n"), ("magnus", b"nontrivial\n")])
def test_zero_step_cap_is_valid_for_every_oracle(oracle, expected):
    code, out, err = run_command(["reduce", "--oracle", oracle, "--step-cap", "0",
                                  "s1 s2", "-n", "3"])
    assert (code, out, err) == (0, expected, b"")


def test_reduce_input_follows_the_positional_words(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("a1.2 a1.2^-1 t1.3\n\n   \ns2^-1 s2 s1\n\t\na2.1^2\n", encoding="utf-8")
    code, out, err = run_command(["reduce", "s1 s1", "a1.1", "--input", str(path),
                                  "-n", "3", "-g", "1"])
    assert (code, out, err) == (0, b"s1^2\na1.1\nt1.3\ns1\na2.1^2\n", b"")


def test_reduce_input_that_is_missing_is_an_io_error(tmp_path):
    code, out, err = run_command(["reduce", "s1", "--input", str(tmp_path / "missing.txt"),
                                  "-n", "3"])
    assert (code, out) == (2, b"")
    assert err.startswith(b"i/o error: ") and err.count(b"\n") == 1


@pytest.mark.parametrize("argv", [
    ["h1", "--family", "symmetric", "-n", "3", "--expect", "Z/2 + Z/3"],
    ["h1", "--family", "symmetric", "-n", "3", "--expect", "garbage"],
    ["tc", "--family", "symmetric", "-n", "3", "--max-cosets", "0"],
])
def test_documented_usage_errors(argv):
    code, out, err = run_command(argv)
    assert (code, out) == (2, b"")
    assert err.startswith(b"error: ") and err.count(b"\n") == 1
