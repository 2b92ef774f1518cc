"""A flag a command accepts is a flag it reads.

Each family reads its own family flags, ``--input`` takes no family
flags, and each ``verify`` check has its own flags; anything else is a
usage error: exit 2, no stdout, one ``usage error:`` line.  The tables
here are written by hand from the paper's cases, not read from the CLI.
The parser is built once per process and keeps no state between calls,
and ``tc --table-out``, like ``--output``, is written only on success.
"""

import io
import os
import pathlib
import subprocess
import sys

import pytest

import braidhomotopy
from braidhomotopy import cli
from braidhomotopy.cli import run_command

# the flags each family needs beyond -n, and the family flags it does not read
NEEDED = {
    "surface": ["-g", "1"],
    "homotopy": ["-g", "1", "--closed", "--lh-bound", "1"],
    "goldsmith": ["--lh-bound", "1"],
    "pure": ["-g", "1", "--closed", "--lh-bound", "1"],
    "symmetric": [],
    "quotient": ["-g", "1", "--lh-bound", "1"],
}
UNREAD = {
    "surface": [["--closed"], ["--lh-bound", "1"]],
    "homotopy": [],
    "goldsmith": [["-g", "1"], ["--closed"]],
    "pure": [],
    "symmetric": [["-g", "1"], ["--closed"], ["--lh-bound", "1"]],
    "quotient": [["--closed"]],
}
NAMES = {"-g": "-g", "--closed": "--closed or --punctured", "--lh-bound": "--lh-bound",
         "--with-auxiliary": "--with-auxiliary"}
COMMANDS = [["pres"], ["tc", "--max-cosets", "10"], ["h1"], ["verify", "purity"]]


def _family_cases():
    for command in COMMANDS:
        for family, unread in UNREAD.items():
            aux = command == ["pres"] and family != "homotopy"
            for flag in unread + ([["--with-auxiliary"]] if aux else []):
                message = (f"{family} takes no {NAMES[flag[0]]}"
                           if (family, flag[0]) != ("goldsmith", "-g")
                           else "goldsmith is the disk case; drop -g")
                argv = command + ["--family", family, "-n", "3", *NEEDED[family], *flag]
                yield argv, message


INPUT_FLAGS = [["--family", "surface"], ["-n", "3"], ["-g", "1"], ["--closed"],
               ["--lh-bound", "1"]]


@pytest.fixture(scope="module")
def presentation_file(tmp_path_factory):
    code, out, _ = run_command(["pres", "--family", "symmetric", "-n", "3", "--format", "json"])
    assert code == 0
    path = tmp_path_factory.mktemp("input") / "p.json"
    path.write_bytes(out)
    return str(path)


def _refused(argv):
    code, out, err = run_command(argv)
    assert (code, out) == (2, b""), argv
    text = err.decode()
    assert text.startswith("usage error: ") and text.count("\n") == 1, argv
    return text[len("usage error: "):-1]


@pytest.mark.parametrize("argv,message", list(_family_cases()),
                         ids=[" ".join(argv) for argv, _ in _family_cases()])
def test_a_family_flag_the_family_does_not_read_is_refused(argv, message):
    assert _refused(argv) == message


@pytest.mark.parametrize("command", [["h1"], ["verify", "purity"]], ids=" ".join)
@pytest.mark.parametrize("flag", INPUT_FLAGS, ids=" ".join)
def test_input_takes_no_family_flags(presentation_file, command, flag):
    argv = command + ["--input", presentation_file, *flag]
    assert _refused(argv) == f"--input takes no {NAMES.get(flag[0], flag[0])}"


CHECK_FLAGS = [["--family", "surface"], ["--closed"], ["--input", "FILE"], ["--lh-bound", "1"]]
CHECKS = {"eq31": ["-n", "3"], "eq32": ["-n", "3"], "transport": ["-n", "3"],
          "a-expansion": ["-n", "3", "-g", "1"]}
CHECK_CASES = [(check, flag) for check in CHECKS for flag in CHECK_FLAGS
               if (check, flag[0]) != ("eq32", "--lh-bound")]  # eq32 reads --lh-bound


@pytest.mark.parametrize("check,flag", CHECK_CASES,
                         ids=[f"{check} {flag[0]}" for check, flag in CHECK_CASES])
def test_an_identity_check_takes_no_family_flags(presentation_file, check, flag):
    flag = [presentation_file if f == "FILE" else f for f in flag]
    message = _refused(["verify", check, *CHECKS[check], *flag])
    assert message == f"unrecognized arguments: {' '.join(flag)}"


def test_the_matrix_has_sixty_two_cases():
    assert len(list(_family_cases())) + 2 * len(INPUT_FLAGS) + len(CHECK_CASES) == 62


def test_input_that_does_not_exist_is_not_a_pass_for_an_identity_check():
    assert _refused(["verify", "eq31", "-n", "3", "--input", "/nonexistent"]) == \
        "unrecognized arguments: --input /nonexistent"


@pytest.mark.parametrize("argv,missing", [
    (["verify", "eq31"], "-n"), (["verify", "eq32", "-g", "1"], "-n"),
    (["verify", "transport", "--inject-fault"], "-n"), (["verify", "a-expansion"], "-n, -g"),
    (["verify", "a-expansion", "-n", "3"], "-g"), (["verify", "a-expansion", "-g", "1"], "-n"),
])
def test_an_identity_check_missing_a_required_flag(argv, missing):
    assert _refused(argv) == f"the following arguments are required: {missing}"


def test_the_flags_each_check_reads_are_still_read():
    code, out, _ = run_command(["verify", "eq32", "-n", "3"])
    assert code == 0 and out.startswith(b"# eq32 n=3 g=1 bound=3: PASS")
    code, out, _ = run_command(["verify", "eq31", "-n", "3", "-g", "0", "--format", "json"])
    assert code == 0 and b'"passed": true' in out
    code, out, _ = run_command(["verify", "transport", "-n", "3", "--inject-fault"])
    assert code == 1 and b"FAIL" in out
    code, out, _ = run_command(["verify", "purity", "--family", "goldsmith", "-n", "3",
                                "-g", "0", "--lh-bound", "1"])
    assert code == 0 and b"PASS" in out


# --- one parser per process, with no state carried between calls ------------

def _alone(argv, stdin=b""):
    """The same call in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(braidhomotopy.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "braidhomotopy", *argv], input=stdin,
                          capture_output=True, env=env, timeout=30)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("first,second", [
    ((["tc", "--family", "symmetric", "-n", "4", "--subgroup-word", "d1"], b""),
     (["tc", "--family", "symmetric", "-n", "4"], b"")),
    ((["pres", "--family", "surface", "-n", "3", "-g", "1", "--punctured"], b""),
     (["pres", "--family", "surface", "-n", "2", "-g", "1"], b"")),
    ((["reduce", "-n", "3"], b"s1 s2 s2^-1\ns2^3 s2^-1\n"),
     (["reduce", "s1 s1^-1 s2", "s2^-1", "-n", "3"], b"")),
], ids=["subgroup-word", "usage-error", "stdin"])
def test_a_call_after_another_matches_the_call_alone(first, second):
    (argv1, stdin1), (argv2, stdin2) = first, second
    in_order = [run_command(argv1, io.BytesIO(stdin1)), run_command(argv2, stdin2)]
    assert in_order == [_alone(argv1, stdin1), _alone(argv2, stdin2)]


def test_run_command_never_builds_a_parser(monkeypatch):
    def refuse():
        raise AssertionError("parser built per call")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    assert run_command(["tc", "--family", "symmetric", "-n", "4"]) == (0, b"24\n", b"")


# --- --table-out is written only when tc exits 0 ------------------------------

SENTINEL = b"sentinel: this file predates the command\n"


@pytest.mark.parametrize("argv,code", [
    (["tc", "--family", "surface", "-n", "2", "-g", "1", "--max-cosets", "50"], 3),
    (["tc", "--family", "surface", "-n", "2", "-g", "1", "--closed"], 2),
    (["tc", "--family", "symmetric", "-n", "3", "--max-cosets", "0"], 2),
])
def test_table_out_is_left_as_it_was_when_tc_fails(tmp_path, argv, code):
    path = tmp_path / "t.csv"
    path.write_bytes(SENTINEL)
    result = run_command(argv + ["--table-out", str(path)])
    assert result[:2] == (code, b"") and path.read_bytes() == SENTINEL
