"""The README's command-line examples, run as written.

Every ``braidhomotopy ...  # -> X`` line of the usage block must print X,
and the ``# exit N, stderr:`` example must exit N with the stderr line
given below it.
"""

import pathlib
import re
import shlex

import pytest

from braidhomotopy.cli import run_command

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """(argv, exit code, stdout, stderr) for each checked example."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    found = []
    for k, line in enumerate(lines):
        if not line.startswith("braidhomotopy "):
            continue
        command, _, comment = line.partition("  #")
        argv = shlex.split(command)[1:]
        if (m := re.fullmatch(r" -> (.*)", comment)):
            found.append((argv, 0, m.group(1) + "\n", ""))
        elif (m := re.fullmatch(r" exit (\d+), stderr:", comment)):
            stderr = re.fullmatch(r"#\s+(.*)", lines[k + 1]).group(1)
            found.append((argv, int(m.group(1)), "", stderr + "\n"))
    return found


EXAMPLES = _examples()


def test_the_usage_block_has_the_checked_examples():
    assert len(EXAMPLES) == 7
    assert ["tc", "--family", "goldsmith", "-n", "4", "--lh-bound", "1",
            "--subgroup", "pure"] in [argv for argv, *_ in EXAMPLES]


@pytest.mark.parametrize("argv,code,out,err", EXAMPLES,
                         ids=[" ".join(argv) for argv, *_ in EXAMPLES])
def test_readme_example(argv, code, out, err):
    assert run_command(argv) == (code, out.encode(), err.encode())
