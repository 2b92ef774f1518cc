"""The strand count is capped before any n-sized work.

Every constructor that refuses too few strands also refuses more than
``presentations.MAX_STRANDS`` with ResourceLimitError (exit 3), before it
builds a generator.  Without the cap, ``h1 --family goldsmith -n 2000
--lh-bound 1`` ran for more than 20 s, and a presentation JSON with
``"n": 100000000`` built a band basis of 10^8 generators until the kernel
killed the process.
"""

import ast
import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

import braidhomotopy
from braidhomotopy import presentations as pres
from braidhomotopy.cli import run_command
from braidhomotopy.words import ResourceLimitError

CAP = pres.MAX_STRANDS
OVER = CAP + 1

_CHILD = """
import sys, time
from braidhomotopy.cli import run_command
t = time.perf_counter()
code, out, err = run_command(sys.argv[1:])
print(repr((code, out, err, time.perf_counter() - t)))
"""


def _limited():
    # a broken cap must fail the test, not exhaust the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_capped(argv):
    """A command in a fresh process with 2 GB of address space: (exit, stdout,
    stderr, seconds spent in ``run_command``)."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(braidhomotopy.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], capture_output=True,
                          env=env, timeout=60, preexec_fn=_limited)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.decode())


def test_many_strands_on_the_command_line_exit_three_at_once():
    code, out, err, seconds = _run_capped(
        ["h1", "--family", "goldsmith", "-n", "2000", "--lh-bound", "1"])
    assert (code, out, err) == (3, b"", f"resource limit: 2000 strands exceed the cap "
                                        f"of {CAP}\n".encode())
    assert seconds < 1


def test_many_strands_in_a_json_document_exit_three_at_once(tmp_path):
    doc = {"family": "goldsmith", "n": 100_000_000, "g": 0, "closed": None, "lh_bound": 1,
           "generators": ["s1"], "relators": [],
           "families": [{"kind": "LH", "strand": 1, "bound": 1}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err, seconds = _run_capped(["h1", "--input", str(path)])
    assert (code, out, err) == (3, b"", f"resource limit: 100000000 strands exceed the cap "
                                        f"of {CAP}\n".encode())
    assert seconds < 1


@pytest.fixture
def no_generators(monkeypatch):
    """Make building any generator fail, so a missing cap fails fast."""
    def refuse(*args, **kwargs):
        raise AssertionError("built a generator")

    for name in ("sigma", "loop", "band", "atom", "parse_gen"):
        monkeypatch.setattr(pres, name, refuse)


@pytest.mark.parametrize("build", [
    lambda n: pres.surface_braid_presentation(n, 1),
    lambda n: pres.homotopy_generalized_presentation(n, 1, True, 1),
    lambda n: pres.homotopy_generalized_presentation(n, 1, False, 1, with_auxiliary=True),
    lambda n: pres.pure_homotopy_presentation(n, 1, True, 1),
    lambda n: pres.goldsmith_presentation(n, 1),
    lambda n: pres.symmetric_presentation(n),
    lambda n: pres.presentation_from_doc({
        "family": "symmetric", "n": n, "g": 0, "closed": None, "lh_bound": None,
        "generators": ["d1"], "relators": [], "families": []}),
], ids=["surface", "homotopy", "homotopy-aux", "pure", "goldsmith", "symmetric", "json"])
def test_every_constructor_refuses_one_strand_over_the_cap(build, no_generators):
    with pytest.raises(ResourceLimitError, match=f"{OVER} strands exceed the cap of {CAP}"):
        build(OVER)


@pytest.mark.parametrize("argv", [
    ["pres", "--family", "symmetric"],
    ["tc", "--family", "surface", "-g", "1"],
    ["verify", "purity", "--family", "pure", "-g", "1", "--closed", "--lh-bound", "1"],
    ["h1", "--family", "quotient", "-g", "1", "--lh-bound", "1"],
], ids=lambda argv: " ".join(argv[:3]))
def test_every_family_command_exits_three_over_the_cap(argv, no_generators):
    code, out, err = run_command([*argv, "-n", str(OVER)])
    assert (code, out, err) == (3, b"", f"resource limit: {OVER} strands exceed the cap "
                                        f"of {CAP}\n".encode())


def test_too_few_strands_stay_a_usage_error():
    assert run_command(["pres", "--family", "goldsmith", "-n", "1", "--lh-bound", "1"])[0] == 2
    assert run_command(["h1", "--family", "surface", "-n", "0", "-g", "1"])[0] == 2


def test_the_cap_itself_is_accepted():
    assert pres.symmetric_presentation(CAP).n == CAP
