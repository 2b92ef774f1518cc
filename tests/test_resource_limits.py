"""Exit code 3 for inputs that would exhaust a resource.

A relator family whose strand has more than ``MAX_CONJUGATORS``
conjugators up to its bound raises ResourceLimitError before it builds
any, so every command that streams the family exits 3 at once; ``h1``
never streams it.  Memory and recursion running out inside a command
exit 3 too, with one line on stderr.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import braidhomotopy
from braidhomotopy import cli, presentations
from braidhomotopy.presentations import RelatorFamily, _conjugator_count
from braidhomotopy.words import ResourceLimitError


@pytest.mark.parametrize("kind,n,g,strand", [("LH", 2, 0, 1), ("LH", 3, 0, 1), ("LH", 3, 1, 1),
                                             ("HN", 4, 1, 2), ("LH1", 3, 2, 2)])
@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_conjugator_count_is_the_stream_length(kind, n, g, strand, bound):
    fam = RelatorFamily(kind, n, g, 0 if kind == "HN" else strand, bound)  # HN spans every strand
    rank = len(fam.strand_basis(strand))
    assert _conjugator_count(rank, bound) == len(fam.conjugators(strand))


def test_the_count_of_the_deepest_tested_strand():
    # n = 5, g = 2: four loops and four bands on strand 1
    assert _conjugator_count(8, 4) == 57_857 < presentations.MAX_CONJUGATORS


def test_a_strand_over_the_cap_builds_no_conjugator(monkeypatch):
    fam = RelatorFamily("LH", 3, 1, 1, 2)  # four basis letters: 65 conjugators
    monkeypatch.setattr(presentations, "MAX_CONJUGATORS", 65)
    assert len(fam.conjugators(1)) == 65
    monkeypatch.setattr(presentations, "MAX_CONJUGATORS", 64)

    def refuse(*args, **kwargs):
        raise AssertionError("conjugators enumerated")

    monkeypatch.setattr(presentations, "enumerate_shortlex", refuse)
    with pytest.raises(ResourceLimitError, match="more than 64 conjugators up to bound 2"):
        fam.conjugators(1)
    with pytest.raises(ResourceLimitError):
        next(fam.instances())


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(braidhomotopy.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "braidhomotopy", *argv],
                          capture_output=True, env=env, timeout=10)


FAMILY = ["--family", "homotopy", "-n", "3", "-g", "1", "--closed", "--lh-bound", "40"]


@pytest.mark.parametrize("argv", [["pres", *FAMILY], ["verify", "purity", *FAMILY],
                                  ["verify", "eq32", "-n", "3", "--lh-bound", "40"],
                                  ["tc", *FAMILY]], ids=lambda argv: " ".join(argv[:2]))
def test_a_hostile_bound_exits_three_at_once(argv):
    proc = _cli(*argv)
    assert proc.returncode == 3 and proc.stdout == b""
    assert proc.stderr.startswith(b"resource limit: ") and proc.stderr.count(b"\n") == 1


def test_h1_at_a_hostile_bound_still_answers():
    proc = _cli("h1", *FAMILY)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"Z^2 + Z/2\n", b"")


@pytest.mark.parametrize("exc,line", [
    (MemoryError(), b"resource limit: MemoryError\n"),
    (RecursionError("maximum recursion depth exceeded"),
     b"resource limit: maximum recursion depth exceeded\n"),
])
def test_running_out_of_memory_or_recursion_exits_three(monkeypatch, exc, line):
    def crash(args, out, err):
        raise exc

    monkeypatch.setattr(cli, "_cmd_tc", crash)
    assert cli.run_command(["tc", "--family", "symmetric", "-n", "3"]) == (3, b"", line)
