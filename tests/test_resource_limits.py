"""Exit code 3 for inputs that would exhaust a resource.

A relator family whose strand has more than ``MAX_CONJUGATORS``
conjugators up to its bound, or whose count times the bound passes
``MAX_CONJUGATOR_LETTERS`` (a rank-1 strand, whose few conjugators hold
about bound^2 letters), raises ResourceLimitError before it builds
any, so every command that streams the family exits 3 at once; ``h1``
never streams it, and ``tc`` checks every strand before it enumerates,
whether or not it then streams.  A ``tc`` enumeration whose cosets would
pass ``MAX_TABLE_BYTES`` of estimated memory exits 3 when it reaches them,
below any larger cap.  Memory and recursion running out inside a command exit 3 too, with one
line on stderr.
"""

import itertools
import os
import pathlib
import subprocess
import sys

import pytest

import braidhomotopy
from braidhomotopy import cli, extension, presentations
from braidhomotopy.presentations import (
    RelatorFamily,
    _conjugator_count,
    symmetric_presentation,
)
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


@pytest.mark.parametrize("subgroup", [[], ["--subgroup", "pure"]], ids=["trivial", "pure"])
def test_tc_refuses_a_hostile_bound_before_it_enumerates(monkeypatch, subgroup):
    def refuse(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(extension, "_enumerate", refuse)
    assert cli.run_command(["tc", *FAMILY, *subgroup]) == (
        3, b"", b"resource limit: relator family LH (strand 1) has more than 250000 "
                b"conjugators up to bound 40\n")


def test_a_coset_cap_past_the_table_ceiling_exits_three():
    proc = _cli("tc", "--family", "surface", "-n", "2", "-g", "1",
                "--max-cosets", "99999999999999999999")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, b"", b"resource limit: a coset table over 3 generators passes the memory ceiling "
                b"of 256 MiB at 578524 cosets\n")


def _cosets_to_close(p):
    """The fewest cosets an enumeration of p over the trivial subgroup defines."""
    return next(cap for cap in itertools.count(1)
                if extension.todd_coxeter(p, [], cap).status == "closed")


def test_the_table_ceiling_counts_the_cosets_defined(monkeypatch):
    s3 = symmetric_presentation(3)  # two generators, four columns
    defined = _cosets_to_close(s3)
    per_coset = extension._COSET_BYTES + 4 * extension._COLUMN_BYTES
    monkeypatch.setattr(extension, "MAX_TABLE_BYTES", defined * per_coset)
    assert extension.todd_coxeter(s3, []).coset_count == 6
    monkeypatch.setattr(extension, "MAX_TABLE_BYTES", defined * per_coset - 1)
    with pytest.raises(ResourceLimitError, match=f"at {defined - 1} cosets"):
        extension.todd_coxeter(s3, [])
    # at a cap no larger than the ceiling, the cap overflows as before
    assert extension.todd_coxeter(s3, [], defined - 1).status == "overflow"


@pytest.mark.parametrize("argv", [
    ["--family", "surface", "-n", "2", "-g", "20", "--subgroup", "pure"],  # 41 generators
    ["--family", "surface", "-n", "2", "-g", "60", "--subgroup", "pure"],  # 121 generators
])
def test_a_small_index_answers_at_the_default_cap_over_many_generators(argv):
    assert cli.run_command(["tc", *argv]) == (0, b"2\n", b"")


def test_the_default_cap_fits_under_the_ceiling_up_to_forty_one_generators():
    per_coset = extension._COSET_BYTES + 82 * extension._COLUMN_BYTES
    assert extension.DEFAULT_MAX_COSETS * per_coset <= extension.MAX_TABLE_BYTES


def test_h1_at_a_hostile_bound_still_answers():
    proc = _cli("h1", *FAMILY)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"Z^2 + Z/2\n", b"")


RANK_ONE = ["--family", "goldsmith", "-n", "2", "--lh-bound", "124999"]  # 249,999 conjugators


@pytest.mark.parametrize("argv", [["pres", *RANK_ONE], ["verify", "purity", *RANK_ONE],
                                  ["tc", *RANK_ONE],
                                  ["verify", "eq32", "-n", "2", "-g", "0", "--lh-bound", "124999"]],
                         ids=lambda argv: " ".join(argv[:2]))
def test_a_rank_one_strand_at_a_hostile_bound_exits_three_at_once(argv):
    proc = _cli(*argv)
    assert proc.returncode == 3 and proc.stdout == b""
    assert proc.stderr.startswith(b"resource limit: ") and proc.stderr.count(b"\n") == 1


def test_h1_at_a_hostile_rank_one_bound_still_answers():
    proc = _cli("h1", *RANK_ONE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"Z\n", b"")


def test_the_letter_cap_fires_only_at_rank_one():
    # from rank 250 on only bounds 0 and 1 pass the count cap, so no product there passes 250,000
    products = []
    for rank in range(2, 300):
        for bound in itertools.count():
            count = _conjugator_count(rank, bound)
            if count > presentations.MAX_CONJUGATORS:
                break
            products.append(count * bound)
    assert max(products) == 1_180_970 <= presentations.MAX_CONJUGATOR_LETTERS  # rank 2, bound 10
    RelatorFamily("LH", 2, 0, 1, 999).check_cap()  # 1,999 conjugators, 1,997,001
    with pytest.raises(ResourceLimitError, match="has 2001 conjugators up to bound 1000, "
                                                 "which may hold more than 2000000 letters"):
        RelatorFamily("LH", 2, 0, 1, 1000).check_cap()


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
