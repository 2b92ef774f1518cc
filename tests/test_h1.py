"""``h1`` reads only the finite relators.

Every LH/HN/LH1 family instance is a commutator [t, t^h], so its
exponent sums vanish and it cannot change the abelianization.  These
tests check that premise instance by instance, check that skipping the
families gives the same invariants as the streamed matrix, and pin the
CLI output, including at bounds whose families could never be streamed.
"""

import json
import os
import pathlib
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import pytest

import braidhomotopy
from braidhomotopy.cli import run_command
from braidhomotopy.presentations import (
    RelatorFamily,
    goldsmith_presentation,
    homotopy_generalized_presentation,
    homotopy_quotient,
    pure_homotopy_presentation,
    surface_braid_presentation,
    symmetric_presentation,
)
from braidhomotopy.verify import AbelianInvariants, abelianized_matrix, h1, smith_normal_form

BOUNDS = (0, 1, 2)


def _families():
    """(kind, n, g, strand) for n <= 4, g <= 2; genus 0 only for LH (Goldsmith).

    LH with n = 2, g = 0 is left out: its conjugators are powers of t_{1,2},
    so every instance is freely trivial and none is emitted."""
    for n in (2, 3, 4):
        for g in (0, 1, 2):
            if n > 2 or g:
                yield "LH", n, g, 1
            if g:
                yield "HN", n, g, 0
                yield from (("LH1", n, g, i) for i in range(1, n))


@pytest.mark.parametrize("kind,n,g,strand", list(_families()), ids=str)
def test_family_instances_have_zero_exponent_sums(kind, n, g, strand):
    fam = RelatorFamily(kind, n, g, strand, max(BOUNDS))
    count = 0
    for label, rel in fam.instances():
        sums = Counter()
        for c in rel.codes:
            sums[abs(c)] += 1 if c > 0 else -1
        assert not any(sums.values()), label
        count += 1
    assert count > 0


def _presentations(bound):
    """One presentation per family constructor, n <= 4 and g <= 2."""
    yield symmetric_presentation(4)
    for n in (2, 4):
        yield goldsmith_presentation(n, bound)
        for g in (1, 2):
            yield surface_braid_presentation(n, g)
            yield homotopy_quotient(surface_braid_presentation(n, g), bound)
            for closed in (True, False):
                yield pure_homotopy_presentation(n, g, closed, bound)
                for aux in (False, True):
                    yield homotopy_generalized_presentation(n, g, closed, bound, aux)


@pytest.mark.parametrize("bound", BOUNDS)
def test_h1_equals_the_streamed_matrix(bound):
    for p in _presentations(bound):
        streamed = smith_normal_form(abelianized_matrix(p), ncols=len(p.generators))
        assert h1(p) == streamed, (p.family, p.n, p.g, p.closed)


def test_h1_never_streams_a_family(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{self.kind} family streamed")

    monkeypatch.setattr(RelatorFamily, "instances", refuse)
    for n, g in ((3, 1), (4, 2)):
        homotopy = AbelianInvariants(2 * g, (2,))
        for closed in (True, False):
            assert h1(homotopy_generalized_presentation(n, g, closed, 5)) == homotopy
            assert h1(homotopy_generalized_presentation(n, g, closed, 5, True)) == homotopy
            assert h1(pure_homotopy_presentation(n, g, closed, 5)) == \
                AbelianInvariants(2 * g * n, ())
        assert h1(homotopy_quotient(surface_braid_presentation(n, g), 5)) == homotopy
        assert h1(goldsmith_presentation(n, 5)) == AbelianInvariants(1, ())
    with pytest.raises(AssertionError, match="LH family streamed"):
        abelianized_matrix(goldsmith_presentation(3, 1))


def test_instances_share_the_bound_check():
    fam = RelatorFamily("LH", 3, 1, 1, 1)
    with pytest.raises(ValueError, match=r"^lh_bound must be >= 0, got -1$"):
        replace(fam, bound=-1)
    with pytest.raises(ValueError, match=r"^lh_bound must be >= 0, got -2$"):
        RelatorFamily("LH", 3, 1, 1, -2)


# ``h1`` stdout for each ``PRES`` flag set of test_golden.py that ``h1``
# accepts (all but ``--with-auxiliary``), recorded before ``h1`` stopped
# streaming the relator families.
GOLDEN = [
    ("--family surface -n 3 -g 1", "Z^2 + Z/2\n"),
    ("--family surface -n 1 -g 2", "Z^4\n"),
    ("--family homotopy -n 3 -g 1 --closed --lh-bound 2", "Z^2 + Z/2\n"),
    ("--family homotopy -n 3 -g 2 --punctured --lh-bound 1", "Z^4 + Z/2\n"),
    ("--family goldsmith -n 4 --lh-bound 2", "Z\n"),
    ("--family pure -n 3 -g 1 --closed --lh-bound 1", "Z^6\n"),
    ("--family pure -n 3 -g 1 --punctured --lh-bound 2", "Z^6\n"),
    ("--family symmetric -n 4", "Z/2\n"),
    ("--family quotient -n 3 -g 1 --lh-bound 1", "Z^2 + Z/2\n"),
]


@pytest.mark.parametrize("flags,stdout", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_h1_golden(flags, stdout, tmp_path):
    assert run_command(["h1", *flags.split()]) == (0, stdout.encode(), b"")
    code, doc, _ = run_command(["pres", *flags.split(), "--format", "json"])
    assert code == 0
    path = tmp_path / "p.json"
    path.write_bytes(doc)
    assert run_command(["h1", "--input", str(path)]) == (0, stdout.encode(), b"")


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(braidhomotopy.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "braidhomotopy", *argv],
                          capture_output=True, env=env, timeout=10)


def test_h1_at_a_bound_no_stream_could_reach(tmp_path):
    # The strand-1 basis has four letters, so at bound 40 the LH family has
    # more than 7^39 conjugators per strand pair.  Streaming it would never
    # return; the timeout turns that into a failure.
    flags = ["--family", "homotopy", "-n", "3", "-g", "1", "--closed"]
    code, text, _ = run_command(["pres", *flags, "--lh-bound", "1", "--format", "json"])
    doc = json.loads(text)
    assert code == 0 and doc["families"]
    doc["lh_bound"] = 40
    for fam in doc["families"]:
        fam["bound"] = 40
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc))
    for proc in (_cli("h1", "--input", str(path)), _cli("h1", *flags, "--lh-bound", "40")):
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"Z^2 + Z/2\n", b"")
