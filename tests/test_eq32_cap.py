"""The ``verify eq32`` record cap and the ``--expect`` component message.

``eq32`` writes one record per strand pair i < j and conjugator of
strand 1, whose basis is its 2g loops and n - 1 bands.  More records
than ``MAX_CONJUGATORS`` raise ResourceLimitError before any is built;
acceptance criterion 3's inputs stay under the cap (tests/test_acceptance.py).
"""

import math
import time

import pytest

from braidhomotopy import verify
from braidhomotopy.cli import run_command
from braidhomotopy.presentations import MAX_CONJUGATORS, _conjugator_count
from braidhomotopy.verify import identity_check, parse_invariants
from braidhomotopy.words import ResourceLimitError


def _records(n, g, bound):
    return math.comb(n, 2) * _conjugator_count(2 * g + n - 1, bound)


@pytest.mark.parametrize("n,g,bound", [(2, 0, 3), (2, 1, 1), (3, 0, 2), (3, 1, 1), (4, 2, 1)])
def test_the_record_count_is_the_report_length(n, g, bound):
    assert len(identity_check("eq32", n, g, bound).records) == _records(n, g, bound)


def test_the_cap_falls_between_eight_and_nine_strands(monkeypatch):
    assert _records(8, 1, 3) == 154_756 <= MAX_CONJUGATORS < _records(9, 1, 3) == 274_356
    monkeypatch.setattr(verify, "_check_eq32", lambda *args: "built")
    assert identity_check("eq32", 8, 1, 3) == "built"
    with pytest.raises(ResourceLimitError, match="more than 250000 records"):
        identity_check("eq32", 9, 1, 3)


@pytest.mark.parametrize("argv", [["-n", "20"], ["-n", "9"], ["-n", "3", "--lh-bound", "40"],
                                  ["-n", "200", "-g", "100", "--lh-bound", "1000"]])
def test_eq32_over_the_cap_exits_three_at_once(argv):
    t0 = time.perf_counter()
    code, out, err = run_command(["verify", "eq32", *argv])
    assert time.perf_counter() - t0 < 1
    assert code == 3 and out == b""
    assert err.startswith(b"resource limit: eq32 ") and err.count(b"\n") == 1


@pytest.mark.parametrize("text", ["Z^x", "Z/x", "Z^", "Z/", "Z + Z^2.5", "Z/2 + Z/y"])
def test_an_unparseable_component_is_named(text):
    part = next(p.strip() for p in text.split("+") if p.strip() not in ("Z", "Z/2"))
    with pytest.raises(ValueError) as info:
        parse_invariants(text)
    assert str(info.value) == f"unparseable invariant component {part!r}"


def test_expect_reports_the_component_not_int():
    code, out, err = run_command(["h1", "--family", "goldsmith", "-n", "3", "--lh-bound", "1",
                                  "--expect", "Z^x"])
    assert (code, out, err) == (2, b"", b"error: unparseable invariant component 'Z^x'\n")
