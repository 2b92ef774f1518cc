"""Canonical output checker and its self-test.

A result is the ``(exit code, stdout, stderr)`` triple that
``braidhomotopy.cli.run_command`` returns.  The checker compares it with the
job's ``Expect``; it never calls into the program under test.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import replace

from workloads import Expect, Job, h1_job, purity_job, tc_job

_HEADER = re.compile(r"# purity \S+ n=\d+ g=\d+: (PASS|FAIL) \((\d+) checks, (\d+) failures\)$")


def expand(line: str) -> tuple:
    """Token line -> tuple of (generator, +1/-1) letters, powers expanded."""
    out = []
    for token in line.split():
        gen, _, exp = token.partition("^")
        e = int(exp) if exp else 1
        out.extend([(gen, 1 if e > 0 else -1)] * abs(e))
    return tuple(out)


def _purity_ok(text: str, failures: int) -> bool:
    lines = text.splitlines()
    m = _HEADER.match(lines[0]) if lines else None
    if m is None:
        return False
    verdict, checks, fails = m.group(1), int(m.group(2)), int(m.group(3))
    records = lines[1:]
    bad = [r for r in records if not r.startswith("ok   ")]
    return (verdict == ("FAIL" if failures else "PASS") and fails == failures
            and checks == len(records) and checks > failures
            and len(bad) == failures
            and all(r.startswith("FAIL FAULT [permutation]") for r in bad))


def matches(expect: Expect, result) -> bool:
    """True iff ``result`` is what ``expect`` describes; None (a raise) never is."""
    if result is None:
        return False
    code, out, err = result
    if code != expect.code:
        return False
    if expect.kind == "empty":
        return out == b"" and b"overflow" in err
    if err:
        return False
    if expect.kind == "text":
        return out == expect.value.encode()
    if expect.kind == "sha256":
        return hashlib.sha256(out).hexdigest() == expect.value
    if expect.kind == "words":
        lines = out.decode().splitlines()
        return [expand(x) for x in lines] == [tuple(v) for v in expect.value]
    if expect.kind == "purity":
        return _purity_ok(out.decode(), expect.value)
    raise ValueError(f"unknown expectation kind {expect.kind!r}")


def count_failures(jobs, results, replayed=()) -> int:
    """Jobs whose CLI result, or traced replay if any, misses the known answer.

    This is the count reported as ``failed``.
    """
    replayed = replayed or [True] * len(jobs)
    return sum(not (matches(job.expect, res) and ok)
               for job, res, ok in zip(jobs, results, replayed))


def self_test(run_command) -> list[str]:
    """Prove the checker is not vacuous; returns a list of problems (empty = ok).

    Tiny jobs go through ``count_failures``, the path the timed jobs use,
    once with their true expectation and once with a deliberately wrong
    one: exactly the wrong ones must be counted.  The fault-injection job
    passes only with exit 1, the overflow job only with exit 3, and the
    word comparison only after exponent expansion.
    """
    problems = []
    h1 = h1_job(family="goldsmith", n=3, bound=1)
    fault = purity_job(fault=True, family="goldsmith", n=3, bound=1)
    clean = purity_job(family="goldsmith", n=3, bound=1)
    overflow = tc_job(family="surface", n=2, g=1, max_cosets=500)
    closing = tc_job(family="symmetric", n=4, index=24)
    words = Job({}, ("reduce", "s1 s1 s2 s2^-1 s3^-1", "-n", "4"),
                Expect(0, "words", ((("s1", 1), ("s1", 1), ("s3", -1)),)))
    right = [h1, fault, clean, overflow, closing, words]
    wrong = [
        replace(h1, expect=Expect(0, "text", "Z/2\n")),
        replace(fault, expect=clean.expect),
        replace(fault, expect=Expect(0, "purity", 1)),
        replace(clean, expect=fault.expect),
        replace(overflow, expect=Expect(0, "empty")),
        replace(closing, expect=Expect(3, "empty")),
        replace(closing, expect=Expect(0, "text", "12\n")),
        replace(words, expect=Expect(0, "words", ((("s1", 1), ("s3", -1)),))),
    ]
    jobs = right + wrong + [h1]
    results = [run_command(list(job.argv)) for job in right + wrong] + [None]  # None: raised
    want = [True] * len(right) + [False] * (len(wrong) + 1)
    failed = count_failures(jobs, results)
    if failed != want.count(False):
        problems.append(f"{failed} failures counted, {want.count(False)} planted")
    for job, res, ok in zip(jobs, results, want):
        if matches(job.expect, res) != ok:
            problems.append(f"{' '.join(job.argv)}: {job.expect} misjudged")
    return problems
