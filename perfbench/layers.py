"""Outside-in layer tracing for the benchmark's traced run.

Each job is replayed by calling the public function of every layer it
touches, from here, with a span around each call; ``src/`` is not
instrumented.  Three public calls redo another layer's work internally:
``verify.abelianized_matrix``, ``extension.todd_coxeter`` (and, in the CLI,
``verify.purity_report``) all materialize the relator families.  The
replay feeds the first two a pre-materialized presentation (the families
already expanded into finite relators, built outside any span), so their
spans hold only their own work.  ``purity_report`` is not called: the
replay times ``perms.word_permutation`` over the materialized relators,
and the report's record building and text rendering stay in ``cli.self_s``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from contextlib import contextmanager

from braidhomotopy import extension, handles, magnus, perms, verify, words
from braidhomotopy import presentations as pres

from check import expand

# Layer spans, reported as self seconds per job under "<name>_s".
SPANS = ("words.parse", "words.format", "presentations.build", "presentations.materialize",
         "perms.image", "verify.matrix", "verify.snf", "handles.reduce", "magnus.image",
         "extension.tc")
# Exact counts, reported per job; presentations.max_len is a maximum instead.
COUNTS = ("words.parse_letters", "presentations.relators", "presentations.letters",
          "verify.snf_rows", "handles.letters_in", "handles.letters_out", "magnus.monomials",
          "extension.cosets", "extension.overflows", "cli.out_bytes")
UNITS = {name + "_s": "s/job" for name in SPANS}
UNITS.update({name: "count/job" for name in COUNTS})
UNITS.update({"cli.out_bytes": "B/job", "presentations.max_len": "letters",
              "cli.self_s": "s/job", "trace.overhead_s": "s/job"})


class Tracer:
    """Spans and counts, kept in memory until the run writes them out."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.max_len = 0
        self.job = None
        self.scale: dict[int, float] = {}  # job id -> rescaling factor of its replay
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "job": self.job}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Rescaled span duration minus that of its children, summed by name."""
        out = {}
        for s in self.spans:
            dt = (s["end"] - s["start"]) * self.scale.get(s["job"], 1.0)
            out[s["name"]] = out.get(s["name"], 0.0) + dt
            if s["parent"] is not None:
                parent = self.spans[s["parent"]]["name"]
                out[parent] = out.get(parent, 0.0) - dt
        return out


def build(spec, tr):
    f, n, g, closed, bound = (spec["family"], spec["n"], spec.get("g"), spec.get("closed"),
                              spec.get("bound"))
    with tr.span("presentations.build"):
        if f == "surface":
            return pres.surface_braid_presentation(n, g)
        if f == "homotopy":
            return pres.homotopy_generalized_presentation(n, g, closed, bound)
        if f == "goldsmith":
            return pres.goldsmith_presentation(n, bound)
        if f == "pure":
            return pres.pure_homotopy_presentation(n, g, closed, bound)
        if f == "symmetric":
            return pres.symmetric_presentation(n)
        if f == "quotient":
            return pres.homotopy_quotient(pres.surface_braid_presentation(n, g), bound)
    raise ValueError(f"unknown family {f}")


def materialize(p, tr):
    with tr.span("presentations.materialize"):
        labeled = p.labeled_relators()
    lengths = [len(rel) for _, rel in labeled]
    tr.count("presentations.relators", len(labeled))
    tr.count("presentations.letters", sum(lengths))
    tr.max_len = max([tr.max_len, *lengths])
    return labeled


def flatten(p, labeled):
    """The same group with its families expanded into finite relators."""
    return dataclasses.replace(p, relators=tuple(r for _, r in labeled),
                               labels=tuple(lab for lab, _ in labeled), families=())


def parse(texts, tr, n=None, g=None):
    with tr.span("words.parse"):
        ws = [words.parse_word(t, n, g) for t in texts]
    tr.count("words.parse_letters", sum(len(w) for w in ws))
    return ws


def reduce_handles(w, tr):
    with tr.span("handles.reduce"):
        r = handles.handle_reduce(w)
    tr.count("handles.letters_in", len(w))
    tr.count("handles.letters_out", len(r))
    return r


def replay(job, tr) -> bool:
    """Run the job's layers one by one; True iff the answer is the known one."""
    spec, want = job.spec, job.expect.value
    op = spec["op"]
    if op == "purity":
        p = build(spec, tr)
        labeled = materialize(p, tr)
        if spec["fault"]:
            labeled.append(("FAULT", words.parse_word("s1", p.n, p.g)))
        with tr.span("perms.image"):
            images = [perms.word_permutation(rel, p.n) for _, rel in labeled]
        return sum(not q.is_identity() for q in images) == want
    if op == "h1":
        p = build(spec, tr)
        flat = flatten(p, materialize(p, tr))
        with tr.span("verify.matrix"):
            mat = verify.abelianized_matrix(flat)
        tr.count("verify.snf_rows", sum(1 for row in mat if any(row)))
        with tr.span("verify.snf"):
            inv = verify.smith_normal_form(mat, ncols=len(p.generators))
        return str(inv) == spec["answer"]
    if op == "pres":
        labeled = materialize(build(spec, tr), tr)
        with tr.span("words.format"):
            text = "".join(words.format_word(rel) + "\n" for _, rel in labeled)
        return hashlib.sha256(text.encode()).hexdigest() == want
    if op == "dehornoy":
        verdicts = [{0: "trivial", 1: "positive", -1: "negative"}[
            handles.main_sign(reduce_handles(w, tr))]
            for w in parse(spec["words"], tr, spec["n"])]
        return "".join(v + "\n" for v in verdicts) == want
    if op == "compare":
        u, v = parse(spec["words"], tr, spec["n"])
        return handles.main_sign(reduce_handles(words.concat(words.invert(u), v), tr)) == 1
    if op == "magnus":
        (w,) = parse(spec["words"], tr)
        with tr.span("magnus.image"):
            image = magnus.magnus_image(w)
        tr.count("magnus.monomials", len(image.coeffs))
        return image.is_one() == (want == "trivial\n")
    if op == "free":
        with open(spec["path"], encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        ws = parse(lines, tr, spec["n"], spec["g"])
        with tr.span("words.format"):
            outs = [words.format_word(w) for w in ws]
        return [expand(o) for o in outs] == [tuple(v) for v in want]
    if op == "tc":
        p = build(spec, tr)
        with tr.span("presentations.build"):
            subgroup = []
            if spec["subgroup"] == "pure":
                n, g = p.n, p.g
                subgroup += [pres.expand_a(i, r, n, g) for i in range(1, n + 1)
                             for r in range(1, 2 * g + 1)]
                subgroup += [pres.expand_t(i, j, n, g) for i in range(1, n)
                             for j in range(i + 1, n + 1)]
        subgroup += parse(spec["words"], tr, p.n, p.g)
        flat = flatten(p, materialize(p, tr))
        with tr.span("extension.tc"):
            table = extension.todd_coxeter(flat, subgroup, spec["max_cosets"])
        overflow = table.status == "overflow"
        tr.count("extension.cosets", table.coset_count)
        tr.count("extension.overflows", int(overflow))
        if job.expect.code == 3:
            return overflow
        return not overflow and f"{table.coset_count}\n" == want
    raise ValueError(f"unknown op {op!r}")
