"""Job grids for the three workloads, with answers known from outside the program.

Nothing here imports braidhomotopy: every expected answer comes from the
paper (abelianizations, subgroup indices), from group theory (relators of
a presentation are pure, infinite groups overflow any coset cap), or from
how the input was built (a word times a scrambled copy of its inverse is
trivial).  The only recorded answer is the SHA-256 of the ``pres`` report,
taken at commit 0636ffe, because the CLI output must stay byte-identical.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass, field

# sha256 of `pres --family homotopy -n 5 -g 2 --closed --lh-bound 3 --format text`
# at commit 0636ffe (2,423,213 bytes).
PRES_SHA256 = {
    ("homotopy", 5, 2, True, 3):
        "ca72cd6cb7e97cd2e7695076c1643b8fad48b6104a519b1c8e5a6726eb3d2293",
}


@dataclass(frozen=True)
class Expect:
    """What a correct run returns: an exit code plus a check on stdout.

    ``kind`` is one of "text" (exact bytes), "sha256" (hex digest),
    "words" (lines compared after exponent expansion), "purity" (a purity
    report with ``value`` failing records, all labelled FAULT) or "empty"
    (no stdout; used for the resource-limit exit).
    """

    code: int
    kind: str
    value: object = None


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``spec`` drives the traced replica, ``argv`` the CLI."""

    spec: dict
    argv: tuple[str, ...]
    expect: Expect
    inputs: tuple[tuple[str, str], ...] = field(default=())  # (path, text) written before the pass


def _fam(spec):
    """The CLI family flags for a job spec."""
    argv = ["--family", spec["family"], "-n", str(spec["n"])]
    if spec.get("g") is not None:
        argv += ["-g", str(spec["g"])]
    if spec.get("closed") is not None:
        argv.append("--closed" if spec["closed"] else "--punctured")
    if spec.get("bound") is not None:
        argv += ["--lh-bound", str(spec["bound"])]
    return argv


def _h1_answer(family, n, g):
    """Abelianizations stated in the paper."""
    if family == "homotopy":
        return f"Z^{2 * g} + Z/2"
    if family == "pure":
        return f"Z^{2 * g * n}"
    if family == "goldsmith":
        return "Z"
    raise ValueError(family)


def purity_job(fault=False, **spec):
    spec = dict(op="purity", fault=fault, **spec)
    argv = ["verify", "purity", *_fam(spec)] + (["--inject-fault"] if fault else [])
    return Job(spec, tuple(argv), Expect(1 if fault else 0, "purity", 1 if fault else 0))


def h1_job(**spec):
    answer = _h1_answer(spec["family"], spec["n"], spec.get("g"))
    spec = dict(op="h1", answer=answer, **spec)
    argv = ["h1", *_fam(spec), "--expect", answer]
    return Job(spec, tuple(argv), Expect(0, "text", answer + "\n"))


def pres_job(**spec):
    key = (spec["family"], spec["n"], spec.get("g"), spec.get("closed"), spec.get("bound"))
    spec = dict(op="pres", **spec)
    argv = ["pres", *_fam(spec), "--format", "text"]
    return Job(spec, tuple(argv), Expect(0, "sha256", PRES_SHA256[key]))


def tc_job(index=None, subgroup=None, words=(), max_cosets=None, **spec):
    """``index`` None means the group is infinite and the run must overflow."""
    spec = dict(op="tc", subgroup=subgroup, words=tuple(words),
                max_cosets=max_cosets or 100_000, **spec)
    argv = ["tc", *_fam(spec)]
    if subgroup:
        argv += ["--subgroup", subgroup]
    for w in words:
        argv += ["--subgroup-word", w]
    if max_cosets:
        argv += ["--max-cosets", str(max_cosets)]
    expect = Expect(3, "empty") if index is None else Expect(0, "text", f"{index}\n")
    return Job(spec, tuple(argv), expect)


# ---------------------------------------------------------------------------
# lh_verify: fixed grid, the seed only sets the order


def lh_verify_jobs(seed, rnd, out_dir):
    jobs = []
    for n, g in [(4, 2), (5, 1), (5, 2), (6, 1)]:
        for closed in (True, False):
            fam = dict(family="homotopy", n=n, g=g, closed=closed, bound=3)
            jobs += [purity_job(**fam), h1_job(**fam)]
    jobs += [h1_job(family="goldsmith", n=n, bound=3) for n in (5, 6)]
    jobs += [h1_job(family="pure", n=3, g=2, closed=c, bound=3) for c in (True, False)]
    jobs.append(purity_job(family="quotient", n=3, g=2, bound=3))
    jobs.append(pres_job(family="homotopy", n=5, g=2, closed=True, bound=3))
    jobs += [purity_job(fault=True, family="homotopy", n=3, g=1, closed=True, bound=1),
             purity_job(fault=True, family="goldsmith", n=4, bound=1),
             purity_job(fault=True, family="quotient", n=3, g=1, bound=1)]
    return jobs


# ---------------------------------------------------------------------------
# coset_enum: fixed grid, the seed only sets the order


def coset_enum_jobs(seed, rnd, out_dir):
    jobs = [tc_job(family="symmetric", n=n, index=math.factorial(n)) for n in (6, 7)]
    # <d1, d3, d5, d7> is (Z/2)^4 and <d1 d2> is cyclic of order 3
    jobs.append(tc_job(family="symmetric", n=8, words=("d1", "d3", "d5", "d7"),
                       index=math.factorial(8) // 16))
    jobs.append(tc_job(family="symmetric", n=7, words=("d1 d2",),
                       index=math.factorial(7) // 3))
    # the pure subgroup is the kernel of the (surjective) strand permutation
    for n in (3, 4, 5):
        for g in (1, 2):
            jobs.append(tc_job(family="surface", n=n, g=g, subgroup="pure",
                               index=math.factorial(n)))
            for bound in (1, 2):
                if n == 5 and bound == 2:
                    continue  # closes mathematically but overflows the default cap
                jobs.append(tc_job(family="homotopy", n=n, g=g, closed=True, bound=bound,
                                   subgroup="pure", index=math.factorial(n)))
                jobs.append(tc_job(family="quotient", n=n, g=g, bound=bound,
                                   subgroup="pure", index=math.factorial(n)))
    # infinite groups (their abelianizations are infinite): any cap overflows
    jobs += [tc_job(family="surface", n=2, g=1, max_cosets=20_000),
             tc_job(family="surface", n=3, g=2, max_cosets=20_000),
             tc_job(family="homotopy", n=2, g=1, closed=True, bound=1, max_cosets=20_000),
             tc_job(family="goldsmith", n=3, bound=1, max_cosets=20_000)]
    return jobs


# ---------------------------------------------------------------------------
# word_oracles: inputs drawn from the seed, fresh for every pass
#
# Letters are (index, sign) pairs; rendering merges runs into powers so the
# CLI parser expands exponents, as it must for real input.


def _render(letters, prefix):
    """Token text for (index, sign) letters, e.g. ``s1^2 s3^-1``."""
    parts = []
    for (i, e), run in itertools.groupby(letters):
        exp = e * len(list(run))
        parts.append(f"{prefix}{i}" if exp == 1 else f"{prefix}{i}^{exp}")
    return " ".join(parts)


def inverse(letters):
    return [(i, -e) for i, e in reversed(letters)]


def _random_reduced(rnd, alphabet, length):
    out = []
    while len(out) < length:
        let = (rnd.choice(alphabet), rnd.choice((1, -1)))
        if out and out[-1] == (let[0], -let[1]):
            continue
        out.append(let)
    return out


def scramble(rnd, word, n, moves):
    """An equal braid word: far commutations, braid relations, free pairs."""
    w = list(word)
    done = tries = 0
    while done < moves and tries < 50 * moves:
        tries += 1
        p = rnd.randrange(len(w) + 1)
        roll = rnd.random()
        if roll < 0.2:
            k, e = rnd.randint(1, n - 1), rnd.choice((1, -1))
            w[p:p] = [(k, e), (k, -e)]
            done += 1
        elif roll < 0.6:
            if p + 1 < len(w) and abs(w[p][0] - w[p + 1][0]) >= 2:
                w[p], w[p + 1] = w[p + 1], w[p]
                done += 1
        elif p + 2 < len(w):
            a, b, c = w[p:p + 3]
            if a == c and a[1] == b[1] and abs(a[0] - b[0]) == 1:
                w[p:p + 3] = [b, a, b]
                done += 1
    return w


BLOCK = 20  # letters per scrambled block; short blocks keep per-job cost predictable


def trivial_braid(rnd, n, blocks):
    """A product of blocks u u'^-1, u' a scramble of u: the trivial braid."""
    out = []
    for _ in range(blocks):
        u = _random_reduced(rnd, range(1, n), BLOCK)
        out += u + inverse(scramble(rnd, u, n, BLOCK))
    return out


def positive_word(rnd, n, length):
    return [(rnd.randint(1, n - 1), 1) for _ in range(length)]


def dehornoy_job(rnd, n, blocks, verdict, words=3):
    """``words`` braids with one verdict, decided in one invocation."""
    texts = []
    for _ in range(words):
        w = trivial_braid(rnd, n, blocks)
        if verdict != "trivial":
            w += positive_word(rnd, n, 6)
        if verdict == "negative":
            w = inverse(w)
        texts.append(_render(w, "s"))
    spec = dict(op="dehornoy", n=n, words=tuple(texts))
    return Job(spec, ("reduce", "--oracle", "dehornoy", *texts, "-n", str(n)),
               Expect(0, "text", (verdict + "\n") * words))


def compare_job(rnd, n, blocks):
    """u against u' p, where u' is u followed by trivial blocks and p is positive.

    u^-1 u' p equals p, so u < u' p in the left order.
    """
    u = _random_reduced(rnd, range(1, n), 4 * BLOCK)
    v = u + trivial_braid(rnd, n, blocks) + positive_word(rnd, n, 6)
    texts = (_render(u, "s"), _render(v, "s"))
    spec = dict(op="compare", n=n, words=texts)
    return Job(spec, ("reduce", "--oracle", "dehornoy", "--compare", *texts, "-n", str(n)),
               Expect(0, "text", "<\n"))


def magnus_job(rnd, rank, perms, factors, nontrivial):
    """c * prod h [x, x^g] h^-1 * c^-1 is trivial in the reduced free group.

    The conjugator c is ``perms`` shuffles of all ``rank`` letters, so every
    letter occurs and the expansion is dense.  Inserting one [x_a, x_b]
    gives a nontrivial element (its X_a X_b coefficient is 1).
    """
    c = []
    for _ in range(perms):
        order = list(range(1, rank + 1))
        rnd.shuffle(order)
        c += [(i, 1) for i in order]
    body = []
    for _ in range(factors):
        x = [(rnd.randint(1, rank), 1)]
        g = _random_reduced(rnd, range(1, rank + 1), 2)
        h = _random_reduced(rnd, range(1, rank + 1), 2)
        xg = g + x + inverse(g)
        body.append(h + x + xg + inverse(x) + inverse(xg) + inverse(h))
    if nontrivial:
        a, b = rnd.sample(range(1, rank + 1), 2)
        body.insert(rnd.randrange(len(body) + 1), [(a, 1), (b, 1), (a, -1), (b, -1)])
    w = c + [let for part in body for let in part] + inverse(c)
    text = _render(w, "x")
    spec = dict(op="magnus", words=(text,))
    return Job(spec, ("reduce", "--oracle", "magnus", text),
               Expect(0, "text", ("nontrivial" if nontrivial else "trivial") + "\n"))


def _free_token(gen, e):
    return gen if e == 1 else f"{gen}^{e}"


def free_batch_job(rnd, path, lines, n=5, g=2):
    """Lines ``u u^-1 v``; the free oracle must print v (exponents expanded)."""
    gens = [f"s{i}" for i in range(1, n)]
    gens += [f"a{i}.{r}" for i in range(1, n + 1) for r in range(1, 2 * g + 1)]
    gens += [f"t{i}.{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    text_lines, expected = [], []
    for _ in range(lines):
        u = [(rnd.choice(gens), rnd.choice((1, -1, 1, -1, 2, -2, 3))) for _ in range(400)]
        v = _random_reduced(rnd, gens, 200)
        tokens = [_free_token(gen, e) for gen, e in u + inverse(u) + v]
        text_lines.append(" ".join(tokens))
        expected.append(tuple(v))
    spec = dict(op="free", n=n, g=g, path=path)
    argv = ("reduce", "--oracle", "free", "--input", path, "-n", str(n), "-g", str(g))
    return Job(spec, argv, Expect(0, "words", tuple(expected)),
               inputs=((path, "\n".join(text_lines) + "\n"),))


def word_oracles_jobs(seed, rnd, out_dir):
    # n = 4 gets two jobs per verdict: the 23 jobs then put the median in
    # the middle of the n = 6 Dehornoy jobs, not on the edge between them
    # and the slower --compare jobs
    jobs = []
    for n in (4, 5, 6):
        for verdict in ("trivial", "negative", "positive") * (2 if n == 4 else 1):
            jobs.append(dehornoy_job(rnd, n, 12, verdict))
        jobs.append(compare_job(rnd, n, 24))
    for rank, perms in ((8, 3), (9, 2)):
        for nontrivial in (False, True):
            jobs.append(magnus_job(rnd, rank, perms, 4, nontrivial))
    for k in range(4):
        path = os.path.join(out_dir, f"free-{seed}-{k}.txt")
        jobs.append(free_batch_job(rnd, path, 300))
    return jobs


WORKLOADS = {
    "lh_verify": lh_verify_jobs,
    "word_oracles": word_oracles_jobs,
    "coset_enum": coset_enum_jobs,
}

# A small job per workload, run once untimed before the timed phase.
WARMUP = {
    "lh_verify": purity_job(family="homotopy", n=3, g=1, closed=True, bound=2),
    "word_oracles": Job(dict(op="dehornoy", n=3, words=("s1 s2 s1 s2^-1 s1^-1 s2^-1",)),
                        ("reduce", "--oracle", "dehornoy", "s1 s2 s1 s2^-1 s1^-1 s2^-1",
                         "-n", "3"), Expect(0, "text", "trivial\n")),
    "coset_enum": tc_job(family="symmetric", n=5, index=120),
}


def make_rng(seed, pass_no):
    return random.Random(f"{seed}/{pass_no}")
