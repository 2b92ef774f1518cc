"""Known-answer benchmark of the braidhomotopy command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one process and one thread drives
``braidhomotopy.cli.run_command`` in a closed loop: the next job starts only
after the previous one returns.  A run repeats whole passes over the
workload's job grid, each pass in an order drawn from the seed, until the
nearest pass boundary to ``--seconds``.  Every result is checked against an
answer known from outside the program, between passes and outside the timed
region.  Every time is rescaled to a nominal host speed by a reference loop
timed before and after it (see ``reference``).  With ``--trace 1`` each job also runs through the traced replay in
layers.py, and the run reports per-layer metrics instead of end-to-end ones.
The last line of stdout is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_LAUNCHES = 15
# Nominal time of reference(): about its median on a 2-core Intel Xeon host.
REF_S = 0.02


def reference() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed right now.

    The host is shared, and its speed drifts by up to 1.7x within minutes;
    the program's jobs (interpreter-bound, like this loop) drift with it.
    A time taken between two reference loops ``r0`` and ``r1`` is reported
    as ``dt * REF_S / mean(r0, r1)``: seconds at the nominal speed.  The
    loop never calls the program, so only the program's own cost moves the
    rescaled time.
    """
    gc.collect()
    t0 = time.perf_counter()
    acc, seen, pairs = 0, {}, []
    for i in range(60_000):
        acc += i * i % 7
    for i in range(20_000):
        pair = (i % 13, (i * 7) % 5 - 2)
        pairs.append(pair)
        seen[pair] = seen.get(pair, 0) + 1
    pairs.sort()
    return time.perf_counter() - t0


class Rescaler:
    """Rescales consecutive timed sections by the reference loops around them."""

    def __init__(self):
        self.last = reference()
        self.refs = [self.last]

    def scale(self) -> float:
        """Run the next reference loop; the factor for the section just timed."""
        now = reference()
        self.refs.append(now)
        factor = 2 * REF_S / (self.last + now)
        self.last = now
        return factor


def measure_setup() -> float:
    """Median rescaled time of a fresh ``python -m braidhomotopy`` on a trivial command.

    One untimed launch first, so compiling the bytecode cache is not counted.
    """
    cmd = [sys.executable, "-m", "braidhomotopy", "reduce", "s1", "-n", "2"]
    env = dict(os.environ, PYTHONPATH=SRC)

    def launch() -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout != b"s1\n":
            raise RuntimeError(f"setup launch failed: {proc.returncode} {proc.stderr!r}")
        return dt

    launch()
    rescaler = Rescaler()
    return statistics.median(launch() * rescaler.scale() for _ in range(SETUP_LAUNCHES))


def run_job(run_command, job):
    try:
        return run_command(list(job.argv))
    except Exception:  # a raise is a failed job, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        return None


def replay(layers, job, tracer) -> bool:
    try:
        return layers.replay(job, tracer)
    except Exception:  # counted as a failed job, like a raise in the CLI
        traceback.print_exc(file=sys.stderr)
        return False


def write_inputs(jobs):
    for job in jobs:
        for path, text in job.inputs:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["lh_verify", "word_oracles",
                                                          "coset_enum"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "braidhomotopy", "__init__.py")):
        print(f"no program to measure: {SRC}/braidhomotopy is missing", file=sys.stderr)
        return 2
    setup_s = measure_setup()
    sys.path.insert(0, SRC)
    import braidhomotopy
    from braidhomotopy.cli import run_command

    if not os.path.abspath(braidhomotopy.__file__).startswith(SRC + os.sep):
        print(f"imported braidhomotopy from {braidhomotopy.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import check
    import workloads
    problems = check.self_test(run_command)
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)

    os.makedirs(OUT, exist_ok=True)
    make_jobs = workloads.WORKLOADS[args.workload]
    warmup = workloads.WARMUP[args.workload]
    warm_ok = check.matches(warmup.expect, run_job(run_command, warmup))

    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        overhead_s = 0.0

    times, raw, refs, wall, attempted, failed, passes = [], [], [], 0.0, 0, 0, 0
    start = time.perf_counter()
    while True:
        rnd = workloads.make_rng(args.seed, passes)
        jobs = make_jobs(args.seed, rnd, OUT)
        rnd.shuffle(jobs)
        write_inputs(jobs)
        rescaler = Rescaler()
        results, replayed = [], []
        for job in jobs:
            gc.collect()  # each job starts from the clean heap a fresh CLI process has
            t0 = time.perf_counter()
            res = run_job(run_command, job)
            dt = time.perf_counter() - t0
            raw.append(dt)
            dt *= rescaler.scale()
            times.append(dt)
            wall += dt
            results.append(res)
            if tracer is not None:
                tracer.job = len(times) - 1
                gc.collect()
                with tracer.span("job") as root:
                    replayed.append(replay(layers, job, tracer))
                tracer.scale[tracer.job] = rescaler.scale()
                overhead_s += (root["end"] - root["start"]) * tracer.scale[tracer.job] - dt
                tracer.count("cli.out_bytes", len(res[1]) if res else 0)
        refs += rescaler.refs
        failed += check.count_failures(jobs, results, replayed)
        attempted += len(jobs)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes / 2 >= args.seconds:
            break

    e2e = {
        "setup_s": (setup_s, "s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.p90": (statistics.quantiles(times, n=10)[-1], "s"),
        "jobs_per_s": (attempted / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"samples": len(times), "passes": passes, "failed_frac": failed / attempted,
            "job_s.p50 unscaled": statistics.median(raw),
            "host_speed (REF_S/reference)": REF_S / statistics.median(refs),
            "self_test": "ok" if not problems and warm_ok else "FAILED"}
    if tracer is None:
        metrics = e2e
    else:
        selfs = tracer.self_times()
        metrics = {name + "_s": (selfs.get(name, 0.0) / attempted, layers.UNITS[name + "_s"])
                   for name in layers.SPANS}
        metrics.update({name: (value / attempted, layers.UNITS[name])
                        for name, value in tracer.counts.items()})
        metrics["presentations.max_len"] = (tracer.max_len, "letters")
        layer_s = sum(selfs.get(name, 0.0) for name in layers.SPANS)
        metrics["cli.self_s"] = ((wall - layer_s) / attempted, "s/job")
        metrics["trace.overhead_s"] = (overhead_s / attempted, "s/job")
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "scale": tracer.scale, "spans": tracer.spans}, fh)
        info["spans"] = os.path.relpath(path, ROOT)

    label = "traced run" if tracer is not None else "untraced run"
    for name, (value, unit) in e2e.items():
        print(f"end-to-end ({label})  {name:28s} {value:12.6g} {unit}")
    if tracer is not None:
        for name, (value, unit) in metrics.items():
            print(f"per-layer                   {name:28s} {value:12.6g} {unit}")
    for name, value in info.items():
        print(f"info                        {name:28s} {value}")

    correct = failed == 0 and not problems and warm_ok
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
