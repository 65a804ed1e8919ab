#!/usr/bin/env python3
"""The rll benchmark: drives the ``rll`` CLI in-process through
``rll.cli.main`` and checks every verdict.

    python3 bench/run.py --workload member-random --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

One run is one workload in one fresh process with one thread. It times,
in fresh interpreters, the import of ``rll.cli`` up to a ready argument
parser (``setup_s``), 21 times spread over the run. Then
it runs a fixed number of whole rounds of operations: enough to take about
``--seconds`` on the reference host, and at least MIN_OPS operations. So a
run does the same work however fast the host or the program is. Every time
is normalised to the reference kernel's nominal speed (see ``clock.py``). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
Results, raw figures included, and spans go to ``bench/out/``.
``--workload all`` runs every workload, untraced and traced, each in its own
process, and prints a table with the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_OPS = 100        # so that ten samples lie beyond the 90th percentile
SETUP_REPEATS = 21

END_TO_END = [
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


SETUP_CODE = """import sys, time
sys.path.insert(0, {here!r})
import clock
k0 = clock.kernel_ms()
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import rll.cli
rll.cli.build_parser()
t1 = time.perf_counter()
print(t1 - t0, k0, clock.kernel_ms())
"""


def time_setup() -> tuple[float, float]:
    """Start a fresh interpreter that imports ``rll.cli`` and builds its
    argument parser. The child times that itself, with kernel samples just
    before and after; return the normalised and the raw time, in s."""
    import clock
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(here=HERE, src=SRC)],
        check=True, capture_output=True, text=True, timeout=60)
    t, k0, k1 = map(float, out.stdout.split())
    return t * clock.NOMINAL_MS / ((k0 + k1) / 2), t


def call(main, argv):
    """Run one CLI command; return its exit code and standard output. A
    crash yields the exception's name in place of an exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash fails the operation, not the run
            rc = type(exc).__name__
    return rc, out.getvalue()


class Context:
    """What a workload may use besides its seed."""

    def __init__(self, root, src):
        self.root = root
        self.src = src
        self.problems: list[str] = []


def run_workload(args) -> dict:
    import clock
    import reference

    problems = reference.selfcheck()
    if problems:
        raise SystemExit("reference evaluator fails its table: "
                         + "; ".join(problems))

    # Keep the kernel samples, the set-up children and the operations on one
    # CPU, so the samples measure the speed the operations ran at.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    timer = clock.Normaliser()
    import rll.cli
    if not os.path.abspath(rll.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"rll was imported from {rll.__file__}, not {SRC}")
    main = rll.cli.main

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(rll)

    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    ctx = Context(ROOT, SRC)
    rounds = workloads.WORKLOADS[args.workload](args.seed, work, ctx)
    # Rounds that take about --seconds on the reference host: the count
    # depends on nothing measured in this run.
    target = max(1, round(args.seconds / workloads.ROUND_S[args.workload]))

    times, segs = [], []          # per completed verdict: raw s, segment
    setups = []                   # (normalised, raw) set-up times, in s
    attempted = failed = done = garbage = 0
    wrong: list[str] = []
    start = time.perf_counter()
    try:
        while done < target or attempted < MIN_OPS:
            ops = next(rounds)
            gc.collect()
            for op in ops:
                # Spread the set-up repetitions over the run, so that they
                # meet the same spells of host speed as the operations.
                if len(setups) < SETUP_REPEATS and (
                        time.perf_counter() - start
                        >= len(setups) * args.seconds / SETUP_REPEATS):
                    setups.append(time_setup())
                seg = timer.maybe_sample()
                t0 = time.perf_counter()
                if tracer is not None:
                    rc, out = tracer.run_op(attempted, call, main, op.argv)
                else:
                    rc, out = call(main, op.argv)
                dt = time.perf_counter() - t0
                # A command run as its own process never carries cyclic
                # garbage into the next one, nor walks a heap that earlier
                # commands filled: free the garbage after each operation,
                # untimed, count it, and move what survives out of the
                # collector's reach (it is still freed by reference count).
                garbage += gc.collect()
                gc.freeze()
                attempted += 1
                if rc not in (0, 1):
                    failed += 1
                    wrong.append(f"{op.what}: failed with {rc}")
                    segs.append(seg)
                    times.append(None)
                    continue
                problem = op.problem(rc, out)
                if problem:
                    wrong.append(problem)
                times.append(dt)
                segs.append(seg)
            done += 1
        while len(setups) < SETUP_REPEATS:
            setups.append(time_setup())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = time.perf_counter() - start
    timer.sample()

    factors = {i: timer.factor(s) for i, s in enumerate(segs)}
    norm_ms = [t * 1e3 * factors[i] for i, t in enumerate(times)
               if t is not None]
    raw_ms = [t * 1e3 for t in times if t is not None]

    def summary(ms, setup_s):
        out = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if len(ms) >= 2:    # else too few verdicts, and correct is false
            out["verdicts_per_s"] = len(ms) / (sum(ms) / 1e3)
            out["verdict_p50_ms"] = statistics.median(ms)
            out["verdict_p90_ms"] = statistics.quantiles(ms, n=10)[-1]
        return out

    if len(norm_ms) < 2:
        wrong.append(f"only {len(norm_ms)} verdicts completed")
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": done, "wall_s": wall,
        "cyclic_garbage": garbage,
        "attempted": attempted, "failed": failed,
        "correct": not wrong and not ctx.problems,
        "problems": (ctx.problems + wrong)[:20],
        "end_to_end": summary(norm_ms, statistics.median(
            norm for norm, _ in setups)),
        "raw": summary(raw_ms, statistics.median(raw for _, raw in setups)),
        "kernel_ms": {"nominal": clock.NOMINAL_MS,
                      "median": statistics.median(timer.samples),
                      "min": min(timer.samples), "max": max(timer.samples),
                      "samples": len(timer.samples)},
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(factors)
        result["per_layer"]["gc.cyclic_garbage"] = {"value": garbage,
                                                    "unit": "count"}
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}"
                               ".json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return result


def print_run(result):
    for line in result["problems"]:
        print("PROBLEM", line, file=sys.stderr)
    print(f"{result['workload']} seed {result['seed']}: "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"correct {result['correct']}, {result['rounds']} rounds, "
          f"wall {result['wall_s']:.1f} s, "
          f"kernel median {result['kernel_ms']['median']:.3f} ms "
          f"(nominal {result['kernel_ms']['nominal']})")
    for name, unit in END_TO_END:
        if name in result["end_to_end"]:
            print(f"  {name:<16} {result['end_to_end'][name]:12.4f} "
                  f"{unit:<4} raw {result['raw'][name]:12.4f}")
    if "per_layer" in result:
        for name, m in result["per_layer"].items():
            print(f"  {name:<32} {m['value']:14.3f} {m['unit']}")
        metrics = result["per_layer"]
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END
                   if name in result["end_to_end"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    ok = True
    rows = []
    for name in workloads.WORKLOADS:
        res = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True,
                timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                ok = False
                break
            with open(os.path.join(OUT, f"result-{name}-seed{args.seed}-"
                                   f"trace{trace}.json"),
                      encoding="utf-8") as fh:
                res[trace] = json.load(fh)
            ok = ok and res[trace]["correct"]
        rows.append((name, res))
    print("\nworkload        metric            untraced     traced  overhead")
    for name, res in rows:
        if len(res) < 2:
            continue
        for metric, unit in END_TO_END:
            a, b = (res[t]["end_to_end"].get(metric) for t in (0, 1))
            if a is None or b is None:
                continue
            print(f"{name:<15} {metric:<16} {a:10.4f} {b:10.4f} "
                  f"{(b - a) / a:+8.1%} {unit}")
    print(json.dumps({"correct": ok, "workloads": {
        name: {"attempted": res[0]["attempted"], "failed": res[0]["failed"]}
        for name, res in rows if res}}))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "rll", "cli.py")):
        print(f"error: no rll sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print_run(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
