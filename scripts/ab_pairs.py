#!/usr/bin/env python3
"""Compare two git revisions on one benchmark workload, in alternating pairs.

    python3 scripts/ab_pairs.py BASE CHANGE --workload long-lasso \
        --seeds 9701-9710 [--seconds 15] [--repo .]

Each revision is exported with ``git archive`` into a fresh temporary
directory, so neither run sees the working tree, the other side's files or
stale bytecode. For each seed, ``bench/run.py --workload W --seed s --trace 0``
runs once in each tree, one after the other; the side that goes first
alternates from seed to seed, so a drift in the host's speed falls on both
sides alike. The metrics are the end-to-end ones that ``BENCHMARK.json``
declares, read from the last line a run prints.

For each metric the script prints both medians, the base's quartiles and
their distance (IQR), the median of the per-pair ratios change / base, and
"better k/N": in how many pairs the change beat the base in the metric's
direction. It also prints whether every verdict was correct and how many
operations failed on each side. It writes nothing under ``bench/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile


def quartiles(xs: list[float]) -> tuple[float, float]:
    """The first and third quartiles, by the inclusive method."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]
              ) -> list[dict]:
    """One row per metric over (base, change) pairs of metric values by
    name; a metric is ``{"name", "better"}`` with better "higher" or
    "lower". A metric missing from any run is left out."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        if not pairs or any(name not in b or name not in c for b, c in pairs):
            continue
        base = [b[name] for b, _c in pairs]
        change = [c[name] for _b, c in pairs]
        higher = metric["better"] == "higher"
        q1, q3 = quartiles(base)
        rows.append({
            "name": name,
            "base": statistics.median(base),
            "change": statistics.median(change),
            "base_q1": q1,
            "base_q3": q3,
            "ratio": statistics.median(
                c / b if b else float("inf") for b, c in zip(base, change)),
            "better": sum((c > b) if higher else (c < b)
                          for b, c in zip(base, change)),
            "pairs": len(pairs),
        })
    return rows


def format_summary(rows: list[dict]) -> str:
    lines = [f"{'metric':<16} {'base':>10} {'change':>10} {'base IQR':>19} "
             f"{'ratio':>7} {'better':>7}"]
    for r in rows:
        iqr = f"{r['base_q1']:.3f}-{r['base_q3']:.3f}"
        lines.append(f"{r['name']:<16} {r['base']:>10.3f} {r['change']:>10.3f} "
                     f"{iqr:>19} {r['ratio']:>7.3f} "
                     f"{r['better']:>3}/{r['pairs']:<3}")
    return "\n".join(lines)


def export(repo: str, rev: str, where: str) -> str:
    """Extract the tree of rev into a fresh directory under where."""
    tar = subprocess.run(["git", "-C", repo, "archive", rev],
                         capture_output=True, check=True).stdout
    out = tempfile.mkdtemp(prefix="ab-", dir=where)
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        if hasattr(tarfile, "data_filter"):  # 3.10.12, 3.11.4 and later
            t.extractall(out, filter="data")
        else:
            t.extractall(out)
    return out


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run's last line: correct, attempted, failed, metrics."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"run failed in {tree} (seed {seed}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_list(text: str) -> list[int]:
    """"9701-9710" or "1,5,9"."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True,
                    help="a range such as 9701-9710, or a comma list")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--repo", default=".")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as where:
        trees = [export(args.repo, rev, where)
                 for rev in (args.base, args.change)]
        with open(os.path.join(trees[1], "BENCHMARK.json")) as f:
            metrics = json.load(f)["end_to_end"]
        pairs, results = [], ([], [])
        for k, seed in enumerate(args.seeds):
            got = [None, None]
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                got[side] = run_once(trees[side], args.workload, seed,
                                     args.seconds)
                results[side].append(got[side])
            pairs.append(tuple({m: v["value"] for m, v in r["metrics"].items()}
                               for r in got))
            print(f"seed {seed}: " + ", ".join(
                f"{name} {p.get('verdicts_per_s', float('nan')):.2f}"
                for name, p in zip(("base", "change"), pairs[-1])),
                file=sys.stderr)
    print(f"{args.workload}: {args.base} -> {args.change}, "
          f"{len(pairs)} pairs, {args.seconds:g} s runs")
    for name, rs in zip(("base", "change"), results):
        print(f"{name}: correct {all(r['correct'] for r in rs)}, failed "
              f"{sum(r['failed'] for r in rs)} of "
              f"{sum(r['attempted'] for r in rs)}")
    print(format_summary(summarize(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
