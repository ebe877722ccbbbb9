#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

    pairs.py --parent DIR --change DIR --workload W [--workload W2 ...] --pairs N [--seed S]

For each workload in turn, runs ``benchmarks/e2e/run.py --workload W
--seed S --trace 0`` from each checkout, alternating which side goes
first (pair 1: parent, change; pair 2: change, parent; ...), and reads
the last JSON line of every run.  For each end-to-end metric
``BENCHMARK.json`` declares it prints both sides' medians, the median of
the paired relative changes (positive = better, by the metric's
``better`` direction), the pairs the change won (ties count for neither
side), the parent's inter-quartile range relative to its median beside
the metric's ``bound``, and a verdict:

- ``unresolved`` when the parent's IQR exceeds the bound;
- ``claimable gain`` when the change wins at least nine tenths of the
  pairs and its median is better than the parent's by more than the
  parent's IQR;
- ``claimable loss`` when the parent wins at least nine tenths of the
  pairs and its median is better by more than its IQR;
- ``within noise`` otherwise.

Beside the verdict it prints whether the metric is ``inside bound``:
the median paired change, either way, is smaller than the metric's
``bound``.  The verdict says whether a difference is real, not whether
it matters: with a parent IQR of 0 % (a metric that barely moves, such
as peak RSS) a +0.8 % difference won on every pair is a "claimable
loss", yet the benchmark's pipeline gates a change on the bound, so that
loss passes.  Read the flag for the gate and the verdict for a claim.

Every run must report ``correct`` and 0 failed ops; otherwise the
script stops with exit 1.  It reads the parent's ``BENCHMARK.json`` and
runs each checkout's own ``benchmarks/e2e/run.py``; it writes neither.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

RUNNER = pathlib.Path("benchmarks") / "e2e" / "run.py"


def run_once(tree: pathlib.Path, workload: str, seed: int) -> dict:
    """One untraced run from ``tree``; its last JSON line."""
    done = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=tree,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode != 0 or not lines:
        sys.exit(f"error: run in {tree} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        sys.exit(f"error: run in {tree} was not correct: {json.dumps(result)[:500]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(
    sign: float, parent: list[float], change: list[float], bound: float
) -> str:
    """The rule of the module docstring for one metric's paired runs."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    if p_med and (q3 - q1) / p_med > bound:
        return "unresolved"
    needed = 0.9 * len(parent)
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    if wins >= needed and sign * (c_med - p_med) > q3 - q1:
        return "claimable gain"
    if losses >= needed and sign * (p_med - c_med) > q3 - q1:
        return "claimable loss"
    return "within noise"


def report(metrics: list[dict], parent: list[dict], change: list[dict]) -> str:
    rows = [
        "| metric | parent median | change median | paired change | wins "
        "| parent IQR | bound | inside bound | verdict |",
        "|---|---:|---:|---:|---:|---:|---:|---|---|",
    ]
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        paired = [sign * (b - a) / a for a, b in zip(p, c) if a]
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        p_med, c_med = statistics.median(p), statistics.median(c)
        q1, q3 = quartiles(p)
        iqr = (q3 - q1) / p_med if p_med else 0.0
        moved = statistics.median(paired)
        inside = "yes" if abs(moved) < metric["bound"] else "no"
        rows.append(
            f"| `{name}` ({metric['unit']}) | {p_med:.4g} | {c_med:.4g} "
            f"| {100 * moved:+.1f} % | {wins}/{len(p)} "
            f"| {100 * iqr:.1f} % | {100 * metric['bound']:.0f} % | {inside} "
            f"| {verdict(sign, p, c, metric['bound'])} |"
        )
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=pathlib.Path, required=True)
    parser.add_argument("--change", type=pathlib.Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    declared = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = declared["end_to_end"]

    for workload in args.workload:
        parent: list[dict] = []
        change: list[dict] = []
        for index in range(args.pairs):
            order = [("parent", args.parent), ("change", args.change)]
            if index % 2:
                order.reverse()
            for side, tree in order:
                values = run_once(tree, workload, args.seed)
                (parent if side == "parent" else change).append(values)
                print(
                    f"{workload} pair {index + 1} {side}: "
                    + ", ".join(f"{m['name']} {values[m['name']]:.4g}" for m in metrics),
                    file=sys.stderr,
                    flush=True,
                )
        print(f"{workload}, seed {args.seed}, {args.pairs} pairs")
        print(report(metrics, parent, change), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
