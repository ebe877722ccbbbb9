#!/usr/bin/env python3
"""Per-layer budget tables that sum to the untraced end-to-end op time.

    budget.py [--out DIR] [--update FILE] [WORKLOAD ...]

Reads ``DIR/run-<w>-trace0.json`` (the untraced run: ``throughput_ops_s``)
and ``DIR/run-<w>-trace1.json`` (the traced run: every
``<layer>.self_ms_per_op`` and ``harness.profile_coverage``) as written by
``benchmarks/e2e/run.py --seed 1 --trace 0`` and ``--trace 1``.  Each
layer's share of the traced self time is scaled onto the untraced ms/op
(1 000 / ``throughput_ops_s``), so the rows of a workload's table add up
to that figure exactly, to the printed microsecond.

Uniform scaling assumes the profiler inflates every layer alike, and
cProfile does not: it over-weights call-heavy Python and under-weights
small numpy calls.  So the un-profiled probe readings of both runs
(``pass_probe_py_ms`` / ``pass_probe_np_ms``, medians over passes) are
printed beside each table.

Without ``--update`` the tables go to standard output; with it they
replace the text between the ``<!-- budget:begin -->`` and
``<!-- budget:end -->`` lines of FILE.  Workloads without both files are
skipped with a note on standard error.
"""

import argparse
import json
import pathlib
import statistics
import sys

WORKLOADS = ("explore_warm", "scan_cold", "churn_ingest", "http_sim", "socket_rpc")
SUFFIX = ".self_ms_per_op"
BEGIN, END = "<!-- budget:begin -->", "<!-- budget:end -->"


def rounded_to_total(values: list[float], total: float, step: float) -> list[float]:
    """``values`` (summing to ``total``) rounded to multiples of ``step``
    so that they still sum to ``total`` rounded: largest remainder first."""
    units = [v / step for v in values]
    floors = [int(u) for u in units]
    missing = round(total / step) - sum(floors)
    by_remainder = sorted(range(len(units)), key=lambda i: floors[i] - units[i])
    for i in by_remainder[:missing]:
        floors[i] += 1
    return [f * step for f in floors]


def probes(run: dict) -> str:
    py = statistics.median(run["pass_probe_py_ms"])
    np_ = statistics.median(run["pass_probe_np_ms"])
    return f"py {py:.2f} ms, np {np_:.2f} ms"


def table(workload: str, untraced: dict, traced: dict) -> str:
    ms_per_op = 1e3 / untraced["summary"]["throughput_ops_s"]
    metrics = {name: m["value"] for name, m in traced["metrics"].items()}
    layers = {
        name[: -len(SUFFIX)]: value
        for name, value in metrics.items()
        if name.endswith(SUFFIX) and value > 0
    }
    traced_sum = sum(layers.values())
    order = sorted(layers, key=lambda layer: -layers[layer])
    scaled = [ms_per_op * layers[layer] / traced_sum for layer in order]
    printed = rounded_to_total(scaled, ms_per_op, 1e-3)
    lines = [
        f"**{workload}** — {ms_per_op:.3f} ms/op untraced "
        f"(traced self time {traced_sum:.3f} ms/op, "
        f"profile coverage {metrics.get('harness.profile_coverage', 0.0):.2f}; "
        f"probes untraced {probes(untraced)}, traced {probes(traced)})",
        "",
        "| layer | ms/op | share |",
        "|---|---:|---:|",
    ]
    for layer, value in zip(order, printed):
        lines.append(f"| `{layer}` | {value:.3f} | {100 * value / ms_per_op:.1f} % |")
    lines.append(f"| **total** | **{sum(printed):.3f}** | 100.0 % |")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--out", default="benchmarks/e2e/out", type=pathlib.Path)
    parser.add_argument("--update", type=pathlib.Path)
    args = parser.parse_args(argv)

    tables = []
    for workload in args.workloads:
        paths = [args.out / f"run-{workload}-trace{t}.json" for t in (0, 1)]
        if not all(path.exists() for path in paths):
            print(f"budget: skipping {workload}: needs {paths[0]} and {paths[1]}", file=sys.stderr)
            continue
        untraced, traced = (json.loads(path.read_text()) for path in paths)
        tables.append(table(workload, untraced, traced))
    text = "\n\n".join(tables)
    if args.update is None:
        print(text)
        return 0
    doc = args.update.read_text()
    head, begin, rest = doc.partition(BEGIN + "\n")
    _, end, tail = rest.partition(END)
    if not (begin and end):
        print(f"budget: {args.update} has no {BEGIN} ... {END} block", file=sys.stderr)
        return 2
    args.update.write_text(f"{head}{begin}{text}\n{end}{tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
