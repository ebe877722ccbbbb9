#!/usr/bin/env python3
"""End-to-end wall-clock benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py --workload explore_warm --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics (throughput, latency
percentiles, peak RSS, set-up time), ``--trace 1`` the per-layer ones
(layer budget from a profiled pass, direct-call timings, counters,
harness diagnostics) and writes ``out/trace-<workload>.json``.  Without
``--workload`` every workload runs, each in its own interpreter so
``peak_rss_mb`` means the same thing as in a single-workload run.

The last line of standard output is one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is non-zero when any op failed, any sampled answer failed
verification, or a workload could not shut down cleanly.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import warnings
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT = os.path.join(HERE, "out")

def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="wall budget of the timed passes (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny dataset, one pass: exercises every code path in seconds",
    )
    return parser.parse_args(argv)


def load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def socket_fds() -> int | None:
    """Open socket descriptors of this process (None where /proc is absent)."""
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:
        return None
    count = 0
    for name in names:
        try:
            if os.readlink(f"/proc/self/fd/{name}").startswith("socket:"):
                count += 1
        except OSError:
            pass  # closed between listdir and readlink
    return count


class LeakCheck:
    """Threads and sockets before a workload is built vs after ``close()``."""

    def __init__(self) -> None:
        self.threads = set(threading.enumerate())
        self.sockets = socket_fds()

    def problems(self, grace_s: float = 3.0) -> list[str]:
        """Leftovers after ``grace_s`` for handler threads to unwind."""
        deadline = time.monotonic() + grace_s
        while True:
            extra = [
                t for t in threading.enumerate()
                if t not in self.threads and t.is_alive()
            ]
            sockets = socket_fds()
            leaked = (
                0 if sockets is None or self.sockets is None
                else max(0, sockets - self.sockets)
            )
            if (not extra and not leaked) or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        out = [f"thread {t.name!r} still alive (daemon={t.daemon})" for t in extra]
        if leaked:
            out.append(f"{leaked} socket(s) still open")
        return out


class Unraisable:
    """Collects errors raised where nobody can catch them (``__del__``).

    With ``ResourceWarning`` promoted to an error, an unclosed socket or
    file surfaces here instead of scrolling past on stderr.
    """

    def __init__(self) -> None:
        self.messages: list[str] = []

    def __call__(self, unraisable: Any) -> None:
        self.messages.append(
            f"{type(unraisable.exc_value).__name__}: {unraisable.exc_value}"
        )
        sys.__unraisablehook__(unraisable)


def run_workload(args: argparse.Namespace, config: dict, benchmark: dict) -> int:
    import harness
    import probes as probes_module
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    section = config["workloads"][args.workload]
    sizes = section["smoke" if args.smoke else "full"]
    mix = harness.ProbeMix(**section["mix"])
    setup_mix = harness.ProbeMix(**config["setup_mix"])
    refs = harness.ProbeRefs(
        py_s=config["refs"]["py_ms"] * 1e-3, np_s=config["refs"]["np_ms"] * 1e-3
    )
    if section.get("pin_one_cpu") and hasattr(os, "sched_setaffinity"):
        # A workload with several threads (client, acceptor, handlers)
        # pays for cross-CPU wake-ups whose cost swings with whatever
        # else runs on the other vCPU; on one CPU they are plain context
        # switches.  VARIANCE.md: http_sim p95 spread 36 % free, 7 % pinned.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    unraisable = Unraisable()
    sys.unraisablehook = unraisable
    probes = probes_module.Probes()
    for _ in range(3):
        probes.read()  # first calls pay numpy's lazy initialisation

    problems: list[str] = []
    leak = LeakCheck()
    repeats = 1 if (args.trace or args.smoke) else config["setup_repeats"]
    setups = []
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
            problems += leak.problems()
        workload = cls(sizes, args.seed)
        try:
            setups.append(harness.timed_phases(workload.phases(), probes.read))
        except BaseException:
            workload.close()
            raise
    assert workload is not None
    try:
        # Set-up garbage is collected once and the survivors frozen, so
        # the timed passes see the collector only for what they allocate.
        gc.collect()
        gc.freeze()
        seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
        if args.trace:
            seconds = min(seconds, config["trace_seconds"])

        def one_pass(execute: Any = None) -> Any:
            return harness.run_pass(
                workload.fresh_ops(),
                execute or workload.execute,
                workload.pooled,
                workload.before_op,
                workload.chunk_ops,
                probes.read,
            )

        passes = []
        deadline = time.perf_counter() + seconds
        while True:
            passes.append(one_pass())
            if args.smoke or time.perf_counter() >= deadline:
                break
        summary = harness.summarise(passes, mix, refs)
        summary["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        summary["setup_s"] = statistics.median(
            timed.normalised(setup_mix, refs) for timed in setups
        )
        summary["raw_setup_s"] = statistics.median(t.wall_s for t in setups)

        layer: dict[str, float] = {}
        if args.trace:
            import trace_pass

            layer = trace_pass.run(
                workload, one_pass, summary, passes, mix, refs, probes,
                config, OUT, args.seed,
            )
        checked, mismatched = workload.verify()
        if args.trace and isinstance(workload, workloads.ClusterWorkload):
            # Dropping every cached cell ends the warm state the checks
            # above rely on, so this one timing comes after them.
            import layers

            layer.update(layers.flush_metric(workload))
    finally:
        gc.unfreeze()
        workload.close()
    del workload
    gc.collect()
    problems += leak.problems()
    problems += unraisable.messages

    attempted = int(summary["total_ops"]) + checked
    failed = int(summary["failed_ops"]) + mismatched + len(problems)
    summary["error_rate"] = failed / attempted
    for problem in problems:
        print(f"lifecycle: {problem}", file=sys.stderr)

    # BENCHMARK.json is the list of names and units; a value this run
    # did not produce (a layer off this workload's path) reads 0.
    if args.trace:
        values = {**layer, **{f"harness.{k}": summary[k] for k in HARNESS_KEYS}}
        declared = benchmark["per_layer"]
    else:
        values = summary
        declared = benchmark["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    undeclared = sorted(set(values) - set(metrics)) if args.trace else []
    if undeclared:
        print(f"error: metrics not declared in BENCHMARK.json: {undeclared}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    with open(
        os.path.join(OUT, f"run-{args.workload}-trace{args.trace}.json"),
        "w", encoding="utf-8",
    ) as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "summary": summary,
                "metrics": metrics,
                "pass_walls_s": [p.wall_s for p in passes],
                "pass_factors": [p.factor(mix, refs) for p in passes],
                "pass_probe_py_ms": [
                    1e3 * statistics.median(p.probe_py) for p in passes
                ],
                "pass_probe_np_ms": [
                    1e3 * statistics.median(p.probe_np) for p in passes
                ],
            },
            handle, indent=1,
        )
    print_table(args, summary, metrics, checked, mismatched)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


#: ``summarise`` keys re-published as per-layer ``harness.*`` diagnostics.
HARNESS_KEYS = (
    "speed_factor",
    "probe_py_ms",
    "probe_np_ms",
    "probe_cv",
    "raw_throughput_ops_s",
    "raw_latency_p50_ms",
    "raw_latency_p95_ms",
    "cpu_ms_per_op",
    "latency_p99_ms",
    "pass_spread_pct",
    "error_rate",
)


def print_table(
    args: argparse.Namespace,
    summary: dict[str, float],
    metrics: dict[str, dict],
    checked: int,
    mismatched: int,
) -> None:
    print(
        f"== {args.workload} (seed {args.seed}, trace {args.trace}): "
        f"{int(summary['passes'])} passes x "
        f"{int(summary['total_ops'] / summary['passes'])} ops, "
        f"{int(summary['latency_samples'])} latency samples, "
        f"speed factor {summary['speed_factor']:.3f} "
        f"(probe_py {summary['probe_py_ms']:.2f} ms, "
        f"probe_np {summary['probe_np_ms']:.2f} ms)"
    )
    for name, entry in metrics.items():
        raw = summary.get(f"raw_{name}")
        beside = "" if raw is None else f"   (raw {raw:.4f})"
        print(f"  {name:<42} {entry['value']:>14.4f} {entry['unit']}{beside}")
    print(
        f"  verified {checked} sampled ops, {mismatched} mismatched; "
        f"{int(summary['failed_ops'])} of {int(summary['total_ops'])} timed ops failed"
    )


def run_all(args: argparse.Namespace, config: dict) -> int:
    """Every workload, each in its own interpreter, then one combined line."""
    combined: dict[str, Any] = {}
    attempted = failed = 0
    worst = 0
    for name in config["workloads"]:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(args.seed),
            "--trace", str(args.trace),
        ]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(
            command, capture_output=True, text=True,
            timeout=config["watchdog_s"] + 10,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        worst = max(worst, done.returncode)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(f"error: {name} printed no result", file=sys.stderr)
            worst = max(worst, 2)
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}/{metric}"] = entry
    print(json.dumps({
        "correct": failed == 0 and worst == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }))
    return worst


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing decides set/dict iteration order in the program;
        # pinning it makes call counts (harness.py_calls_per_op) repeat.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)
    config = load_json(os.path.join(HERE, "config.json"))
    benchmark = load_json(os.path.join(REPO, "BENCHMARK.json"))
    if args.workload == "all":
        return run_all(args, config)
    # Nothing may hang: past the watchdog the process dumps every
    # thread's stack and dies instead of waiting for the driver's kill.
    faulthandler.dump_traceback_later(config["watchdog_s"], exit=True)
    warnings.simplefilter("error", ResourceWarning)
    sys.path.insert(0, SRC)
    try:
        return run_workload(args, config, benchmark)
    finally:
        faulthandler.cancel_dump_traceback_later()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
