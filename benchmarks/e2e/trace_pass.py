"""The ``--trace 1`` passes: spans, the profiled layer budget, direct calls.

Runs after the untraced reference passes, in the same process, and
never contributes to an end-to-end number.  Three steps:

1. one pass with :class:`tracing.SpanRecorder` around the public seams
   the workload calls through — its wall against the untraced passes is
   ``harness.tracing_overhead_pct``, its counter deltas are the work
   counts per op, and its spans go to ``out/trace-<workload>.json``;
2. ``profile_ops`` ops under ``cProfile`` (every thread), folded into
   ``<layer>.self_ms_per_op`` — the layer budget;
3. the direct-call timings of :mod:`layers`.

Timings of steps 2 and 3 are divided by the speed factor measured from
probe readings taken around each step.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable

import harness
import layers
import tracing
import workloads as wl


def _seams(workload: wl.Workload) -> list[tuple[Any, str, str]]:
    """``(object, attribute, span name)`` for each seam worth a span."""
    seams: list[tuple[Any, str, str]] = []
    if isinstance(workload, wl.ClusterWorkload):
        cluster = workload.cluster
        seams += [
            (cluster, "run_query", "core.cluster.run_query"),
            (cluster, "drain", "core.cluster.drain"),
            (cluster, "ingest_live", "core.cluster.ingest_live"),
            (cluster.catalog, "ingest", "storage.catalog.ingest"),
        ]
    if isinstance(workload, wl.HttpSim):
        seams += [
            (workload, "round_trip", "client.round_trip"),
            (workload.server, "handle", "serve.http.handle"),
            (workload.backend, "evaluate", "serve.backend.evaluate"),
        ]
    if isinstance(workload, wl.SocketRpc):
        seams.append((workload, "rpc", "client.rpc"))
    return seams


def _bracketed(
    fn: Callable[[], Any], probes: Any, mix: harness.ProbeMix, refs: harness.ProbeRefs
) -> tuple[Any, float]:
    """``fn()`` and the speed factor from probes read around it."""
    result: list[Any] = []
    timed = harness.timed_phases([lambda: result.append(fn())], probes.read)
    return result[0], timed.factor(mix, refs)


def run(
    workload: wl.Workload,
    one_pass: Callable[..., harness.PassRecord],
    summary: dict[str, float],
    passes: list[harness.PassRecord],
    mix: harness.ProbeMix,
    refs: harness.ProbeRefs,
    probes: Any,
    config: dict,
    out_dir: str,
    seed: int,
) -> dict[str, float]:
    metrics: dict[str, float] = {}
    ops_per_pass = len(passes[0].latencies)

    # -- 1. traced pass ----------------------------------------------------
    recorder = tracing.SpanRecorder()
    seams = _seams(workload)
    for obj, attribute, name in seams:
        recorder.wrap(obj, attribute, name)
    cluster = getattr(workload, "cluster", None)
    counters_before = cluster.counters_total() if cluster else {}
    bytes_before = cluster.network.bytes_sent if cluster else 0
    try:
        traced = one_pass(recorder.traced(workload.execute, "op", root=True))
    finally:
        for obj, attribute, _ in seams:
            delattr(obj, attribute)  # drop the shadow, the method returns
    if cluster:
        delta = layers.counter_deltas(counters_before, cluster.counters_total())
        metrics.update(layers.counter_metrics(delta, ops_per_pass))
        metrics["sim.bytes_sent_per_op"] = (
            cluster.network.bytes_sent - bytes_before
        ) / ops_per_pass
    untraced_wall = ops_per_pass / summary["throughput_ops_s"]
    traced_wall = traced.wall_s / traced.factor(mix, refs)
    metrics["harness.tracing_overhead_pct"] = 100.0 * (
        traced_wall / untraced_wall - 1.0
    )

    # -- 2. profiled ops -> layer budget -------------------------------------
    ops = workload.fresh_ops()[: config["profile_ops"]]
    profiler = tracing.ThreadedProfiler(thread_cpu=isinstance(workload, wl.HttpSim))

    def profiled() -> float:
        wall = 0.0
        with profiler:
            for op in ops:
                workload.before_op(op)
                profiler.main.enable()
                started = time.perf_counter()
                workload.execute(op)
                wall += time.perf_counter() - started
                profiler.main.disable()
        return wall

    profiled_wall, factor = _bracketed(profiled, probes, mix, refs)
    totals, calls = profiler.folded()
    for layer, seconds in totals.items():
        metrics[f"{layer}.self_ms_per_op"] = 1e3 * seconds / factor / len(ops)
    metrics["harness.py_calls_per_op"] = calls / len(ops)
    metrics["harness.profile_coverage"] = sum(totals.values()) / profiled_wall

    # -- 3. direct calls -----------------------------------------------------
    direct, factor = _bracketed(
        lambda: layers.layer_metrics(workload), probes, mix, refs
    )
    for name, value in direct.items():
        timed = name.endswith(("_us", "_ms")) or "_us_" in name or "_ms_" in name
        metrics[name] = value / factor if timed else value
    if "sim.events_per_s" in metrics:
        metrics["sim.events_per_s"] *= factor

    if isinstance(workload, wl.ChurnIngest):
        writes = [
            latency / record.factor(mix, refs)
            for record in passes
            for latency, keep in zip(record.latencies, record.pooled)
            if not keep
        ]
        metrics["core.ingest_live_p50_ms"] = 1e3 * harness.percentile(writes, 50.0)
        metrics["core.ingest_live_p95_ms"] = 1e3 * harness.percentile(writes, 95.0)
    if isinstance(workload, wl.HttpSim):
        stats = workload.server.cache.stats()
        metrics["serve.response_cache_hit_ratio"] = stats["hits"] / max(
            1, stats["hits"] + stats["misses"]
        )

    os.makedirs(out_dir, exist_ok=True)
    self_ns = recorder.self_times_ns()
    with open(
        os.path.join(out_dir, f"trace-{workload.name}.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "ops": ops_per_pass,
                "speed_factor": traced.factor(mix, refs),
                "span_self_ms_per_op": {
                    name: total / 1e6 / ops_per_pass
                    for name, total in sorted(self_ns.items())
                },
                "layer_self_ms_per_op": {
                    layer: metrics[f"{layer}.self_ms_per_op"]
                    for layer in tracing.LAYERS
                },
                "profile": {"ops": len(ops), "wall_s": profiled_wall, "calls": calls},
                "spans": recorder.spans,
            },
            handle,
        )
    return metrics
