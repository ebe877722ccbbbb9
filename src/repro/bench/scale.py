"""Scaling benchmark: nodes x concurrent users, STASH vs elastic.

``repro bench scale`` drives the session-scale workload generator
(:mod:`repro.workload.scale`) against simulated clusters of increasing
size under increasing closed-loop user populations, and reports the
two curves the north star asks for:

* **throughput** — completed queries per simulated second (completion
  count over the last-completion time, the paper's throughput basis);
* **latency SLOs** — exact per-class p50/p95/p99 over every query plus
  the flight recorder's histogram-bounded SLO verdicts against
  :data:`DEFAULT_SLO_TARGETS`.

Every (engine, nodes, users) combination replays the *same* seeded user
sessions, so the curves compare engines on identical gesture streams.
The report also times raw session synthesis at population scale (a
million users in the committed run) — the generator must never be the
bottleneck of a scale story.

Run via::

    python -m repro bench scale [--quick] [--output BENCH_scale.json]
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.bench.harness import BenchScale, bench_config, bench_dataset, make_system
from repro.bench.reporting import report_meta
from repro.config import ObservabilityConfig
from repro.stats import percentile
from repro.workload.queries import QuerySize
from repro.workload.scale import ScaleWorkloadSpec, SessionTable, run_closed_loop

SCHEMA = "stash-bench-scale/v1"

#: Default SLO targets: ``(class, percentile, target_seconds)``.
#: Navigation gestures (pan/zoom/drill) carry the paper's interactivity
#: budget; the ``"*"`` row is a cluster-wide tail-latency backstop.
DEFAULT_SLO_TARGETS = (
    ("pan", 95.0, 1.0),
    ("zoom", 95.0, 1.5),
    ("drill", 95.0, 1.5),
    ("*", 99.0, 3.0),
)

#: Engines on every curve: STASH vs the elastic (ES-style static-shard)
#: baseline.
ENGINES = ("stash", "elastic")


@dataclass(frozen=True)
class ScaleSweep:
    """One sweep's grid and workload knobs."""

    node_counts: tuple[int, ...]
    user_counts: tuple[int, ...]
    session_length: int
    think_time_s: float
    #: Users for the synthesis-throughput measurement.
    generator_users: int
    scale: BenchScale

    @staticmethod
    def quick() -> "ScaleSweep":
        return ScaleSweep(
            node_counts=(2, 4),
            user_counts=(4, 8),
            session_length=4,
            think_time_s=0.5,
            generator_users=100_000,
            scale=BenchScale.unit(),
        )

    @staticmethod
    def default() -> "ScaleSweep":
        return ScaleSweep(
            node_counts=(4, 8, 16),
            user_counts=(8, 32, 96),
            session_length=6,
            think_time_s=0.5,
            generator_users=1_000_000,
            scale=BenchScale.default().with_(num_records=60_000),
        )


def _measure_generator(sweep: ScaleSweep, seed: int) -> dict[str, Any]:
    """Wall-clock synthesis rate at population scale."""
    spec = ScaleWorkloadSpec(
        num_users=sweep.generator_users,
        session_length=sweep.session_length,
        seed=seed,
    )
    started = time.perf_counter()
    table = SessionTable.synthesize(spec)
    elapsed = time.perf_counter() - started
    return {
        "users": table.num_users,
        "queries": table.num_queries,
        "synthesis_wall_s": elapsed,
        "queries_per_s": table.num_queries / elapsed if elapsed > 0 else None,
        "digest": table.digest(),
    }


def _run_combo(
    engine: str,
    nodes: int,
    users: int,
    table: SessionTable,
    sweep: ScaleSweep,
    slo_targets: tuple,
) -> dict[str, Any]:
    """One closed-loop run; per-class latencies + recorder verdicts."""
    scale = sweep.scale.with_(num_nodes=nodes)
    config = bench_config(
        scale,
        observability=ObservabilityConfig(
            flight_recorder=True, slo_targets=tuple(slo_targets)
        ),
    )
    system = make_system(engine, bench_dataset(scale), config)
    started = time.perf_counter()
    results = run_closed_loop(
        system, table, users=users, think_time=sweep.think_time_s
    )
    wall = time.perf_counter() - started
    makespan = system.metrics.series["query"].duration()
    by_class: dict[str, list[float]] = {}
    for result in results:
        by_class.setdefault(result.query.kind, []).append(result.latency)
    classes = {
        kind: {
            "count": len(latencies),
            "p50_s": percentile(latencies, 50.0),
            "p95_s": percentile(latencies, 95.0),
            "p99_s": percentile(latencies, 99.0),
        }
        for kind, latencies in sorted(by_class.items())
    }
    recorder_report = system.recorder.report()
    return {
        "engine": engine,
        "nodes": nodes,
        "users": users,
        "queries": len(results),
        "degraded": sum(1 for r in results if r.degraded),
        "makespan_s": makespan,
        "throughput_qps": len(results) / makespan,
        "wall_s": wall,
        "classes": classes,
        "outcomes": recorder_report["outcomes"],
        "slo": recorder_report["slo"],
        "slo_violations": recorder_report["slo_violations"],
    }


def run_scale(
    sweep: ScaleSweep | None = None,
    seed: int = 0,
    slo_targets: tuple = DEFAULT_SLO_TARGETS,
    progress: Any = None,
) -> dict[str, Any]:
    """The full sweep; returns the JSON-ready BENCH_scale report."""
    sweep = sweep if sweep is not None else ScaleSweep.quick()
    spec = ScaleWorkloadSpec(
        num_users=max(sweep.user_counts),
        session_length=sweep.session_length,
        seed=seed,
    )
    table = SessionTable.synthesize(spec)
    runs: list[dict[str, Any]] = []
    for nodes in sweep.node_counts:
        for users in sweep.user_counts:
            for engine in ENGINES:
                combo = _run_combo(
                    engine, nodes, users, table, sweep, slo_targets
                )
                runs.append(combo)
                if progress is not None:
                    progress(
                        f"{engine:>8} nodes={nodes:<3} users={users:<4} "
                        f"{combo['throughput_qps']:8.2f} q/s  "
                        f"degraded={combo['degraded']}"
                    )
    generator = _measure_generator(sweep, seed)
    if progress is not None:
        progress(
            f"generator: {generator['users']:,} users -> "
            f"{generator['queries_per_s']:,.0f} queries/s synthesized"
        )
    return {
        "schema": SCHEMA,
        "meta": report_meta(seed),
        "mode": (
            "quick"
            if sweep == ScaleSweep.quick()
            else "default" if sweep == ScaleSweep.default() else "custom"
        ),
        "workload": {
            "session_length": sweep.session_length,
            "think_time_s": sweep.think_time_s,
            "size": QuerySize.COUNTY.value,
            "zipf_s": spec.zipf_s,
            "num_hotspots": spec.num_hotspots,
            "table_digest": table.digest(),
        },
        "slo_targets": [list(row) for row in slo_targets],
        "generator": generator,
        "runs": runs,
    }


def format_scale_report(report: dict[str, Any]) -> str:
    """Terminal table: one row per (engine, nodes, users) combination."""
    lines = [
        f"== bench scale ({report['mode']}): "
        f"closed-loop sessions, think={report['workload']['think_time_s']}s"
    ]
    lines.append(
        f"{'engine':>8} {'nodes':>5} {'users':>5} {'queries':>7} "
        f"{'q/s':>8} {'pan p95':>9} {'drill p95':>9} {'degr':>5} {'slo':>9}"
    )
    for run in report["runs"]:
        pan = run["classes"].get("pan", {}).get("p95_s")
        drill = run["classes"].get("drill", {}).get("p95_s")
        missed = sum(1 for row in run["slo"] if row["status"] == "missed")
        lines.append(
            f"{run['engine']:>8} {run['nodes']:>5} {run['users']:>5} "
            f"{run['queries']:>7} {run['throughput_qps']:>8.2f} "
            f"{'-' if pan is None else f'{pan * 1e3:7.1f}ms':>9} "
            f"{'-' if drill is None else f'{drill * 1e3:7.1f}ms':>9} "
            f"{run['degraded']:>5} {f'{missed} missed':>9}"
        )
    gen = report["generator"]
    lines.append(
        f"generator: {gen['users']:,} users / {gen['queries']:,} queries "
        f"synthesized in {gen['synthesis_wall_s']:.2f}s wall "
        f"({gen['queries_per_s']:,.0f} q/s)"
    )
    return "\n".join(lines)
