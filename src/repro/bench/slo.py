"""SLO benchmark: interaction-class latency histograms over a session mix.

Drives an :class:`~repro.client.session.ExplorationSession` through a
randomized gesture mix (pan / dice / drill / refresh) with the flight
recorder on, then reports per-class latency distributions and the SLO
verdicts — the operator-facing answer to "are pans still fast enough?".

Two views of the same latencies appear in the report and must agree:

* exact per-class percentiles over the recorded latency list, computed
  with the shared :func:`repro.stats.percentile`;
* the recorder's mergeable log-bucketed histograms, whose percentile
  *bounds* must bracket the exact values (a property the test suite
  checks).

Run via::

    python -m repro slo [--engine stash] [--requests 60] [--output BENCH_slo.json]
"""

from __future__ import annotations

from typing import Any

from repro.bench.harness import BenchScale, bench_config, bench_dataset, make_system
from repro.bench.reporting import report_meta
from repro.client.session import ExplorationSession
from repro.config import ObservabilityConfig
from repro.data.generator import NAM_DOMAIN
from repro.errors import QueryError
from repro.stats import percentile
from repro.workload.queries import QuerySize, random_query

#: Default SLO targets: ``(class, percentile, target_seconds)``.
#: Navigation gestures (pan/zoom/drill) carry the paper's interactivity
#: budget; the ``"*"`` row is a cluster-wide tail-latency backstop.
DEFAULT_SLO_TARGETS = (
    ("pan", 95.0, 1.0),
    ("zoom", 95.0, 1.5),
    ("drill", 95.0, 1.5),
    ("*", 99.0, 3.0),
)

#: Gesture mix: cumulative weights over (pan, dice, drill, refresh).
_PAN_W, _DICE_W, _DRILL_W = 0.45, 0.20, 0.20

_PAN_DIRECTIONS = ("n", "e", "s", "w", "ne", "se", "sw", "nw")


def run_slo(
    engine: str = "stash",
    scale: BenchScale | None = None,
    requests: int = 60,
    slo_targets: tuple = DEFAULT_SLO_TARGETS,
) -> dict[str, Any]:
    """Run the gesture mix and return the JSON-ready SLO report."""
    scale = scale if scale is not None else BenchScale.unit()
    dataset = bench_dataset(scale)
    config = bench_config(
        scale,
        observability=ObservabilityConfig(
            flight_recorder=True, slo_targets=tuple(slo_targets)
        ),
    )
    system = make_system(engine, dataset, config)
    base = random_query(
        scale.rng(23),
        QuerySize.STATE,
        NAM_DOMAIN,
        day=scale.day,
        resolution=scale.resolution,
    )
    session = ExplorationSession(
        system, viewport=base.bbox, day=scale.day, resolution=base.resolution
    )
    rng = scale.rng(31)
    by_class: dict[str, list[float]] = {}
    # The walk is bounded on purpose: dice toggles between a shrunken
    # and the original viewport, drill toggles one level finer and back,
    # so the footprint can never outgrow the base query's budget no
    # matter how the gesture sequence lands.
    diced = False
    drilled = False
    for _ in range(requests):
        roll = float(rng.random())
        try:
            if roll < _PAN_W:
                direction = _PAN_DIRECTIONS[int(rng.integers(len(_PAN_DIRECTIONS)))]
                result = session.pan(direction, 0.25)
            elif roll < _PAN_W + _DICE_W:
                result = session.dice(1.0 / 0.7 if diced else 0.7)
                diced = not diced
            elif roll < _PAN_W + _DICE_W + _DRILL_W:
                result = session.roll_up() if drilled else session.drill_down()
                drilled = not drilled
            else:
                result = session.refresh()
        except QueryError:
            # Hit a resolution limit anyway: re-show the viewport
            # instead (still a valid user gesture).
            result = session.refresh()
        system.drain()
        by_class.setdefault(result.query.kind, []).append(result.latency)

    recorder = system.recorder
    classes: dict[str, Any] = {}
    for kind, latencies in sorted(by_class.items()):
        classes[kind] = {
            "count": len(latencies),
            "mean_s": sum(latencies) / len(latencies),
            "p50_s": percentile(latencies, 50.0),
            "p95_s": percentile(latencies, 95.0),
            "p99_s": percentile(latencies, 99.0),
        }
    return {
        "schema": "stash-bench-slo/v1",
        "meta": report_meta(scale.seed),
        "engine": engine,
        "requests": requests,
        "classes": classes,
        "recorder": recorder.report(),
    }


def format_slo_report(report: dict[str, Any]) -> str:
    """Terminal table of an SLO report."""
    lines = [
        f"== bench slo (engine={report['engine']}, "
        f"requests={report['requests']})"
    ]
    header = (
        f"{'class':>8} {'count':>6} {'mean':>9} {'p50':>9} "
        f"{'p95':>9} {'p99':>9}"
    )
    lines.append(header)
    for kind, entry in report["classes"].items():
        lines.append(
            f"{kind:>8} {entry['count']:>6} "
            f"{entry['mean_s'] * 1e3:8.2f}ms {entry['p50_s'] * 1e3:8.2f}ms "
            f"{entry['p95_s'] * 1e3:8.2f}ms {entry['p99_s'] * 1e3:8.2f}ms"
        )
    recorder = report["recorder"]
    outcomes = recorder["outcomes"]
    lines.append(
        "outcomes: "
        + "  ".join(f"{name}={count}" for name, count in outcomes.items())
        + f"  slo_violations={recorder['slo_violations']}"
    )
    for entry in recorder["slo"]:
        status = entry["status"]
        if status == "no-data":
            detail = "no data"
        else:
            detail = (
                f"p{entry['percentile']:g} in "
                f"[{entry['bound_lo_s'] * 1e3:.2f}, "
                f"{entry['bound_hi_s'] * 1e3:.2f}] ms "
                f"vs target {entry['target_s'] * 1e3:.0f} ms"
            )
        lines.append(f"  slo {entry['class']:>6}: {status:<10} {detail}")
    return "\n".join(lines)
