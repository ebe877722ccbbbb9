"""Wall-clock micro-kernel harness: the cache/query hot-path trajectory.

Unlike the figure experiments (which report *simulated* seconds), this
harness measures real wall-clock time of the inner kernels every query
pays for — eviction scoring, batched freshness touches, footprint
planning, owner grouping, and grouped aggregation — at several graph
sizes, and records the results as ``BENCH_kernels.json``.  Re-running it
per PR (the CI ``bench-smoke`` job) keeps a perf trajectory: a hot-path
regression shows up as a kernel's seconds drifting upward between
commits.

Every kernel times the production function and reports its ``seconds``
only.  Equivalence with the reference implementations is tier-1's job
(``tests/reference.py`` and the suites that import it), not a timing
harness's.

Run via::

    python -m repro bench kernels [--quick] [--output BENCH_kernels.json]
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from repro.config import FreshnessConfig, StashConfig
from repro.core.cell import Cell
from repro.core.cluster import StashCluster
from repro.core.eviction import rank_victims
from repro.core.freshness import FreshnessTracker
from repro.core.graph import StashGraph
from repro.core.keys import CellKey
from repro.core.planner import plan_query
from repro.data.generator import DatasetSpec, SyntheticNAMGenerator, small_test_dataset
from repro.data.statistics import SummaryFrame, SummaryVector
from repro.geo.geohash import GEOHASH_ALPHABET
from repro.geo.resolution import ResolutionSpace
from repro.geo.temporal import TemporalResolution, TimeKey

#: Graph sizes (resident cells) the full harness sweeps.
DEFAULT_SIZES = (2_000, 10_000, 50_000)
#: Reduced sweep for the CI smoke job.
QUICK_SIZES = (2_000, 10_000)

#: Keys per simulated query footprint for touch/plan kernels.
FOOTPRINT_KEYS = 512

_DAY = TimeKey.of(2013, 2, 2)


def _random_geohashes(rng: np.random.Generator, count: int, precision: int) -> list[str]:
    """``count`` distinct random geohash strings of one precision."""
    space = 32**precision
    codes = rng.choice(space, size=count, replace=False)
    out = []
    for code in codes.tolist():
        chars = []
        for _ in range(precision):
            code, value = divmod(code, 32)
            chars.append(GEOHASH_ALPHABET[value])
        out.append("".join(reversed(chars)))
    return out


def build_bench_graph(
    num_cells: int, seed: int = 42
) -> tuple[StashGraph, FreshnessTracker, list[CellKey], float]:
    """A warmed graph of ``num_cells`` cells with a varied touch history.

    Cells span two levels (precision 5 and its precision-4 parents) so
    the per-level column layout is exercised; a few rounds of randomized
    touches at spread-out times give every cell a distinct
    ``(freshness, last_touch)`` pair, which is what the eviction kernel
    has to rank.  Returns ``(graph, tracker, keys, now)``.
    """
    rng = np.random.default_rng(seed)
    fine = max(1, int(num_cells * 0.9))
    coarse = num_cells - fine
    summary = SummaryVector.from_arrays({"temperature": np.array([1.0])})
    graph = StashGraph(ResolutionSpace(1, 8), name="bench")
    keys: list[CellKey] = []
    for code in _random_geohashes(rng, fine, 5):
        keys.append(CellKey(code, _DAY))
    if coarse:
        for code in _random_geohashes(rng, coarse, 4):
            keys.append(CellKey(code, _DAY))
    for key in keys:
        graph.upsert(Cell(key=key, summary=summary))
    tracker = FreshnessTracker(FreshnessConfig())
    now = 0.0
    for round_index in range(4):
        now = float(round_index) * 30.0
        sample = rng.choice(len(keys), size=max(1, len(keys) // 3), replace=False)
        tracker.touch_cells(graph, [keys[i] for i in sample.tolist()], now)
    return graph, tracker, keys, now + 60.0


def _time_best(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_kernels(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    repeats: int = 5,
    seed: int = 42,
    quick: bool = False,
) -> dict[str, Any]:
    """Time every kernel at every size; returns the JSON-ready report."""
    from repro.bench.reporting import report_meta

    report: dict[str, Any] = {
        "schema": "stash-bench-kernels/v3",
        "quick": quick,
        "sizes": list(sizes),
        "repeats": repeats,
        "seed": seed,
        "meta": report_meta(seed),
        "kernels": {},
    }
    kernels: dict[str, dict[str, Any]] = report["kernels"]
    # One real coordinator node (16-node prefix ring) for owner grouping.
    cluster = StashCluster(small_test_dataset(num_records=500), StashConfig())
    cluster.start()
    coordinator = cluster.nodes[cluster.node_ids[0]]

    for size in sizes:
        graph, tracker, keys, now = build_bench_graph(size, seed=seed)
        rng = np.random.default_rng(seed + size)
        excess = max(1, size // 5)

        # -- eviction scoring: rank the `excess` stalest cells ----------
        kernels.setdefault("eviction_scoring", {})[str(size)] = {
            "excess": excess,
            "seconds": _time_best(
                lambda: rank_victims(graph, tracker.decay_rate, now, excess),
                repeats,
            ),
        }

        # -- batched freshness touch over one footprint -----------------
        sample = rng.choice(
            len(keys), size=min(FOOTPRINT_KEYS, len(keys)), replace=False
        )
        footprint = [keys[i] for i in sample.tolist()]
        f_inc = tracker.config.f_inc
        rate = tracker.decay_rate
        kernels.setdefault("touch", {})[str(size)] = {
            "footprint_keys": len(footprint),
            "seconds": _time_best(
                lambda: graph.touch_batch(
                    footprint, f_inc, now, rate, count_access=True
                ),
                repeats,
            ),
        }

        # -- footprint planning over the graph (cache-hit path) ---------
        plan_s = _time_best(
            lambda: plan_query(graph, footprint, ["temperature"]), repeats
        )
        kernels.setdefault("plan", {})[str(size)] = {
            "footprint_keys": len(footprint),
            "seconds": plan_s,
        }

        # -- owner grouping: the coordinator's per-geohash DHT resolution
        day_keys = [
            CellKey(key.geohash, _DAY.step(offset))
            for key in footprint
            for offset in range(6)
        ]
        kernels.setdefault("owner_grouping", {})[str(size)] = {
            "cells": len(day_keys),
            "seconds": _time_best(
                lambda: coordinator._group_by_owner(day_keys, {}), repeats
            ),
        }

    # -- grouped aggregation (scan kernel, size-independent) ------------
    records = 20_000 if quick else 100_000
    spec = DatasetSpec(num_records=records, start_day=(2013, 2, 1), num_days=2)
    batch = SyntheticNAMGenerator(spec).generate()
    precision, resolution = 4, TemporalResolution.DAY

    # Times the FULL bin->summarize pipeline (encoding included): timing
    # only the summarize half under-reports the real scan path.
    kernels["grouped_aggregation"] = {
        str(records): {
            "records": records,
            "seconds": _time_best(
                lambda: SummaryFrame.from_groups(
                    batch.bin_ids(precision, resolution), batch.attributes
                ),
                repeats,
            ),
        }
    }
    return report


def format_report(report: dict[str, Any]) -> str:
    """Human-readable table of one harness run."""
    lines = [
        f"== bench kernels (quick={report['quick']}, repeats={report['repeats']})"
    ]
    for kernel, by_size in report["kernels"].items():
        for size, entry in by_size.items():
            lines.append(
                f"{kernel:>20} @ {size:>7}  {entry['seconds'] * 1e3:9.3f} ms"
            )
    return "\n".join(lines)
