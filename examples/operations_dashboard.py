#!/usr/bin/env python
"""Operations view: watch a STASH cluster under a realistic mixed load.

Replays a recorded Zipf-skewed query trace (the kind of skew the paper's
section V-A cites) against a STASH cluster, reading the gauges of its
metrics registry (``cluster.metrics``, a ``repro.obs.MetricsRegistry``)
between waves: cache occupancy and balance, hit rate climbing as the
collective cache builds, hotspot/replication activity, and disk traffic
tapering off.  The registry also samples every gauge periodically, so
the run ends with how the hit rate and queue depths *evolved*, not just
where they landed.

Run with::

    python examples/operations_dashboard.py
"""

import tempfile

import numpy as np

from repro import (
    AggregationQuery,
    DatasetSpec,
    NAM_DOMAIN,
    ReplicationConfig,
    Resolution,
    StashCluster,
    StashConfig,
    SyntheticNAMGenerator,
    TemporalResolution,
    TimeKey,
)
from repro.config import ObservabilityConfig
from repro.workload.hotspot import zipf_region_workload
from repro.workload.trace import load_trace, replay_trace, save_trace


def format_gauges(cluster: StashCluster) -> str:
    """The per-node table an operator watches, read from the gauges."""
    gauges = cluster.metrics.snapshot()["gauges"]
    lines = [
        f"cluster @ t={cluster.sim.now:.3f}s  "
        f"queries={len(cluster.metrics.series['query'])}  "
        f"msgs={gauges['network.messages_sent']:.0f}  "
        f"bytes={gauges['network.bytes_sent']:,.0f}",
        f"{'node':>10} {'cells':>8} {'guest':>7} {'pending':>8} {'disk rd':>8}",
    ]
    cells, guests = [], []
    for node_id in sorted(cluster.nodes):
        cells.append(gauges[f"{node_id}.cache_cells"])
        guests.append(gauges[f"{node_id}.guest_cells"])
        lines.append(
            f"{node_id:>10} {cells[-1]:>8.0f} {guests[-1]:>7.0f} "
            f"{gauges[f'{node_id}.queue_depth']:>8.0f} "
            f"{gauges[f'{node_id}.disk_reads']:>8.0f}"
        )
    mean = sum(cells) / len(cells)
    lines.append(
        f"hit rate: {gauges['cluster.hit_rate']:.1%}   "
        f"imbalance: {max(cells) / mean if mean else 0.0:.2f}   "
        f"guest total: {sum(guests):.0f}"
    )
    return "\n".join(lines)


def main() -> None:
    dataset = SyntheticNAMGenerator(
        DatasetSpec(num_records=100_000, start_day=(2013, 2, 1), num_days=2)
    ).generate()
    config = StashConfig(
        replication=ReplicationConfig(hotspot_queue_threshold=25, cooldown=0.5),
        # Sample every gauge (queue depth, cache cells, hit rate, ...)
        # every 100ms of simulated time.
        observability=ObservabilityConfig(sample_interval=0.1),
    )
    cluster = StashCluster(dataset, config)

    # Record a 300-query Zipf trace, then replay it in three waves —
    # exactly how you would replay a captured production trace.
    rng = np.random.default_rng(21)
    queries = [
        AggregationQuery(
            bbox=q.bbox,
            time_range=TimeKey.of(2013, 2, 2).epoch_range(),
            resolution=Resolution(4, TemporalResolution.DAY),
        )
        for q in zipf_region_workload(rng, NAM_DOMAIN, 300, num_regions=6)
    ]
    with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as handle:
        trace_path = handle.name
    save_trace(queries, trace_path)
    trace = load_trace(trace_path)
    print(f"replaying {len(trace)} Zipf-skewed queries in 3 waves\n")

    for wave in range(3):
        chunk = trace[wave * 100 : (wave + 1) * 100]
        replay_trace(cluster, chunk, concurrent=True)
        cluster.drain()
        print(f"--- after wave {wave + 1} ({len(chunk)} queries) ---")
        print(format_gauges(cluster))
        counts = cluster.counters_total()
        print(
            f"rollup serves: {counts.get('cells_served_from_rollup', 0):,}   "
            f"hotspots: {counts.get('hotspots_detected', 0)}   "
            f"handoffs: {counts.get('handoffs_completed', 0)}   "
            f"rerouted: {counts.get('queries_rerouted', 0)}\n"
        )

    print(f"final hit rate: {cluster.cache_hit_rate():.1%} "
          f"(rises as the collective cache builds)")

    # The registry's time series show the trajectory between waves.
    hit = cluster.metrics.series["cluster.hit_rate"]
    if len(hit):
        print(
            f"\nhit-rate series ({len(hit)} samples @ "
            f"{config.observability.sample_interval}s): "
            f"{hit.first():.1%} -> {hit.last():.1%}"
        )
        peak_queue = max(
            (series.peak(), name)
            for name, series in cluster.metrics.series.items()
            if name.endswith(".queue_depth") and len(series)
        )
        print(f"peak queue depth: {peak_queue[0]:.0f} on {peak_queue[1].split('.')[0]}")
        print()
        print(cluster.metrics.format_table(
            names=["cluster.hit_rate", "network.bytes_sent"], last=6
        ))


if __name__ == "__main__":
    main()
