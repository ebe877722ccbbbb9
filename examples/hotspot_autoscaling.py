#!/usr/bin/env python
"""Hotspot autoscaling: dynamic clique replication under skewed load.

Simulates the paper's section VIII-E scenario: a sudden burst of
county-level queries from many users over one region (think: a wildfire
or storm making the news).  The owning node's request queue floods; it
detects the hotspot, hands off its hottest cliques to the antipode
node, and starts rerouting — watch the completion timeline pull ahead
of the no-replication run.

Run with::

    python examples/hotspot_autoscaling.py
"""

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
from repro.workload.hotspot import hotspot_workload


def run(dataset, queries, enable_replication: bool):
    config = StashConfig(
        replication=ReplicationConfig(
            hotspot_queue_threshold=20,
            cooldown=0.5,
            reroute_probability=0.5,
        ),
        enable_replication=enable_replication,
    )
    cluster = StashCluster(dataset, config)
    # Warm the cache: the experiment isolates the *queueing* effect of
    # the hotspot, as in the paper's Fig. 6d.
    cluster.warm([q.panned(0, 0) for q in queries])
    start = cluster.sim.now
    cluster.run_concurrent([q.panned(0, 0) for q in queries])
    completions = np.asarray(cluster.metrics.series["query"].times)
    phase = completions[completions >= start] - start
    return cluster, phase


def ascii_timeline(label: str, phase: np.ndarray, bins: int, bin_width: float) -> None:
    counts = np.bincount(
        np.minimum((phase / bin_width).astype(int), bins - 1), minlength=bins
    )
    cumulative = np.cumsum(counts)
    total = cumulative[-1]
    print(f"\n{label} (each row = {bin_width * 1e3:.1f} ms of simulated time)")
    for i, done in enumerate(cumulative):
        bar = "#" * int(50 * done / total)
        print(f"  t={i * bin_width * 1e3:6.1f}ms |{bar:<50}| {done:4d} done")
        if done == total:
            break


def main() -> None:
    spec = DatasetSpec(num_records=120_000, start_day=(2013, 2, 1), num_days=2)
    dataset = SyntheticNAMGenerator(spec).generate()

    rng = np.random.default_rng(13)
    queries = [
        AggregationQuery(
            bbox=q.bbox,
            time_range=TimeKey.of(2013, 2, 2).epoch_range(),
            resolution=Resolution(4, TemporalResolution.DAY),
        )
        for q in hotspot_workload(rng, NAM_DOMAIN, 400)
    ]
    print(f"firing {len(queries)} county-level queries at one region...")

    with_repl, phase_repl = run(dataset, queries, enable_replication=True)
    without_repl, phase_none = run(dataset, queries, enable_replication=False)

    longest = max(phase_repl.max(), phase_none.max())
    bin_width = longest / 15
    ascii_timeline("WITH dynamic replication", phase_repl, 16, bin_width)
    ascii_timeline("WITHOUT replication", phase_none, 16, bin_width)

    counts = with_repl.counters_total()
    print(f"\nhandoffs completed: {counts.get('handoffs_completed', 0)}")
    print(f"queries rerouted:   {counts.get('queries_rerouted', 0)}")
    print(f"guest cells hosted: {with_repl.total_guest_cells():,}")
    speedup = phase_none.max() / phase_repl.max()
    print(f"\nworkload finished {speedup:.2f}x faster with replication "
          f"({phase_repl.max() * 1e3:.1f} ms vs {phase_none.max() * 1e3:.1f} ms)")


if __name__ == "__main__":
    main()
