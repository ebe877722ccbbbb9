"""Ablation experiments for STASH's individual design choices.

These go beyond the paper's figures: each ablation switches off one
mechanism DESIGN.md calls out and measures what it was buying.

* roll-up recomputation (paper V-B) — serve coarse misses from cached
  finer cells instead of disk;
* freshness dispersion (paper V-C) — keep the *neighborhood* of hot
  regions resident under eviction pressure;
* reroute probability (paper VII-C) — the load split between a
  hotspotted node and its helper;
* client-side prefetching (paper IX-A future work).
"""

from __future__ import annotations

from repro.bench.harness import (
    BenchScale,
    ExperimentResult,
    bench_config,
    bench_dataset,
    make_system,
)
from repro.client.session import ExplorationSession
from repro.config import EvictionConfig, FreshnessConfig, ReplicationConfig
from repro.data.generator import NAM_DOMAIN
from repro.geo.resolution import Resolution
from repro.query.model import AggregationQuery
from repro.workload.hotspot import hotspot_workload
from repro.workload.queries import QuerySize, random_query
from repro.workload.scale import ScaleWorkloadSpec, SessionTable


def ablation_rollup(scale: BenchScale) -> ExperimentResult:
    """Roll-up on/off: a coarse query after the fine level is warm."""
    result = ExperimentResult(
        name="ablation_rollup",
        description="coarse query latency after fine-level warm-up",
    )
    dataset = bench_dataset(scale)
    fine = random_query(
        scale.rng(71),
        QuerySize.STATE,
        NAM_DOMAIN,
        day=scale.day,
        resolution=scale.resolution,
    )
    for enabled in (True, False):
        config = bench_config(scale).with_(enable_rollup=enabled)
        stash = make_system("stash", dataset, config)
        coarse = fine.at_resolution(
            Resolution(scale.spatial_resolution - 1, fine.resolution.temporal)
        )
        warm = AggregationQuery(
            bbox=coarse.snapped_bbox(),
            time_range=fine.time_range,
            resolution=fine.resolution,
        )
        stash.warm([warm])
        outcome = stash.run_query(coarse.clone())
        label = "rollup_on" if enabled else "rollup_off"
        result.add("latency_s", label, outcome.latency)
        result.add(
            "disk_blocks", label, float(outcome.provenance["disk_blocks_read"])
        )
        result.add(
            "rollup_cells", label, float(outcome.provenance["cells_from_rollup"])
        )
    return result


def ablation_dispersion(scale: BenchScale) -> ExperimentResult:
    """Freshness dispersion on/off under eviction pressure.

    A wide region is warmed, then a small center query is hammered while
    churn queries force evictions; finally the user pans outward from
    the center.  With dispersion the center's halo kept receiving
    freshness and survives; without it the halo is evicted and the pan
    goes back to disk.
    """
    result = ExperimentResult(
        name="ablation_dispersion",
        description="outward pan after churn, dispersion on vs off",
    )
    dataset = bench_dataset(scale)
    center = random_query(
        scale.rng(73),
        QuerySize.STATE,
        NAM_DOMAIN,
        day=scale.day,
        resolution=scale.resolution,
    )
    wide = AggregationQuery(
        bbox=center.bbox.scaled(4.0),
        time_range=center.time_range,
        resolution=center.resolution,
    )
    # Churn must insert NEW cells on the SAME nodes as the center (cells
    # colocate by geohash partition, so far-away churn would pressure
    # other nodes and prove nothing): use the wide region on the
    # *previous day* — same spatial partitions, disjoint cell keys.
    churn = [
        AggregationQuery(
            bbox=wide.bbox,
            time_range=scale.day.step(-1).epoch_range(),
            resolution=wide.resolution,
        )
    ]
    # Calibrate per-node capacity: the busiest node should hold a bit
    # less than its share of the wide region, so churn forces evictions.
    probe = make_system("stash", dataset, bench_config(scale))
    probe.warm([wide.clone()])
    peak = max(len(node.graph) for node in probe.nodes.values())
    capacity = max(64, int(peak * 0.85))

    from repro.geo.geohash import cell_dimensions

    cell_height, cell_width = cell_dimensions(scale.spatial_resolution)
    for fraction in (0.35, 0.0):
        config = bench_config(scale).with_(
            freshness=FreshnessConfig(dispersion_fraction=fraction, half_life=1e6),
            eviction=EvictionConfig(max_cells=capacity, safe_fraction=0.8),
        )
        stash = make_system("stash", dataset, config)
        stash.warm([wide.clone()])
        for _ in range(3):
            stash.warm([center.clone()])
            for query in churn:
                stash.warm([query.clone()])
        # Pan by exactly one cell: the new row is the center's dispersed
        # halo — resident iff dispersion kept it fresh through the churn.
        outward = center.panned(cell_height, cell_width)
        outcome = stash.run_query(outward)
        label = f"dispersion_{fraction:g}"
        result.add("pan_latency_s", label, outcome.latency)
        result.add(
            "cells_from_cache", label, float(outcome.provenance["cells_from_cache"])
        )
        result.add(
            "disk_blocks", label, float(outcome.provenance["disk_blocks_read"])
        )
    return result


def ablation_reroute_probability(scale: BenchScale) -> ExperimentResult:
    """Hotspot throughput across reroute probabilities (0 = no offload)."""
    result = ExperimentResult(
        name="ablation_reroute",
        description="hotspot throughput vs reroute probability",
    )
    dataset = bench_dataset(scale)
    queries = hotspot_workload(
        scale.rng(79), NAM_DOMAIN, scale.throughput_requests
    )
    queries = [
        AggregationQuery(
            bbox=q.bbox,
            time_range=scale.day.epoch_range(),
            resolution=scale.resolution,
        )
        for q in queries
    ]
    for probability in (0.0, 0.25, 0.5, 0.8):
        config = bench_config(scale).with_(
            replication=ReplicationConfig(
                hotspot_queue_threshold=20,
                cooldown=0.5,
                reroute_probability=max(probability, 1e-9),
            ),
            enable_replication=probability > 0.0,
        )
        system = make_system("stash", dataset, config)
        system.warm([q.clone() for q in queries])
        start = system.sim.now
        system.run_concurrent([q.clone() for q in queries])
        duration = system.metrics.series["query"].duration() - start
        result.add("throughput_qps", f"p={probability}", len(queries) / duration)
    return result


def ablation_cache_capacity(scale: BenchScale) -> ExperimentResult:
    """Hit rate and latency vs per-node cell budget.

    The paper caps the in-memory cell count ("configurable and limited",
    V-C); this sweep shows the capacity/latency trade-off on a
    locality-heavy revisiting workload — the curve an operator would use
    to size the cache.
    """
    from repro.workload.navigation import pan_cloud

    result = ExperimentResult(
        name="ablation_capacity",
        description="hit rate / latency vs per-node cache capacity",
    )
    dataset = bench_dataset(scale)
    queries = pan_cloud(
        scale.rng(113),
        QuerySize.STATE,
        NAM_DOMAIN,
        num_centers=3,
        pans_per_center=12,
        pan_fraction=0.15,
    )
    queries = [
        AggregationQuery(
            bbox=q.bbox,
            time_range=scale.day.epoch_range(),
            resolution=scale.resolution,
        )
        for q in queries
    ]
    # Two passes over the interleaved centers: the second pass revisits.
    stream = queries + [q.clone() for q in queries]
    for capacity in (100, 400, 1_600, 50_000):
        config = bench_config(scale).with_(
            eviction=EvictionConfig(max_cells=capacity, safe_fraction=0.8)
        )
        stash = make_system("stash", dataset, config)
        latencies = []
        for query in stream:
            latencies.append(stash.run_query(query.clone()).latency)
            stash.drain()
        counts = stash.counters_total()
        hits = counts.get("cells_served_from_cache", 0)
        misses = counts.get("cells_populated", 0)
        label = f"{capacity} cells"
        result.add("mean_latency_s", label, sum(latencies) / len(latencies))
        result.add("hit_rate", label, hits / max(1, hits + misses))
        result.add("evictions", label, float(counts.get("cells_evicted", 0)))
    return result


def session_spec(scale: BenchScale) -> ScaleWorkloadSpec:
    """The sessions experiment's users: four 12-gesture state-size walks."""
    return ScaleWorkloadSpec(
        num_users=4,
        session_length=12,
        size=QuerySize.STATE,
        spatial_range=(2, min(4, scale.spatial_resolution)),
        seed=scale.seed + 101,
    )


def session_stream(scale: BenchScale) -> list[AggregationQuery]:
    """:func:`session_spec`'s sessions interleaved round-robin.

    The table is replayed step-major, so each user keeps their own
    gesture order and consecutive arrivals come from different users —
    the multi-user request stream a shared STASH deployment sees.
    """
    table = SessionTable.synthesize(session_spec(scale))
    return [
        table.query(user, step)
        for step in range(table.session_length)
        for user in range(table.num_users)
    ]


def experiment_realistic_sessions(scale: BenchScale) -> ExperimentResult:
    """Mixed multi-user exploration traffic across all three engines.

    Interleaved gesture walks (pan / dice / zoom / day-slice / jump) from
    several users — the traffic shape the paper's introduction motivates.
    Reports mean and p95 latency per engine plus STASH's cache traffic.
    """
    import numpy as np

    result = ExperimentResult(
        name="experiment_sessions",
        description="multi-user gesture traffic: latency by engine",
    )
    dataset = bench_dataset(scale)
    config = bench_config(scale)
    stream = session_stream(scale)
    for kind in ("basic", "stash", "elastic"):
        system = make_system(kind, dataset, config)
        latencies = []
        for query in stream:
            latencies.append(system.run_query(query.clone()).latency)
            if hasattr(system, "drain"):
                system.drain()
        values = np.asarray(latencies)
        result.add("mean_latency_s", kind, float(values.mean()))
        result.add("p95_latency_s", kind, float(np.percentile(values, 95)))
        if kind == "stash":
            counts = system.counters_total()
            result.meta["stash_cells_from_cache"] = counts.get(
                "cells_served_from_cache", 0
            )
            result.meta["stash_cells_from_rollup"] = counts.get(
                "cells_served_from_rollup", 0
            )
    return result


def ablation_cluster_scaling(scale: BenchScale) -> ExperimentResult:
    """Throughput vs cluster size on a fixed pan-cloud workload.

    The paper deployed 120 nodes; this sweep shows the reproduction's
    throughput scaling with node count (same dataset, same queries).
    """
    from repro.workload.navigation import pan_cloud

    result = ExperimentResult(
        name="ablation_scaling",
        description="pan-cloud throughput (queries/s) vs cluster size",
    )
    dataset = bench_dataset(scale)
    queries = pan_cloud(
        scale.rng(97),
        QuerySize.COUNTY,
        NAM_DOMAIN,
        num_centers=max(1, scale.throughput_requests // 25),
        pans_per_center=25,
    )
    queries = [
        AggregationQuery(
            bbox=q.bbox,
            time_range=scale.day.epoch_range(),
            resolution=scale.resolution,
        )
        for q in queries
    ]
    for num_nodes in (4, 8, 16, 32):
        config = bench_config(scale.with_(num_nodes=num_nodes))
        for kind in ("basic", "stash"):
            system = make_system(kind, dataset, config)
            system.run_concurrent([q.clone() for q in queries])
            qps = len(queries) / system.metrics.series["query"].duration()
            result.add(kind, f"{num_nodes} nodes", qps)
    return result


def ablation_prefetch(scale: BenchScale) -> ExperimentResult:
    """Client momentum prefetch on/off along a straight pan path."""
    result = ExperimentResult(
        name="ablation_prefetch",
        description="avg pan latency on a straight path, prefetch on vs off",
    )
    dataset = bench_dataset(scale)
    config = bench_config(scale)
    base = random_query(
        scale.rng(83),
        QuerySize.STATE,
        NAM_DOMAIN,
        day=scale.day,
        resolution=scale.resolution,
    )
    for prefetch in (False, True):
        stash = make_system("stash", dataset, config)
        session = ExplorationSession(
            stash,
            viewport=base.bbox,
            day=scale.day,
            resolution=base.resolution,
            prefetch=prefetch,
        )
        session.refresh()
        stash.drain()
        latencies = []
        for _ in range(6):
            outcome = session.pan("e", 0.25)
            stash.drain()
            latencies.append(outcome.latency)
        label = "prefetch_on" if prefetch else "prefetch_off"
        # The first two pans cannot be predicted; measure the rest.
        result.add("avg_pan_latency_s", label, sum(latencies[2:]) / 4)
    return result
