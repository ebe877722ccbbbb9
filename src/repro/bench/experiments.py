"""One experiment function per figure panel of the paper's section VIII.

Each function regenerates the data behind a figure: same workload shape,
same systems under comparison, scaled to the local machine by a
:class:`~repro.bench.harness.BenchScale`.  Returned
:class:`~repro.bench.harness.ExperimentResult` tables print the rows /
series the paper plots; the benchmark suite asserts the *shape* claims
(who wins, by roughly what factor) and EXPERIMENTS.md records the
measured numbers next to the paper's.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import (
    BenchScale,
    ExperimentResult,
    attribution_fractions_of,
    bench_config,
    bench_dataset,
    make_system,
)
from repro.config import ReplicationConfig
from repro.data.generator import NAM_DOMAIN
from repro.dht.partitioner import _stable_hash
from repro.query.model import AggregationQuery
from repro.workload.hotspot import hotspot_workload
from repro.workload.navigation import dicing_sequence, pan_cloud, pan_sequence, zoom_sequence
from repro.workload.queries import QuerySize, random_query

#: Query-size groups in figure order.
SIZES = [QuerySize.COUNTRY, QuerySize.STATE, QuerySize.COUNTY, QuerySize.CITY]


def _query_for(scale: BenchScale, size: QuerySize, salt: int) -> AggregationQuery:
    rng = scale.rng(salt)
    return random_query(
        rng, size, NAM_DOMAIN, day=scale.day, resolution=scale.resolution
    )


# ---------------------------------------------------------------------------
# Fig. 6a — query latency vs query size, three scenarios
# ---------------------------------------------------------------------------

def fig6a_latency_by_query_size(scale: BenchScale) -> ExperimentResult:
    """Basic vs empty-STASH (worst case) vs populated STASH (best case)."""
    result = ExperimentResult(
        name="fig6a",
        description="avg query latency (s) by query size and scenario",
    )
    dataset = bench_dataset(scale)
    config = bench_config(scale)
    basic = make_system("basic", dataset, config)
    per_series: dict[str, list] = {"basic": [], "stash_cold": [], "stash_hot": []}
    for size in SIZES:
        basic_lat = stash_cold_lat = stash_hot_lat = 0.0
        for repeat in range(scale.repeats):
            query = _query_for(scale, size, salt=101 * repeat)
            basic_result = basic.run_query(query.clone())
            basic_lat += basic_result.latency
            per_series["basic"].append(basic_result)
            # Worst case: a fresh, empty STASH graph.
            stash = make_system("stash", dataset, config)
            cold_result = stash.run_query(query.clone())
            stash_cold_lat += cold_result.latency
            per_series["stash_cold"].append(cold_result)
            stash.drain()
            # Best case: every relevant cell already in memory.
            hot_result = stash.run_query(query.clone())
            stash_hot_lat += hot_result.latency
            per_series["stash_hot"].append(hot_result)
        label = size.value
        result.add("basic", label, basic_lat / scale.repeats)
        result.add("stash_cold", label, stash_cold_lat / scale.repeats)
        result.add("stash_hot", label, stash_hot_lat / scale.repeats)
    hot = result.series["stash_hot"]
    base = result.series["basic"]
    result.meta["speedup_country"] = base["country"] / hot["country"]
    result.meta["speedup_state"] = base["state"] / hot["state"]
    for series, series_results in per_series.items():
        fractions = attribution_fractions_of(series_results)
        if fractions:
            result.meta[f"attribution_{series}"] = fractions
    return result


# ---------------------------------------------------------------------------
# Fig. 6b — throughput, STASH vs basic
# ---------------------------------------------------------------------------

def fig6b_throughput(scale: BenchScale) -> ExperimentResult:
    """Pan-cloud workload throughput (requests / simulated second)."""
    result = ExperimentResult(
        name="fig6b",
        description="throughput (queries/s) for pan-cloud workloads",
    )
    dataset = bench_dataset(scale)
    config = bench_config(scale)
    pans_per_center = 25
    centers = max(1, scale.throughput_requests // pans_per_center)
    for size in (QuerySize.STATE, QuerySize.COUNTY, QuerySize.CITY):
        queries = pan_cloud(
            scale.rng(salt=_stable_hash(size.value) % 1000),
            size,
            NAM_DOMAIN,
            num_centers=centers,
            pans_per_center=pans_per_center,
            pan_fraction=0.1,
        )
        # Fix day/resolution to the bench scale.
        queries = [
            AggregationQuery(
                bbox=q.bbox,
                time_range=scale.day.epoch_range(),
                resolution=scale.resolution,
            )
            for q in queries
        ]
        for kind in ("basic", "stash"):
            system = make_system(kind, dataset, config)
            system.run_concurrent([q.clone() for q in queries])
            qps = len(queries) / system.metrics.series["query"].duration()
            result.add(kind, size.value, qps)
        result.meta[f"improvement_{size.value}"] = (
            result.series["stash"][size.value] / result.series["basic"][size.value]
        )
    return result


# ---------------------------------------------------------------------------
# Fig. 6c — STASH maintenance (cold-start population) time
# ---------------------------------------------------------------------------

def fig6c_maintenance(scale: BenchScale) -> ExperimentResult:
    """Cell-population work after a cold query, by query size."""
    result = ExperimentResult(
        name="fig6c",
        description="cold-start population: cells inserted and busy time (s)",
    )
    dataset = bench_dataset(scale)
    config = bench_config(scale)
    for size in SIZES:
        query = _query_for(scale, size, salt=7)
        stash = make_system("stash", dataset, config)
        response = stash.run_query(query)
        response_at = stash.sim.now
        stash.drain()
        counts = stash.counters_total()
        populated = counts.get("cells_populated", 0)
        result.add("cells_populated", size.value, float(populated))
        result.add(
            "population_busy_s",
            size.value,
            populated * config.cost.cell_insert_cost,
        )
        result.add("population_tail_s", size.value, stash.sim.now - response_at)
    return result


# ---------------------------------------------------------------------------
# Fig. 6d — hotspot: dynamic replication vs none
# ---------------------------------------------------------------------------

def fig6d_hotspot(scale: BenchScale) -> ExperimentResult:
    """Completion timeline under a single-region hotspot."""
    result = ExperimentResult(
        name="fig6d",
        description="hotspot workload completion, replication vs none",
    )
    dataset = bench_dataset(scale)
    config = bench_config(
        scale,
        replication=ReplicationConfig(
            hotspot_queue_threshold=20,
            cooldown=0.5,
            # With one dominant clique there is one helper; a 50/50 split
            # balances the hotspotted node and the helper.
            reroute_probability=0.5,
        ),
    )
    queries = hotspot_workload(
        scale.rng(salt=13), NAM_DOMAIN, scale.throughput_requests
    )
    queries = [
        AggregationQuery(
            bbox=q.bbox,
            time_range=scale.day.epoch_range(),
            resolution=scale.resolution,
        )
        for q in queries
    ]
    for label, enable in (("replication", True), ("no_replication", False)):
        system = make_system("stash", dataset, config.with_(enable_replication=enable))
        # Both variants are *warm* STASH deployments: the experiment
        # isolates the queueing effect of the hotspot, as in the paper
        # (Fig. 6d compares STASH with vs without dynamic replication).
        system.warm([q.clone() for q in queries])
        hotspot_start = system.sim.now
        system.run_concurrent([q.clone() for q in queries])
        completions = np.asarray(system.metrics.series["query"].times)
        phase = completions[completions >= hotspot_start] - hotspot_start
        duration = float(phase.max())
        result.add("total_duration_s", label, duration)
        result.add("throughput_qps", label, len(queries) / duration)
        bin_width = max(duration / 20.0, 1e-9)
        nbins = int(np.floor(phase.max() / bin_width)) + 1
        idx = np.minimum((phase / bin_width).astype(np.int64), nbins - 1)
        result.meta[f"timeline_{label}"] = (
            np.cumsum(np.bincount(idx, minlength=nbins)).tolist()
        )
        if enable:
            counts = system.counters_total()
            result.meta["handoffs"] = counts.get("handoffs_completed", 0)
            result.meta["rerouted"] = counts.get("queries_rerouted", 0)
    result.meta["finish_advantage_s"] = (
        result.series["total_duration_s"]["no_replication"]
        - result.series["total_duration_s"]["replication"]
    )
    return result


# ---------------------------------------------------------------------------
# Fig. 7a/7b — iterative dicing (descending / ascending)
# ---------------------------------------------------------------------------

def fig7ab_iterative_dicing(
    scale: BenchScale, ascending: bool
) -> ExperimentResult:
    """Five dicing steps from country size, basic vs STASH."""
    order = "ascending" if ascending else "descending"
    result = ExperimentResult(
        name="fig7b" if ascending else "fig7a",
        description=f"{order} iterative dicing latency (s) per step",
    )
    dataset = bench_dataset(scale)
    config = bench_config(scale)
    base = _query_for(scale, QuerySize.COUNTRY, salt=23)
    steps = dicing_sequence(base, steps=5, shrink_factor=0.8, ascending=ascending)
    basic = make_system("basic", dataset, config)
    stash = make_system("stash", dataset, config)
    for index, query in enumerate(steps, start=1):
        label = f"q{index}"
        result.add("basic", label, basic.run_query(query.clone()).latency)
        stash_result = stash.run_query(query.clone())
        stash.drain()  # population between user actions
        result.add("stash", label, stash_result.latency)
    stash_rows = result.series["stash"]
    result.meta["stash_q2_over_q1"] = stash_rows["q2"] / stash_rows["q1"]
    return result


# ---------------------------------------------------------------------------
# Fig. 7c — panning
# ---------------------------------------------------------------------------

def fig7c_panning(scale: BenchScale) -> ExperimentResult:
    """State-level panning by 10/20/25% in 8 directions, basic vs STASH."""
    result = ExperimentResult(
        name="fig7c",
        description="avg pan latency (s) by pan fraction",
    )
    dataset = bench_dataset(scale)
    config = bench_config(scale)
    base = _query_for(scale, QuerySize.STATE, salt=31)
    basic_results: list = []
    stash_results: list = []
    for fraction in (0.10, 0.20, 0.25):
        label = f"pan{int(fraction * 100)}%"
        sequence = pan_sequence(base, fraction)
        basic = make_system("basic", dataset, config)
        stash = make_system("stash", dataset, config)
        basic_total = stash_total = 0.0
        for index, query in enumerate(sequence):
            basic_result = basic.run_query(query.clone())
            stash_result = stash.run_query(query.clone())
            stash.drain()
            if index > 0:  # the 8 pans; the first query is the warm-up
                basic_total += basic_result.latency
                stash_total += stash_result.latency
                basic_results.append(basic_result)
                stash_results.append(stash_result)
        result.add("basic", label, basic_total / (len(sequence) - 1))
        result.add("stash", label, stash_total / (len(sequence) - 1))
        result.meta[f"reduction_{label}"] = 1.0 - (
            result.series["stash"][label] / result.series["basic"][label]
        )
    for series, series_results in (("basic", basic_results), ("stash", stash_results)):
        fractions = attribution_fractions_of(series_results)
        if fractions:
            result.meta[f"attribution_{series}"] = fractions
    return result


# ---------------------------------------------------------------------------
# Fig. 7d/7e — drill-down / roll-up with partial cache
# ---------------------------------------------------------------------------

def fig7de_zoom(scale: BenchScale, direction: str) -> ExperimentResult:
    """Zoom across spatial resolutions with 0/50/75/100% preloaded cells."""
    if direction not in ("drill", "roll"):
        raise ValueError("direction must be 'drill' or 'roll'")
    result = ExperimentResult(
        name="fig7d" if direction == "drill" else "fig7e",
        description=f"{direction}-{'down' if direction == 'drill' else 'up'} "
        "latency (s) per resolution step",
    )
    dataset = bench_dataset(scale)
    config = bench_config(scale)
    base = _query_for(scale, QuerySize.STATE, salt=41)
    lo, hi = 2, scale.spatial_resolution
    steps = (
        zoom_sequence(base, lo, hi)
        if direction == "drill"
        else zoom_sequence(base, hi, lo)
    )
    basic = make_system("basic", dataset, config)
    for query in steps:
        label = f"s{query.resolution.spatial}"
        result.add("basic", label, basic.run_query(query.clone()).latency)
    for fraction in (0.5, 0.75, 1.0):
        series = f"stash{int(fraction * 100)}%"
        stash = make_system("stash", dataset, config)
        for query in steps:
            stash.preload_fraction(query.clone(), fraction, seed=scale.seed)
        for query in steps:
            stash_result = stash.run_query(query.clone())
            stash.drain()
            result.add(series, f"s{query.resolution.spatial}", stash_result.latency)
    basic_avg = sum(result.series["basic"].values()) / len(result.series["basic"])
    stash50_avg = sum(result.series["stash50%"].values()) / len(
        result.series["stash50%"]
    )
    result.meta["improvement_at_50%"] = 1.0 - stash50_avg / basic_avg
    return result


# ---------------------------------------------------------------------------
# Fig. 8a — panning: STASH vs ElasticSearch
# ---------------------------------------------------------------------------

def fig8a_es_panning(scale: BenchScale) -> ExperimentResult:
    """Step-by-step panning latency, STASH vs simulated ElasticSearch."""
    result = ExperimentResult(
        name="fig8a",
        description="panning latency (s) per step, STASH vs ElasticSearch",
    )
    dataset = bench_dataset(scale)
    config = bench_config(scale)
    base = _query_for(scale, QuerySize.STATE, salt=53)
    sequence = pan_sequence(base, 0.10)
    stash = make_system("stash", dataset, config)
    elastic = make_system("elastic", dataset, config)
    stash_results: list = []
    elastic_results: list = []
    for index, query in enumerate(sequence, start=1):
        label = f"q{index}"
        stash_result = stash.run_query(query.clone())
        stash.drain()
        stash_results.append(stash_result)
        result.add("stash", label, stash_result.latency)
        elastic_result = elastic.run_query(query.clone())
        elastic_results.append(elastic_result)
        result.add("elastic", label, elastic_result.latency)
    for series, series_results in (("stash", stash_results), ("elastic", elastic_results)):
        fractions = attribution_fractions_of(series_results)
        if fractions:
            result.meta[f"attribution_{series}"] = fractions
    stash_rows = result.series["stash"]
    es_rows = result.series["elastic"]
    later = [label for label in stash_rows if label != "q1"]
    result.meta["stash_reduction_vs_q1"] = 1.0 - (
        sum(stash_rows[l] for l in later) / len(later) / stash_rows["q1"]
    )
    result.meta["es_reduction_vs_q1"] = 1.0 - (
        sum(es_rows[l] for l in later) / len(later) / es_rows["q1"]
    )
    return result


# ---------------------------------------------------------------------------
# Fig. 8b/8c — iterative dicing: STASH vs ElasticSearch
# ---------------------------------------------------------------------------

def fig8bc_es_dicing(scale: BenchScale, ascending: bool) -> ExperimentResult:
    """Iterative dicing latency per step, STASH vs simulated ES."""
    order = "ascending" if ascending else "descending"
    result = ExperimentResult(
        name="fig8b" if ascending else "fig8c",
        description=f"{order} dicing latency (s), STASH vs ElasticSearch",
    )
    dataset = bench_dataset(scale)
    config = bench_config(scale)
    base = _query_for(scale, QuerySize.COUNTRY, salt=61)
    steps = dicing_sequence(base, steps=5, shrink_factor=0.8, ascending=ascending)
    stash = make_system("stash", dataset, config)
    elastic = make_system("elastic", dataset, config)
    for index, query in enumerate(steps, start=1):
        label = f"q{index}"
        stash_result = stash.run_query(query.clone())
        stash.drain()
        result.add("stash", label, stash_result.latency)
        result.add("elastic", label, elastic.run_query(query.clone()).latency)
    stash_rows = result.series["stash"]
    es_rows = result.series["elastic"]
    result.meta["stash_q2_over_q1"] = stash_rows["q2"] / stash_rows["q1"]
    result.meta["es_q2_over_q1"] = es_rows["q2"] / es_rows["q1"]
    return result
