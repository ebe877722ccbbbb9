"""Crash-recovery benchmark: STASH under a mid-run node failure.

The scenario crashes the coordinator of a hotspot workload one third of
the way through an open-loop run and restarts it at two thirds, then
reports hit rate, latency, and answer completeness for the *before /
during / after* phases.  What it demonstrates:

* no query ever hangs — every request completes, worst case as an
  explicit degraded answer (``completeness`` < 1);
* peers discover the death through RPC timeouts, declare it in the
  shared membership, and the DHT ring repairs around it;
* the cache hit rate collapses during the outage (the crashed node's
  graph is volatile) and recovers once the node restarts and the
  original partition map is restored.

Timing is fully deterministic: arrival times reuse the exact seeded
exponential gaps :meth:`~repro.system.DistributedSystem.run_open_loop`
draws, so the crash lands between the same two arrivals on every run.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.bench.harness import (
    BenchScale,
    ExperimentResult,
    bench_config,
    bench_dataset,
    make_system,
)
from repro.config import FaultConfig
from repro.data.generator import NAM_DOMAIN
from repro.dht.partitioner import PrefixPartitioner
from repro.faults.schedule import FaultSchedule
from repro.query.model import AggregationQuery
from repro.system import coordinator_for
from repro.workload.hotspot import hotspot_workload

#: Arrival rate (requests / simulated second) for the open-loop run.
ARRIVAL_RATE = 2.0

#: Recovery knobs tuned so the whole detect/declare/reroute cycle fits
#: well inside the outage window at bench time scales.
RECOVERY = dict(
    rpc_timeout=0.35,
    evaluate_timeout=1.5,
    max_retries=2,
    backoff_base=0.05,
)


def _hotspot_queries(scale: BenchScale) -> list[AggregationQuery]:
    queries = hotspot_workload(
        scale.rng(salt=23), NAM_DOMAIN, scale.throughput_requests
    )
    return [
        AggregationQuery(
            bbox=q.bbox,
            time_range=scale.day.epoch_range(),
            resolution=scale.resolution,
        )
        for q in queries
    ]


def _hot_coordinator(scale: BenchScale, queries: list[AggregationQuery]) -> str:
    """The node most of the workload lands on (under the healthy ring)."""
    config = bench_config(scale)
    partitioner = PrefixPartitioner(
        [f"node-{i}" for i in range(scale.num_nodes)],
        config.cluster.partition_precision,
    )
    votes: Counter[str] = Counter()
    for query in queries:
        votes[coordinator_for(partitioner, query)] += 1
    return votes.most_common(1)[0][0]


def _phase_stats(result: ExperimentResult, phase: str, results: list) -> None:
    served = missed = unresolved = 0
    degraded = 0
    completeness_floor = 1.0
    for r in results:
        prov = r.provenance
        served += prov.get("cells_from_cache", 0) + prov.get("cells_from_rollup", 0)
        missed += prov.get("cells_from_disk", 0)
        unresolved += prov.get("cells_unresolved", 0)
        if r.degraded:
            degraded += 1
            completeness_floor = min(completeness_floor, r.completeness)
    total = served + missed + unresolved
    from repro.stats import percentile

    result.add("mean_latency_s", phase, float(np.mean([r.latency for r in results])))
    result.add("p95_latency_s", phase, percentile([r.latency for r in results], 95.0))
    result.add("hit_rate", phase, served / total if total else 0.0)
    result.add("degraded_answers", phase, float(degraded))
    result.add("min_completeness", phase, completeness_floor)


def fault_crash_recovery(scale: BenchScale) -> ExperimentResult:
    """Hit rate and latency before / during / after a coordinator crash."""
    result = ExperimentResult(
        name="fault-recovery",
        description="hotspot workload across a coordinator crash + restart",
    )
    dataset = bench_dataset(scale)
    queries = _hotspot_queries(scale)
    target = _hot_coordinator(scale, queries)
    n = len(queries)

    # The exact arrival times run_open_loop will generate for this seed.
    rng = np.random.default_rng(scale.seed)
    arrivals = np.cumsum(rng.exponential(1.0 / ARRIVAL_RATE, n))
    crash_index, restart_index = n // 3, (2 * n) // 3
    crash_at = float(arrivals[crash_index])
    restart_at = float(arrivals[restart_index])

    config = bench_config(
        scale,
        faults=FaultConfig(
            enabled=True,
            schedule=tuple(FaultSchedule.crash_restart(target, crash_at, restart_at)),
            **RECOVERY,
        ),
    )
    system = make_system("stash", dataset, config)
    results = system.run_open_loop(queries, ARRIVAL_RATE, seed=scale.seed)
    system.drain()

    # The injector's timers are created before the arrival process, so a
    # query arriving exactly at crash_at is submitted post-crash: phase
    # membership by arrival index is exact, not approximate.
    _phase_stats(result, "before", results[:crash_index])
    _phase_stats(result, "during", results[crash_index:restart_index])
    _phase_stats(result, "after", results[restart_index:])

    counts = system.counters_total()
    fault_counts = dict(system.fault_counters)
    result.meta.update(
        {
            "crashed_node": target,
            "crash_at_s": round(crash_at, 3),
            "restart_at_s": round(restart_at, 3),
            "queries": n,
            "completed": len(results),
            "hung": n - len(results),
            "messages_dropped": system.network.messages_dropped,
            "failovers": system.membership.failovers,
            "rpc_timeouts": counts.get("rpc_timeouts", 0),
            "rpc_retries": counts.get("rpc_retries", 0),
            "rpc_failfast": counts.get("rpc_failfast", 0),
            "degraded_answers": counts.get("degraded_answers", 0),
            "client_timeouts": fault_counts.get("client_timeouts", 0),
            "client_retries": fault_counts.get("client_retries", 0),
            "client_gave_up": fault_counts.get("client_gave_up", 0),
            "hit_rate_recovered": (
                result.series["hit_rate"]["after"]
                > result.series["hit_rate"]["during"]
            ),
        }
    )
    return result
