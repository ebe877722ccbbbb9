"""Membership-churn benchmark: anti-entropy repair vs cold restart.

The scenario warms a STASH cluster, drives a hotspot burst so dynamic
replication seeds guest replicas of the hot node's cliques, then runs a
timed open-loop phase through a crash + restart of that hot node, under
**gossip membership** — peers detect the death by heartbeat silence,
repair their rings independently, and converge epidemically.  Two
variants differ only in the recovery machinery:

* ``repair`` — anti-entropy on: survivors promote guest replicas of the
  dead node's range (and re-disperse them to the repaired ring's
  owners), and at rejoin the survivors stream the node's cells back
  (handoff), so it restarts *warm*.
* ``cold``   — repair and handoff off: the dead node's cells are simply
  unreachable during the outage, and the node restarts with an empty
  graph it must re-earn from disk.

The report phases hit rate / latency / completeness before, during, and
after the outage, splitting the after-phase into an early recovery
window (where handoff matters most) and the steady tail.  The headline
numbers are ``recovery_hit_rate_advantage`` (repair minus cold over the
post-restart recovery window) and ``warm_recovery_faster`` — the
acceptance check that repair+handoff recovers the warm hit rate
measurably faster than a cold restart.

Overload protection runs enabled in both variants so the churn scenario
also exercises admission shedding and the circuit breaker end to end
(their counters land in the report's meta).
"""

from __future__ import annotations

import numpy as np

from repro.bench.faults import (
    ARRIVAL_RATE,
    RECOVERY,
    _hot_coordinator,
    _hotspot_queries,
    _phase_stats,
)
from repro.bench.harness import (
    BenchScale,
    ExperimentResult,
    bench_config,
    bench_dataset,
    make_system,
)
from repro.config import (
    FaultConfig,
    GossipConfig,
    OverloadConfig,
    ReplicationConfig,
)
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule

#: Gossip timings for bench scales: detection (suspect + dead silence)
#: completes well inside the outage window at ARRIVAL_RATE.
GOSSIP = dict(
    interval=0.25,
    suspect_after=1.0,
    dead_after=1.0,
)

#: Aggressive replication so the hotspot burst seeds guest replicas —
#: the raw material anti-entropy repair works with.
REPLICATION = ReplicationConfig(
    hotspot_queue_threshold=10,
    cooldown=0.5,
    guest_ttl=3_600.0,
)

OVERLOAD = OverloadConfig(enabled=True, queue_limit=16)


def _variant_config(scale: BenchScale, repair: bool):
    return bench_config(
        scale,
        faults=FaultConfig(enabled=True, **RECOVERY),
        gossip=GossipConfig(enabled=True, repair=repair, **GOSSIP),
        overload=OVERLOAD,
        replication=REPLICATION,
    )


def _overload_burst(result: ExperimentResult, system, queries) -> None:
    """Flood a cold cluster to exercise shedding and the breaker.

    Flushing the caches first forces every query to the resolution path,
    scattering scan legs across all owners at once — queue depths blow
    past the admission limit, low-priority work is shed, and sustained
    shedding trips circuit breakers into explicitly degraded answers.
    """
    system.flush_caches()
    shed_before = sum(
        n.overload.shed_total
        for n in system.nodes.values()
        if n.overload is not None
    )
    flood = [q.clone() for q in queries for _ in range(3)]
    results = system.run_concurrent(flood)
    system.drain()
    _phase_stats(result, "overload:burst", results)
    result.meta["overload_flood_queries"] = len(flood)
    result.meta["overload_requests_shed"] = (
        sum(
            n.overload.shed_total
            for n in system.nodes.values()
            if n.overload is not None
        )
        - shed_before
    )
    result.meta["overload_breaker_opens"] = sum(
        n.overload.breaker_opens
        for n in system.nodes.values()
        if n.overload is not None
    )
    result.meta["overload_degraded_answers"] = sum(
        1 for r in results if r.degraded
    )


def churn_recovery(scale: BenchScale) -> ExperimentResult:
    """Hit-rate recovery after churn: anti-entropy repair vs cold restart."""
    result = ExperimentResult(
        name="churn-recovery",
        description="hotspot hit rate across a crash/restart: repair vs cold",
    )
    dataset = bench_dataset(scale)
    queries = _hotspot_queries(scale)
    target = _hot_coordinator(scale, queries)
    n = len(queries)

    # The exact arrival offsets run_open_loop will generate for this
    # seed; the crash/restart are pinned between the same two arrivals
    # in both variants, so phase membership by index is exact.
    rng = np.random.default_rng(scale.seed)
    arrivals = np.cumsum(rng.exponential(1.0 / ARRIVAL_RATE, n))
    crash_index, restart_index = n // 3, (2 * n) // 3
    crash_offset = float(arrivals[crash_index])
    restart_offset = float(arrivals[restart_index])
    # Early recovery window: the first half of the after-phase, where a
    # warm restart separates most clearly from a cold one.
    early_end = restart_index + (n - restart_index) // 2

    after_hit = {}
    for variant, repair in (("repair", True), ("cold", False)):
        system = make_system("stash", dataset, _variant_config(scale, repair))
        # Warm the caches, then drive the whole workload concurrently:
        # the burst queues up on the hot node, trips hotspot detection,
        # and disperses its cliques to helpers' guest graphs.
        system.warm([q.clone() for q in queries])
        system.run_concurrent([q.clone() for q in queries])
        system.drain()
        guest_cells = system.total_guest_cells()

        # The timed phase starts *now*; fault times are relative to it.
        t0 = system.sim.now
        injector = FaultInjector(
            system,
            FaultSchedule.crash_restart(
                target, t0 + crash_offset, t0 + restart_offset
            ),
        )
        injector.install()
        results = system.run_open_loop(queries, ARRIVAL_RATE, seed=scale.seed)
        system.drain()
        # Let post-restart handoff/repair traffic finish for the gauges.
        system.sim.run(until=system.sim.timeout(5.0))

        _phase_stats(result, f"{variant}:before", results[:crash_index])
        _phase_stats(result, f"{variant}:during",
                     results[crash_index:restart_index])
        _phase_stats(result, f"{variant}:after-early",
                     results[restart_index:early_end])
        _phase_stats(result, f"{variant}:after-late", results[early_end:])
        after_hit[variant] = result.series["hit_rate"][f"{variant}:after-early"]

        counts = system.counters_total()
        fault_counts = dict(system.fault_counters)
        result.meta[f"{variant}_completed"] = len(results)
        result.meta[f"{variant}_hung"] = n - len(results)
        result.meta[f"{variant}_guest_cells_seeded"] = guest_cells
        result.meta[f"{variant}_failovers"] = sum(
            v.failovers for v in system.memberships.values()
        )
        result.meta[f"{variant}_gossip_rounds"] = sum(
            a.rounds for a in system.gossip_agents.values()
        )
        result.meta[f"{variant}_repair_promoted"] = counts.get(
            "repair_cells_promoted", 0
        )
        result.meta[f"{variant}_repair_shipped"] = counts.get(
            "repair_cells_shipped", 0
        )
        result.meta[f"{variant}_handoff_streamed"] = counts.get(
            "handoff_cells_streamed", 0
        )
        result.meta[f"{variant}_requests_shed"] = counts.get("requests_shed", 0)
        result.meta[f"{variant}_breaker_opens"] = sum(
            node.overload.breaker_opens
            for node in system.nodes.values()
            if node.overload is not None
        )
        result.meta[f"{variant}_client_timeouts"] = fault_counts.get(
            "client_timeouts", 0
        )

        if variant == "repair":
            _overload_burst(result, system, queries)

    result.meta.update(
        {
            "crashed_node": target,
            "crash_offset_s": round(crash_offset, 3),
            "restart_offset_s": round(restart_offset, 3),
            "queries": n,
            "recovery_hit_rate_advantage": round(
                after_hit["repair"] - after_hit["cold"], 6
            ),
            # Acceptance check: repair+handoff recovers the warm hit
            # rate measurably faster than a cold restart.
            "warm_recovery_faster": after_hit["repair"] > after_hit["cold"],
        }
    )
    return result
