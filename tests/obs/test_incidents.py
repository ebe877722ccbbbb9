"""Golden capture of every RPC incident, pinned byte for byte.

Seeded fault, gossip, overload and hotspot scenarios run with tracing
and the flight recorder on.  Each run is reduced to SHA-256 digests of
the recorder's event list, the trace structure, the Chrome trace, the
client's and every node's counters in first-seen order, and the query
results.  A change to how incidents are counted, recorded or traced —
or to the retry loop that raises most of them — must leave every digest
unchanged.

Query ids are fixed per scenario: the process-global id counter would
otherwise make a digest depend on which tests ran first.  Print fresh
digests with ``PYTHONPATH=src python -m tests.obs.test_incidents``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.config import (
    ClusterConfig,
    FaultConfig,
    GossipConfig,
    ObservabilityConfig,
    OverloadConfig,
    ReplicationConfig,
    StashConfig,
)
from repro.core.cluster import StashCluster
from repro.data.generator import small_test_dataset
from repro.dht.partitioner import PrefixPartitioner
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.obs.export import to_chrome_trace
from repro.query.model import AggregationQuery
from repro.system import CLIENT_ID, coordinator_for

#: Every incident name ``src/`` writes; ``shed:*`` is one name per kind.
INCIDENTS = (
    "shed:*",
    "rpc_failfast",
    "rpc_timeout",
    "rpc_retry",
    "peer_declared_dead",
    "rpc_failed",
    "guest_fallback",
    "rerouted_to_replica",
    "breaker_degraded",
    "cells_unresolved",
    "fetch_leg_shed",
    "fetch_leg_failed",
    "scan_leg_shed",
    "scan_leg_failed",
    "force_serve",
    "redirect",
    "degraded_answer",
    "client_timeout",
    "coordinator_declared_dead",
    "client_retry",
    "client_gave_up",
)

FAST_FAULTS = dict(
    enabled=True, rpc_timeout=0.2, evaluate_timeout=1.0, max_retries=1,
    backoff_base=0.05,
)
FAST_GOSSIP = GossipConfig(
    enabled=True, interval=0.05, suspect_after=0.2, dead_after=0.2
)
WEST = BoundingBox(33, 37, -108, -100)
EAST = BoundingBox(25, 30, -85, -80)


def _query(query_id: int, box: BoundingBox = WEST, precision: int = 3,
           shift: float = 0.0) -> AggregationQuery:
    query = AggregationQuery(
        bbox=box,
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(precision, TemporalResolution.DAY),
    ).panned(shift, shift)
    return dataclasses.replace(query, query_id=query_id)


def _pans(n: int, **kwargs) -> list[AggregationQuery]:
    return [_query(i, shift=0.02 * (i % 5), **kwargs) for i in range(n)]


def _config(nodes: int = 4, **sections) -> StashConfig:
    return StashConfig(
        cluster=ClusterConfig(num_nodes=nodes),
        observability=ObservabilityConfig(trace=True, flight_recorder=True),
        **sections,
    )


def _owner(query: AggregationQuery, nodes: int = 4) -> str:
    partitioner = PrefixPartitioner(
        [f"node-{i}" for i in range(nodes)], ClusterConfig().partition_precision
    )
    return coordinator_for(partitioner, query)


def _faults(*events: FaultEvent, **overrides) -> FaultConfig:
    return FaultConfig(**{**FAST_FAULTS, **overrides}, schedule=tuple(events))


# -- scenarios: each returns (system, results) -------------------------------


def crash_restart(dataset):
    queries = _pans(16)
    schedule = FaultSchedule.crash_restart(_owner(queries[0]), 0.3, 1.5)
    system = StashCluster(dataset, _config(faults=_faults(*schedule)))
    results = system.run_open_loop(queries, rate=8.0, seed=7)
    system.drain()
    return system, results


def gossip_redirect(dataset):
    """A coordinator whose view wrongly holds a peer dead: NOT_OWNER
    redirects until the leg is force-served."""
    system = StashCluster(
        dataset, _config(gossip=FAST_GOSSIP, faults=_faults())
    )
    system.start()
    query = _query(0)
    coordinator = system.coordinator_for(query)
    peer = next(n for n in system.node_ids if n != coordinator)
    system.memberships[coordinator].declare_dead(peer)
    results = [system.run_query(query)]
    system.drain()
    return system, results


def client_gives_up(dataset):
    """Three of four nodes die for good; jittered client retries run out."""
    crashes = [
        FaultEvent(kind="crash", at=0.05, node=f"node-{i}") for i in (0, 1, 2)
    ]
    system = StashCluster(
        dataset,
        _config(
            faults=_faults(
                *crashes, evaluate_timeout=0.5, max_retries=2, backoff_jitter=0.2
            )
        ),
    )
    results = system.run_open_loop(_pans(6), rate=20.0, seed=3)
    system.drain()
    return system, results


def breaker_flood(dataset):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.faults.overload.BREAKER_SHEDS", 4)
        mp.setattr("repro.faults.overload.BREAKER_WINDOW", 2.0)
        mp.setattr("repro.faults.overload.BREAKER_COOLDOWN", 1.0)
        system = StashCluster(
            dataset,
            _config(
                faults=FaultConfig(enabled=True, rpc_timeout=0.5, max_retries=1),
                overload=OverloadConfig(enabled=True, queue_limit=2),
            ),
        )
        results = system.run_open_loop(_pans(30), rate=400.0, seed=5)
        system.drain()
    return system, results


def shed_flood(dataset):
    """Two interleaved hotspots at 5 000/s: fetch legs land on deep queues."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.faults.overload.BREAKER_SHEDS", 10_000)
        system = StashCluster(
            dataset,
            _config(
                faults=FaultConfig(enabled=True, rpc_timeout=0.5, max_retries=1),
                overload=OverloadConfig(enabled=True, queue_limit=1),
            ),
        )
        queries = [
            _query(i, EAST if i % 2 else WEST, precision=4, shift=0.02 * (i % 5))
            for i in range(60)
        ]
        results = system.run_open_loop(queries, rate=5_000.0, seed=5)
        system.drain()
    return system, results


def hotspot_reroute(dataset):
    """An 8-node warmed hotspot: cliques hand off, queries reroute."""
    replication = ReplicationConfig(
        hotspot_queue_threshold=8, cooldown=0.5, clique_depth=2,
        max_replicated_cells=5_000, top_k_cliques=4, reroute_probability=0.8,
        guest_ttl=1e6,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.core.node.ROUTING_TTL", 1e6)
        system = StashCluster(
            dataset, _config(nodes=8, faults=_faults(), replication=replication)
        )
    rng = np.random.default_rng(5)
    base = AggregationQuery(
        bbox=BoundingBox.from_center(36.0, -100.0, 1.0, 1.0),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(4, TemporalResolution.DAY),
    )
    queries = [
        dataclasses.replace(
            base.panned(float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.1, 0.1))),
            query_id=i,
        )
        for i in range(100)
    ]
    system.warm(queries[:2])
    results = system.run_concurrent(queries)
    system.drain()
    return system, results


def drop_link_crash(dataset):
    """A dropped link times legs out until the peer is declared dead,
    and a crashed node's scan legs fail outright."""
    queries = _pans(8)
    coordinator = _owner(queries[0])
    others = [f"node-{i}" for i in range(4) if f"node-{i}" != coordinator]
    schedule = [
        FaultEvent(kind="drop_link", at=0.0, until=1e9, src=coordinator, dst=others[0]),
        FaultEvent(kind="crash", at=0.0, node=others[1]),
    ]
    system = StashCluster(dataset, _config(faults=_faults(*schedule)))
    results = system.run_serial(queries)
    system.drain()
    return system, results


def guest_fallback(dataset):
    """A rerouted query reaching an empty guest graph falls back."""
    system = StashCluster(dataset, _config(faults=_faults()))
    system.start()
    query = _query(0)
    reply = system.network.request(
        CLIENT_ID,
        "node-0",
        "evaluate_guest",
        {"query": query, "ctx": system.recorder.context(query.query_id)},
        size=512,
    )
    system.sim.run(until=reply)
    system.drain()
    return system, []


def scan_leg_shed(dataset):
    """Every node but the coordinator sheds scans: the scan legs come back
    ``RPC_SHED``."""
    system = StashCluster(
        dataset,
        _config(faults=_faults(), overload=OverloadConfig(enabled=True)),
    )
    query = _query(0, BoundingBox(25, 37, -108, -80))
    coordinator = system.coordinator_for(query)
    system.start()
    for node_id, node in system.nodes.items():
        if node_id != coordinator:
            node.overload.shed_class = lambda kind, depth: kind == "scan"
    results = [system.run_query(query)]
    system.drain()
    return system, results


SCENARIOS = {
    scenario.__name__: scenario
    for scenario in (
        crash_restart,
        gossip_redirect,
        client_gives_up,
        breaker_flood,
        shed_flood,
        hotspot_reroute,
        drop_link_crash,
        guest_fallback,
        scan_leg_shed,
    )
}


def _digest(value) -> str:
    text = json.dumps(value, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def capture(system, results) -> dict[str, str]:
    """The digests one scenario run is pinned by."""
    counters = [[CLIENT_ID, list(system.fault_counters.items())]] + [
        [node_id, list(node.counters.items())]
        for node_id, node in sorted(system.nodes.items())
    ]
    return {
        "events": _digest([event.to_dict() for event in system.recorder.events]),
        "structure": _digest(system.tracer.structure()),
        "chrome": _digest(to_chrome_trace(system.tracer)),
        "counters": _digest(counters),
        "results": _digest(
            [[r.latency, r.completeness, len(r.cells)] for r in results]
        ),
    }


#: The pinned digests; the same under any ``PYTHONHASHSEED``.
DIGESTS: dict[str, dict[str, str]] = {
    "crash_restart": {
        "events": "86eecd300b1a73d8",
        "structure": "ef0d6e59989e4977",
        "chrome": "4255716bf36e6f1c",
        "counters": "95338952fe871420",
        "results": "b7b2f227bdfa9743",
    },
    "gossip_redirect": {
        "events": "9b34a14b1a586df6",
        "structure": "4b8311674e910a85",
        "chrome": "c823b9bc53ae2cac",
        "counters": "96f2acfa4e0d3cbc",
        "results": "b32eca902b53aa2f",
    },
    "client_gives_up": {
        "events": "6521cd7b016e7d7f",
        "structure": "2fa58dca3cc6d361",
        "chrome": "954608ff55c5e5ab",
        "counters": "e2200b44374d21ee",
        "results": "4d264c8c8de79709",
    },
    "breaker_flood": {
        "events": "8aa87a61bb2148e2",
        "structure": "8cfe320913d6bccb",
        "chrome": "fd9bb4d2a1f0e9d6",
        "counters": "f769ffed4b1db3aa",
        "results": "7367ae31eda4dd08",
    },
    "shed_flood": {
        "events": "34d49e335ba83d25",
        "structure": "935cf71254e5d2b6",
        "chrome": "1feaeef6def04e29",
        "counters": "73de5c31577a97fa",
        "results": "281728fa24e89ac5",
    },
    "hotspot_reroute": {
        "events": "8a7e1f1b85f82070",
        "structure": "319cdfaddbcdce2a",
        "chrome": "86bc749198925df1",
        "counters": "27ab96df7a9e0546",
        "results": "764e0ede619fd680",
    },
    "drop_link_crash": {
        "events": "c2ca90be590d0829",
        "structure": "2b7fea9eb3661929",
        "chrome": "e532f1f2b1e84f1e",
        "counters": "c92cb81adcf2024b",
        "results": "43ad58b8ea1e8abc",
    },
    "guest_fallback": {
        "events": "83d1b746c366838f",
        "structure": "e49fe7cedbbbafd4",
        "chrome": "a46c7fa16b4f09d8",
        "counters": "23aa3c7a20f0b8cc",
        "results": "4f53cda18c2baa0c",
    },
    "scan_leg_shed": {
        "events": "a2b176a0d8a04830",
        "structure": "271ad64082e0c0d1",
        "chrome": "687e4be02ec9dfd0",
        "counters": "5546d6ce072c2b56",
        "results": "4dfbafc331e76e47",
    },
}


@pytest.fixture(scope="module")
def runs():
    dataset = small_test_dataset(num_records=6_000)
    return {name: scenario(dataset) for name, scenario in SCENARIOS.items()}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden_digests(runs, name):
    assert capture(*runs[name]) == DIGESTS[name]


def test_every_incident_fires(runs):
    fired = {
        "shed:*" if event.name.startswith("shed:") else event.name
        for system, _ in runs.values()
        for event in system.recorder.events
    }
    assert set(INCIDENTS) - fired == set()


if __name__ == "__main__":
    import time

    dataset = small_test_dataset(num_records=6_000)
    for name, scenario in SCENARIOS.items():
        started = time.perf_counter()
        system, results = scenario(dataset)
        names = sorted({e.name for e in system.recorder.events})
        print(f"    {name!r}: {capture(system, results)!r},")
        print(f"    # {time.perf_counter() - started:.2f}s {names}")
