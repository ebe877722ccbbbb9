"""Gossip membership end-to-end: identity, convergence, repair, handoff."""

import pytest

from repro.config import (
    ClusterConfig,
    FaultConfig,
    GossipConfig,
    StashConfig,
)
from repro.core.cell import Cell
from repro.core.cluster import StashCluster
from repro.data.generator import small_test_dataset
from repro.faults.schedule import FaultSchedule
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery
from tests.reference import slot_maps_mirror_levels

#: Tight timings so detect -> suspect -> dead -> repair fits test time.
FAST_GOSSIP = GossipConfig(
    enabled=True,
    interval=0.05,
    suspect_after=0.2,
    dead_after=0.2,
)
FAST_FAULTS = FaultConfig(
    enabled=True,
    rpc_timeout=0.2,
    evaluate_timeout=1.0,
    max_retries=1,
    backoff_base=0.05,
)


@pytest.fixture(scope="module")
def dataset():
    return small_test_dataset(num_records=6_000)


def base_query(i: int = 0) -> AggregationQuery:
    return AggregationQuery(
        bbox=BoundingBox(33, 37, -108, -100),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(3, TemporalResolution.DAY),
    ).panned(0.02 * (i % 5), 0.02 * (i % 5))


def cluster(dataset, gossip=None, faults=None, schedule=None, nodes=4):
    if schedule is not None:
        faults = FaultConfig(
            enabled=True,
            schedule=tuple(schedule),
            rpc_timeout=0.2,
            evaluate_timeout=1.0,
            max_retries=1,
            backoff_base=0.05,
        )
    config = StashConfig(
        cluster=ClusterConfig(num_nodes=nodes),
        gossip=gossip if gossip is not None else GossipConfig(),
        faults=faults if faults is not None else FaultConfig(),
    )
    return StashCluster(dataset, config)


class TestOneViewTwoWirings:
    """``gossip.enabled`` picks how many instances, never which class."""

    def test_disabled_is_one_shared_instance_and_no_agents(self, dataset):
        system = cluster(dataset, nodes=4)
        system.start()
        views = [system.membership, system.client.membership]
        views += [system.memberships[n] for n in system.node_ids]
        views += [node.membership for node in system.nodes.values()]
        assert len({id(view) for view in views}) == 1
        assert sorted(system.memberships) == sorted(system.node_ids + ["client"])
        assert system.gossip_agents == {}
        assert not any(e.startswith("gossip:") for e in system.network.node_ids)

    def test_enabled_is_one_view_per_participant(self, dataset):
        system = cluster(dataset, gossip=FAST_GOSSIP, nodes=4)
        system.start()
        assert len({id(view) for view in system.memberships.values()}) == 4 + 1
        assert {type(view) for view in system.memberships.values()} == {
            type(cluster(dataset).membership)
        }
        for node_id, node in system.nodes.items():
            assert node.membership is system.memberships[node_id]
            assert node.membership.owner_id == node_id
        assert system.client.membership is system.memberships["client"]
        assert sorted(system.gossip_agents) == sorted(system.memberships)
        assert f"gossip:{system.node_ids[0]}" in system.network.node_ids

    def test_shared_view_crash_restart_restores_the_base_map(self, dataset):
        # With one shared instance the restarted node's revive *is* the
        # cluster-wide announcement (no agent, no rejoin round).
        schedule = FaultSchedule.crash_restart("node-1", 0.1, 0.6)
        system = cluster(dataset, schedule=schedule)
        system.start()
        system.membership.declare_dead("node-1")
        assert system.nodes["node-0"].membership.dead_nodes() == ["node-1"]
        system.sim.run(until=1.0)
        assert system.membership.dead_nodes() == []
        assert system.membership.partitioner is system.partitioner


class TestByteIdentity:
    def test_gossip_without_faults_is_invisible(self, dataset):
        """Gossip on + empty schedule == shared-membership baseline.

        Gossip traffic rides dedicated ``gossip:*`` endpoints and daemon
        timers, so query results, latencies, and provenance must be
        byte-identical to a run with the layer off.
        """
        queries = [base_query(i) for i in range(12)]
        plain = cluster(dataset)
        with_gossip = cluster(dataset, gossip=FAST_GOSSIP)
        a = plain.run_open_loop(queries, rate=20.0, seed=11)
        b = with_gossip.run_open_loop(queries, rate=20.0, seed=11)
        plain.drain()
        with_gossip.drain()
        assert len(a) == len(b) == len(queries)
        for x, y in zip(a, b):
            assert x.latency == y.latency
            assert x.provenance == y.provenance
            assert x.cells.keys() == y.cells.keys()
            for key in x.cells:
                assert x.cells[key] == y.cells[key]
            assert y.completeness == 1.0
        # Gossip actually ran — it just didn't perturb anything.
        assert sum(a.rounds for a in with_gossip.gossip_agents.values()) > 0

    def test_gossip_run_is_deterministic(self, dataset):
        queries = [base_query(i) for i in range(8)]
        runs = []
        for _ in range(2):
            system = cluster(dataset, gossip=FAST_GOSSIP)
            results = system.run_open_loop(queries, rate=20.0, seed=4)
            system.drain()
            runs.append(results)
        for x, y in zip(*runs):
            assert x.latency == y.latency
            assert x.provenance == y.provenance


class TestConvergence:
    def test_views_converge_on_crash_and_rejoin(self, dataset):
        from repro.faults.gossip import view_divergence

        target = "node-1"
        schedule = FaultSchedule.crash_restart(target, 0.5, 2.5)
        system = cluster(dataset, gossip=FAST_GOSSIP, schedule=schedule)
        system.start()
        # Let gossip converge on the death (crash at 0.5, detect by
        # aging ~0.4s later, spread in O(log n) rounds).
        system.sim.run(until=system.sim.timeout(2.0))
        views = [system.memberships[n] for n in system.node_ids]
        survivors = [v for v in views if v.owner_id != target]
        for view in survivors:
            assert not view.is_live(target), view.owner_id
        assert view_divergence(survivors) == 0
        # After the restart the rejoin spreads the same way.
        system.sim.run(until=system.sim.timeout(2.5))
        for view in views:
            assert view.is_live(target), view.owner_id
        assert view_divergence(views) == 0
        assert system.membership.is_live(target)  # client's view too

    def test_queries_survive_churn_under_gossip(self, dataset):
        queries = [base_query(i) for i in range(30)]
        probe = cluster(dataset)
        target = probe.coordinator_for(queries[0])
        schedule = FaultSchedule.crash_restart(target, 0.5, 3.0)
        system = cluster(dataset, gossip=FAST_GOSSIP, schedule=schedule)
        results = system.run_open_loop(queries, rate=5.0, seed=7)
        system.drain()
        assert len(results) == len(queries)
        assert system.fault_counters.get("node_crashes") == 1
        assert system.fault_counters.get("node_restarts") == 1
        for result in results:
            assert 0.0 <= result.completeness <= 1.0
            if result.degraded:
                assert result.completeness < 1.0
        # Every view healed.
        for view in system.memberships.values():
            assert view.is_live(target)


class TestRepairAndHandoff:
    def warmed_system(self, dataset, gossip):
        system = cluster(dataset, gossip=gossip, faults=FAST_FAULTS)
        system.start()
        # Heat caches (and replicas) with a serial pass.
        for i in range(10):
            system.run_query(base_query(i))
        system.drain()
        return system

    def test_handoff_streams_cells_back_after_rejoin(self, dataset):
        queries = [base_query(i) for i in range(24)]
        probe = cluster(dataset)
        target = probe.coordinator_for(queries[0])
        schedule = FaultSchedule.crash_restart(target, 0.5, 2.5)
        system = cluster(dataset, gossip=FAST_GOSSIP, schedule=schedule)
        system.run_open_loop(queries, rate=8.0, seed=7)
        system.drain()
        # Keep the sim alive past rejoin + handoff.
        system.sim.run(until=system.sim.timeout(2.0))
        counters = system.counters_total()
        assert counters.get("handoff_cells_received", 0) > 0
        # Every node's slot maps stayed consistent through absorb/remove.
        for node in system.nodes.values():
            slot_maps_mirror_levels(node.graph)
            slot_maps_mirror_levels(node.guest)

    def test_guest_cells_promoted_when_survivor_owns_range(self, dataset):
        """With two nodes, the survivor owns everything the dead peer did,
        so every guest replica of the peer's range must be *promoted*."""
        system = cluster(dataset, gossip=FAST_GOSSIP, faults=FAST_FAULTS, nodes=2)
        system.start()
        for i in range(6):
            system.run_query(base_query(i))
        system.drain()
        dead = "node-1"
        survivor = system.nodes["node-0"]
        # Manufacture guest replicas on the survivor: copies of cells the
        # doomed peer owns (what dynamic replication would have seeded).
        donors = [c for c in system.nodes[dead].graph.cells()][:4]
        assert donors, "warm-up cached nothing on the doomed node"
        for cell in donors:
            survivor.guest.upsert(Cell(key=cell.key, summary=cell.summary))
        before = len(survivor.graph)
        # Actually take the peer down (injector-style) — merely rumoring
        # its death would be refuted and the promotion handed back.
        system.network.set_down(dead, True)
        system.nodes[dead].crash()
        system.gossip_agents[dead].crash()
        survivor.membership.declare_dead(dead)
        system.sim.run(until=system.sim.timeout(1.0))
        assert survivor.counters.get("repair_cells_promoted") == len(donors)
        assert len(survivor.graph) == before + len(donors)
        slot_maps_mirror_levels(survivor.graph)

    def test_repair_disabled_is_respected(self, dataset):
        gossip = GossipConfig(
            enabled=True,
            interval=0.05,
            suspect_after=0.2,
            dead_after=0.2,
            repair=False,
        )
        queries = [base_query(i) for i in range(24)]
        probe = cluster(dataset)
        target = probe.coordinator_for(queries[0])
        schedule = FaultSchedule.crash_restart(target, 0.5, 2.5)
        system = cluster(dataset, gossip=gossip, schedule=schedule)
        system.run_open_loop(queries, rate=8.0, seed=7)
        system.drain()
        system.sim.run(until=system.sim.timeout(2.0))
        counters = system.counters_total()
        assert counters.get("repair_cells_promoted", 0) == 0
        assert counters.get("repair_cells_shipped", 0) == 0
        assert counters.get("handoff_cells_received", 0) == 0


class TestNotOwnerProtocol:
    def test_redirect_on_divergent_views(self, dataset):
        """A coordinator with a stale view learns the truth via NOT_OWNER."""
        system = cluster(dataset, gossip=FAST_GOSSIP, faults=FAST_FAULTS)
        system.start()
        query = base_query()
        coordinator = system.coordinator_for(query)
        # Manufacture divergence: the coordinator believes some peer is
        # dead (so it routes that peer's cells elsewhere), while everyone
        # else — including the re-routed target — knows better.
        peer = next(n for n in system.node_ids if n != coordinator)
        view = system.memberships[coordinator]
        view.declare_dead(peer)
        result = system.run_query(query)
        system.drain()
        counters = system.counters_total()
        # Misrouted legs were answered with NOT_OWNER and re-routed;
        # the final answer is complete and correct either way.
        assert counters.get("fetch_not_owner", 0) > 0
        assert counters.get("fetch_redirects", 0) > 0
        assert result.completeness == 1.0
        reference = cluster(dataset).run_query(base_query())
        assert result.matches(reference)
