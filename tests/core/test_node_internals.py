"""Targeted tests for StashNode internals: guest registry, distress,
handoff edge cases, and the collective-caching property."""

import pytest

from repro.client.session import ExplorationSession
from repro.config import ClusterConfig, ReplicationConfig, StashConfig
from repro.core.cluster import StashCluster
from repro.core.keys import CellKey
from repro.core.node import GuestCliqueRegistry
from repro.data.generator import small_test_dataset
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery

DAY = TimeKey.of(2013, 2, 2)


def key(geohash: str) -> CellKey:
    return CellKey(geohash, DAY)


class TestGuestCliqueRegistry:
    def test_add_and_expire(self):
        registry = GuestCliqueRegistry()
        registry.add(key("9q8y"), [key("9q8y7"), key("9q8yd")], now=0.0)
        assert registry.expired(now=5.0, ttl=10.0) == []
        assert registry.expired(now=11.0, ttl=10.0) == [str(key("9q8y"))]

    def test_touch_refreshes(self):
        registry = GuestCliqueRegistry()
        registry.add(key("9q8y"), [key("9q8y7")], now=0.0)
        registry.touch_covering({key("9q8y7")}, now=9.0)
        assert registry.expired(now=15.0, ttl=10.0) == []
        assert registry.expired(now=20.0, ttl=10.0) == [str(key("9q8y"))]

    def test_touch_ignores_unrelated_keys(self):
        registry = GuestCliqueRegistry()
        registry.add(key("9q8y"), [key("9q8y7")], now=0.0)
        registry.touch_covering({key("zzzz1")}, now=9.0)
        assert registry.expired(now=11.0, ttl=10.0) == [str(key("9q8y"))]

    def test_remove_returns_members(self):
        registry = GuestCliqueRegistry()
        members = [key("9q8y7"), key("9q8yd")]
        registry.add(key("9q8y"), members, now=0.0)
        assert registry.remove(str(key("9q8y"))) == members
        assert registry.entries == {}


class TestDistressProtocol:
    def make_cluster(self, monkeypatch, guest_capacity=100):
        monkeypatch.setattr("repro.core.node.GUEST_CAPACITY", guest_capacity)
        dataset = small_test_dataset(num_records=3_000)
        config = StashConfig(cluster=ClusterConfig(num_nodes=4))
        cluster = StashCluster(dataset, config)
        cluster.start()
        return cluster

    def _distress(self, cluster, node_id, ncells):
        reply = cluster.network.request(
            "client", node_id, "distress", {"ncells": ncells}, size=64
        )
        return cluster.sim.run(until=reply)

    def test_accepts_when_idle_and_room(self, monkeypatch):
        cluster = self.make_cluster(monkeypatch)
        assert self._distress(cluster, "node-0", 50) is True

    def test_rejects_when_guest_full(self, monkeypatch):
        cluster = self.make_cluster(monkeypatch, guest_capacity=10)
        assert self._distress(cluster, "node-0", 50) is False

    def test_accepts_exactly_at_capacity(self, monkeypatch):
        cluster = self.make_cluster(monkeypatch, guest_capacity=50)
        assert self._distress(cluster, "node-0", 50) is True
        assert self._distress(cluster, "node-0", 51) is False


class TestCollectiveCaching:
    """Paper section V-B: "STASH's in-memory cache is collectively built
    through query evaluations from multiple users."""

    def test_one_users_exploration_warms_anothers(self):
        dataset = small_test_dataset(num_records=5_000)
        cluster = StashCluster(
            dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        viewport = BoundingBox(32, 40, -112, -102)
        alice = ExplorationSession(
            cluster, viewport=viewport, day=DAY,
            resolution=Resolution(3, TemporalResolution.DAY),
        )
        bob = ExplorationSession(
            cluster, viewport=viewport, day=DAY,
            resolution=Resolution(3, TemporalResolution.DAY),
        )
        alice_result = alice.refresh()
        cluster.drain()
        bob_result = bob.refresh()
        # Bob's identical viewport is a pure cache hit on the server.
        assert bob_result.provenance["cells_from_disk"] == 0
        assert bob_result.latency < alice_result.latency / 3
        assert bob_result.matches(alice_result)

    def test_partial_overlap_across_users(self):
        dataset = small_test_dataset(num_records=5_000)
        cluster = StashCluster(
            dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        alice = ExplorationSession(
            cluster, viewport=BoundingBox(32, 40, -112, -102), day=DAY,
            resolution=Resolution(3, TemporalResolution.DAY),
        )
        bob = ExplorationSession(
            cluster, viewport=BoundingBox(34, 42, -110, -100), day=DAY,
            resolution=Resolution(3, TemporalResolution.DAY),
        )
        alice.refresh()
        cluster.drain()
        bob_result = bob.refresh()
        assert bob_result.provenance["cells_from_cache"] > 0


class TestGuestFallback:
    def test_guest_fallback_still_correct(self, monkeypatch):
        """A rerouted query whose replica was purged falls back to a full
        evaluation at the helper and still answers correctly."""
        from repro.storage.backend import ground_truth_cells

        monkeypatch.setattr("repro.core.node.ROUTING_TTL", 1e9)
        dataset = small_test_dataset(num_records=5_000)
        config = StashConfig(
            cluster=ClusterConfig(num_nodes=4),
            replication=ReplicationConfig(
                hotspot_queue_threshold=4,
                cooldown=0.1,
                reroute_probability=1.0,
                guest_ttl=1e9,
            ),
        )
        cluster = StashCluster(dataset, config)
        query = AggregationQuery(
            bbox=BoundingBox(35, 36, -106, -104),
            time_range=DAY.epoch_range(),
            resolution=Resolution(4, TemporalResolution.DAY),
        )
        cluster.warm([query.panned(0, 0)])
        clones = [query.panned(0, 0) for _ in range(40)]
        cluster.run_concurrent(clones)
        counts = cluster.counters_total()
        if counts.get("queries_rerouted", 0) == 0:
            pytest.skip("no reroute happened at this scale")
        # Purge every guest graph, then fire more rerouted queries.
        for node in cluster.nodes.values():
            for cell in list(node.guest.cells()):
                node.guest.remove(cell.key)
            node.guest_cliques.entries.clear()
        results = cluster.run_concurrent([query.panned(0, 0) for _ in range(10)])
        truth = ground_truth_cells(dataset, query)
        for result in results:
            assert set(result.cells) == set(truth)
