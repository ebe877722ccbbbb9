"""Tests for the storage node server process (worker pools, dispatch)."""

import pytest

from repro.config import ClusterConfig, StashConfig
from repro.data.generator import small_test_dataset
from repro.dht.partitioner import PrefixPartitioner
from repro.errors import StorageError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.storage.backend import StorageCatalog
from repro.storage.node import StorageNode

NODES = ["node-0", "node-1"]


@pytest.fixture()
def rig(monkeypatch):
    monkeypatch.setattr("repro.storage.node.WORKERS_PER_NODE", 2)
    sim = Simulator()
    config = StashConfig(cluster=ClusterConfig(num_nodes=2))
    partitioner = PrefixPartitioner(NODES, 2)
    catalog = StorageCatalog(partitioner, block_precision=3)
    catalog.ingest(small_test_dataset(num_records=3_000))
    network = Network(sim, config.cost)
    network.register("client")
    nodes = {
        node_id: StorageNode(sim, network, catalog, node_id, config)
        for node_id in NODES
    }
    for node in nodes.values():
        node.start()
    return sim, network, catalog, nodes


def make_query():
    return AggregationQuery(
        bbox=BoundingBox(30, 45, -115, -95),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(3, TemporalResolution.DAY),
    )


class TestScanService:
    def test_scan_rpc_round_trip(self, rig):
        sim, network, catalog, nodes = rig
        query = make_query()
        node_id = NODES[0]
        block_ids = [
            b for b in catalog.blocks_for_query(query)
            if catalog.node_of(b) == node_id
        ]
        assert block_ids, "need local blocks for this test"
        reply = network.request(
            "client", node_id, "scan", {"query": query, "block_ids": block_ids}
        )
        cells = sim.run(until=reply)
        assert cells
        assert nodes[node_id].counters.get("blocks_scanned") == len(block_ids)
        assert nodes[node_id].disk.reads == len(block_ids)

    def test_scan_foreign_block_fails(self, rig):
        sim, network, catalog, nodes = rig
        query = make_query()
        foreign = [
            b for b in catalog.blocks_for_query(query)
            if catalog.node_of(b) == NODES[1]
        ]
        reply = network.request(
            "client", NODES[0], "scan", {"query": query, "block_ids": foreign[:1]}
        )
        with pytest.raises(StorageError):
            sim.run(until=reply)

    def test_unknown_kind_fails_rpc(self, rig):
        sim, network, _catalog, _nodes = rig
        reply = network.request("client", NODES[0], "frobnicate", {})
        with pytest.raises(StorageError):
            sim.run(until=reply)

    def test_unknown_kind_without_reply_raises_in_sim(self, rig):
        sim, network, _catalog, _nodes = rig
        network.send("client", NODES[0], "frobnicate", {})
        with pytest.raises(StorageError):
            sim.run()


class TestWorkerPools:
    def test_worker_pool_bounds_concurrency(self, rig):
        sim, network, catalog, nodes = rig
        query = make_query()
        node_id = NODES[0]
        block_ids = [
            b for b in catalog.blocks_for_query(query)
            if catalog.node_of(b) == node_id
        ]
        replies = [
            network.request(
                "client", node_id, "scan", {"query": query, "block_ids": block_ids}
            )
            for _ in range(6)
        ]
        sim.run(until=sim.all_of(replies))
        # With 2 service workers, 6 scans take >= 3 sequential batches
        # of disk time; verify the disk saw all the work.
        assert nodes[node_id].disk.reads == 6 * len(block_ids)

    def test_pending_requests_counts_queued_coordinator_work(self, rig):
        sim, network, _catalog, nodes = rig
        node = nodes[NODES[0]]

        def slow_handler(message):
            yield sim.timeout(10.0)
            network.respond(message, {"cells": {}, "provenance": {}})

        node.register_handler("evaluate", slow_handler)
        replies = [
            network.request("client", NODES[0], "evaluate", {}) for _ in range(10)
        ]
        # Let messages arrive and workers pick up their first jobs.
        sim.run(until=0.01)
        # 2 coordinator workers are busy; 8 requests still pending.
        assert node.pending_requests == 8
        sim.run(until=sim.all_of(replies))
        assert node.pending_requests == 0

    def test_coordinator_and_service_kinds_split(self):
        from repro.storage.node import COORDINATOR_KINDS

        assert "evaluate" in COORDINATOR_KINDS
        assert "scan" not in COORDINATOR_KINDS
        assert "fetch_cells" not in COORDINATOR_KINDS


class TestMembershipView:
    def test_node_built_without_a_view_gets_its_own(self, rig):
        """``membership is None`` is not a reachable state."""
        from repro.faults.membership import Membership

        _sim, _network, catalog, nodes = rig
        views = [node.membership for node in nodes.values()]
        assert all(type(view) is Membership for view in views)
        assert len({id(view) for view in views}) == len(nodes)  # private each
        for view in views:
            assert view.base is catalog.partitioner
            assert view.partitioner is catalog.partitioner
            assert view.live_nodes() == NODES


class TestHandlerReplies:
    """A handler returns its reply; the node sends it, once."""

    def test_returned_reply_answers_the_caller_at_its_declared_size(self, rig):
        sim, network, _catalog, nodes = rig

        def handler(message):
            yield sim.timeout(0.0)
            return {"ok": message.payload}, 8

        nodes[NODES[0]].register_handler("probe", handler)
        before = network.bytes_sent
        reply = network.request("client", NODES[0], "probe", 1, size=100)
        assert sim.run(until=reply) == {"ok": 1}
        assert network.bytes_sent - before == 100 + 8

    def test_handler_that_responds_itself_is_answered_exactly_once(self, rig):
        sim, network, _catalog, nodes = rig

        def handler(message):
            yield sim.timeout(0.0)
            network.respond(message, "mine", size=8)

        nodes[NODES[0]].register_handler("probe", handler)
        before = network.messages_sent
        reply = network.request("client", NODES[0], "probe", {})
        assert sim.run(until=reply) == "mine"
        sim.run()  # a second reply would re-trigger the event and raise here
        assert network.messages_sent - before == 2  # the request, one reply

    def test_one_way_message_with_no_reply_sends_nothing_back(self, rig):
        sim, network, _catalog, nodes = rig
        seen = []

        def handler(message):
            yield sim.timeout(0.0)
            seen.append(message.payload)

        nodes[NODES[0]].register_handler("note", handler)
        before = network.messages_sent
        network.send("client", NODES[0], "note", "fyi")
        sim.run()
        assert seen == ["fyi"]
        assert network.messages_sent - before == 1


class TestScatter:
    """``_scatter``: legs in, replies in leg order out."""

    IDS = ["node-0", "node-1", "node-2"]

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr("repro.storage.node.WORKERS_PER_NODE", 2)

    def _rig(self, faults=False):
        from repro.config import FaultConfig

        sim = Simulator()
        config = StashConfig(
            cluster=ClusterConfig(num_nodes=3),
            faults=FaultConfig(enabled=faults, rpc_timeout=0.5, max_retries=0),
        )
        catalog = StorageCatalog(PrefixPartitioner(self.IDS, 2), block_precision=3)
        network = Network(sim, config.cost)
        nodes = [StorageNode(sim, network, catalog, n, config) for n in self.IDS]
        for node in nodes:
            def where(message, node=node):
                # Slower on later nodes, so arrival order != leg order.
                yield sim.timeout(0.1 * (3 - self.IDS.index(node.node_id)))
                return (node.node_id, message.payload), 8

            node.register_handler("where", where)
            node.start()
        return sim, network, nodes[1]

    def _scatter(self, sim, node, legs):
        def local(payload):
            yield sim.timeout(0.05)
            return ("local", payload)

        return sim.run(
            until=sim.process(node._scatter("where", legs, local))
        )

    def test_replies_in_leg_order_and_local_leg_off_the_network(self):
        sim, network, node = self._rig()
        legs = [(n, f"p{i}", 16) for i, n in enumerate(self.IDS)]
        replies = self._scatter(sim, node, legs)
        assert replies == [("node-0", "p0"), ("local", "p1"), ("node-2", "p2")]
        # Two remote legs, a request and a reply each; nothing for node-1.
        assert network.messages_sent == 4
        assert node.counters.get("handled:where") == 0

    def test_no_legs_is_an_empty_list(self):
        sim, network, node = self._rig()
        assert self._scatter(sim, node, []) == []
        assert network.messages_sent == 0

    def test_leg_to_a_downed_node_is_the_rpc_sentinel(self):
        from repro.faults.membership import RPC_FAILED

        sim, network, node = self._rig(faults=True)
        network.set_down("node-2")
        legs = [(n, f"p{i}", 16) for i, n in enumerate(self.IDS)]
        replies = self._scatter(sim, node, legs)
        assert replies[:2] == [("node-0", "p0"), ("local", "p1")]
        assert replies[2] is RPC_FAILED
        assert not node.membership.is_live("node-2")
