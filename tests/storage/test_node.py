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
def rig():
    sim = Simulator()
    config = StashConfig(cluster=ClusterConfig(num_nodes=2, workers_per_node=2))
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
