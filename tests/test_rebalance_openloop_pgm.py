"""Tests for elastic rebalance, open-loop arrivals, and PGM rendering."""

import numpy as np
import pytest

from repro.baselines.basic import BasicSystem
from repro.config import ClusterConfig, StashConfig
from repro.data.generator import small_test_dataset
from repro.dht.partitioner import ConsistentHashPartitioner, PrefixPartitioner
from repro.errors import QueryError, StorageError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery
from repro.storage.backend import StorageCatalog

NODES = [f"node-{i}" for i in range(8)]


@pytest.fixture(scope="module")
def dataset():
    return small_test_dataset(num_records=5_000)


def make_query():
    return AggregationQuery(
        bbox=BoundingBox(30, 45, -115, -95),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(3, TemporalResolution.DAY),
    )


class TestRebalance:
    def test_consistent_hash_moves_few_blocks(self, dataset):
        partitioner = ConsistentHashPartitioner(NODES, 2, virtual_nodes=128)
        catalog = StorageCatalog(partitioner, block_precision=3)
        catalog.ingest(dataset)
        shrunk = partitioner.without_node(NODES[3])
        moved, total = catalog.rebalance(shrunk)
        # Only the departed node's blocks move (plus ring jitter).
        assert 0 < moved < total * 0.35

    def test_modulo_rebalance_moves_most(self, dataset):
        catalog = StorageCatalog(PrefixPartitioner(NODES, 2), block_precision=3)
        catalog.ingest(dataset)
        moved, total = catalog.rebalance(PrefixPartitioner(NODES[:-1], 2))
        # Modulo placement reshuffles nearly everything.
        assert moved > total * 0.5

    def test_rebalance_preserves_data(self, dataset):
        partitioner = ConsistentHashPartitioner(NODES, 2, virtual_nodes=64)
        catalog = StorageCatalog(partitioner, block_precision=3)
        catalog.ingest(dataset)
        before = catalog.total_records
        catalog.rebalance(partitioner.without_node(NODES[0]))
        assert catalog.total_records == before
        # Every block is findable on its (new) node.
        for node in catalog.partitioner.node_ids:
            for block_id in catalog.blocks_on(node):
                assert catalog.node_of(block_id) == node
                assert catalog.partitioner.node_for(block_id.geohash) == node

    def test_rebalance_rejects_precision_change(self, dataset):
        catalog = StorageCatalog(PrefixPartitioner(NODES, 2), block_precision=3)
        catalog.ingest(dataset)
        with pytest.raises(StorageError):
            catalog.rebalance(PrefixPartitioner(NODES, 3))


class TestOpenLoopArrivals:
    def test_all_queries_answered(self, dataset):
        system = BasicSystem(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        queries = [make_query().panned(0.1 * i, 0) for i in range(10)]
        results = system.run_open_loop(queries, rate=200.0, seed=1)
        assert len(results) == 10
        assert all(r.latency > 0 for r in results)

    def test_arrivals_spread_over_time(self, dataset):
        system = BasicSystem(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        queries = [make_query().panned(0.1 * i, 0) for i in range(20)]
        system.run_open_loop(queries, rate=50.0, seed=2)
        completions = system.metrics.series["query"].times
        # Mean inter-arrival 20ms: the stream spans a real interval,
        # unlike run_concurrent where everything lands at t~0.
        assert completions[-1] - completions[0] > 0.1

    def test_overload_builds_queueing_delay(self, dataset):
        config = StashConfig(cluster=ClusterConfig(num_nodes=4, workers_per_node=1))
        queries = [make_query().panned(0.05 * i, 0) for i in range(30)]
        relaxed = BasicSystem(dataset, config)
        relaxed.run_open_loop([q.panned(0, 0) for q in queries], rate=5.0, seed=3)
        slammed = BasicSystem(dataset, config)
        slammed.run_open_loop([q.panned(0, 0) for q in queries], rate=5_000.0, seed=3)
        slammed_mean = np.mean(slammed.metrics.series["query"].values)
        relaxed_mean = np.mean(relaxed.metrics.series["query"].values)
        assert slammed_mean > relaxed_mean * 2

    def test_bad_rate(self, dataset):
        system = BasicSystem(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        with pytest.raises(QueryError):
            system.run_open_loop([make_query()], rate=0.0)

    def test_reproducible(self, dataset):
        def run():
            system = BasicSystem(
                dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
            )
            queries = [make_query().panned(0.1 * i, 0) for i in range(8)]
            return [
                r.latency for r in system.run_open_loop(queries, rate=100.0, seed=7)
            ]

        assert run() == run()


class TestPgmRendering:
    def _result(self, dataset):
        from repro.core.cluster import StashCluster

        cluster = StashCluster(
            dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        return cluster.run_query(make_query())

    def test_pgm_header_and_size(self, dataset, tmp_path):
        from repro.client.render import heatmap_grid, render_pgm

        result = self._result(dataset)
        path = tmp_path / "map.pgm"
        render_pgm(result, "temperature", path, pixel_size=4)
        data = path.read_bytes()
        assert data.startswith(b"P5\n")
        header, rest = data.split(b"\n255\n", 1)
        dims = header.split(b"\n")[1].split()
        width, height = int(dims[0]), int(dims[1])
        grid = heatmap_grid(result, "temperature")
        assert (height, width) == (grid.shape[0] * 4, grid.shape[1] * 4)
        assert len(rest) == width * height

    def test_pgm_distinguishes_data_from_void(self, dataset, tmp_path):
        from repro.client.render import render_pgm

        result = self._result(dataset)
        path = tmp_path / "map.pgm"
        render_pgm(result, "temperature", path, pixel_size=1)
        body = path.read_bytes().split(b"\n255\n", 1)[1]
        values = set(body)
        assert 0 in values  # empty cells are black
        assert any(v >= 32 for v in values)  # data cells are visible

    def test_pgm_bad_pixel_size(self, dataset, tmp_path):
        from repro.client.render import render_pgm

        result = self._result(dataset)
        with pytest.raises(QueryError):
            render_pgm(result, "temperature", tmp_path / "x.pgm", pixel_size=0)

    def test_grid_warmer_south(self, dataset):
        from repro.client.render import heatmap_grid

        result = self._result(dataset)
        grid = heatmap_grid(result, "temperature")
        third = max(1, grid.shape[0] // 3)
        top = np.nanmean(grid[:third])
        bottom = np.nanmean(grid[-third:])
        assert bottom > top  # north is on top; south is warmer