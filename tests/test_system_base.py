"""Tests for the shared DistributedSystem scaffolding."""

import pytest

from repro.baselines.basic import BasicSystem
from repro.config import ClusterConfig, StashConfig
from repro.data.generator import small_test_dataset
from repro.errors import QueryError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery


@pytest.fixture(scope="module")
def dataset():
    return small_test_dataset(num_records=4_000)


@pytest.fixture()
def system(dataset):
    return BasicSystem(dataset, StashConfig(cluster=ClusterConfig(num_nodes=5)))


def make_query(center_lon=-105.0):
    return AggregationQuery(
        bbox=BoundingBox.from_center(38.0, center_lon, 4.0, 8.0),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(3, TemporalResolution.DAY),
    )


class TestCoordinatorRouting:
    def test_coordinator_is_center_owner(self, system):
        from repro.geo.geohash import encode

        query = make_query()
        lat, lon = query.bbox.center
        code = encode(lat, lon, system.partitioner.partition_precision)
        assert system.coordinator_for(query) == system.partitioner.node_for(code)

    def test_same_region_same_coordinator(self, system):
        """Geospatial routing concentrates one region on one node —
        the hotspot precondition of paper section VII."""
        query = make_query()
        panned = query.panned(0.05, 0.05)
        assert system.coordinator_for(query) == system.coordinator_for(panned)

    def test_distant_regions_spread(self, system):
        coordinators = {
            system.coordinator_for(make_query(center_lon=lon))
            for lon in (-140.0, -120.0, -100.0, -80.0, -60.0)
        }
        assert len(coordinators) > 1


class TestClientAPI:
    def test_start_idempotent(self, system):
        system.start()
        nodes_before = system.nodes
        system.start()
        assert system.nodes is nodes_before

    def test_run_serial_records_all_latencies(self, system):
        queries = [make_query(center_lon=lon) for lon in (-110, -100, -90)]
        results = system.run_serial(queries)
        assert len(results) == 3
        series = system.metrics.series["query"]
        assert series.values == [r.latency for r in results]
        assert len(series.times) == 3

    def test_run_concurrent_returns_in_submission_order(self, system):
        queries = [make_query(center_lon=lon) for lon in (-110, -100, -90)]
        results = system.run_concurrent(queries)
        for query, result in zip(queries, results):
            assert result.query.query_id == query.query_id

    def test_concurrent_is_not_slower_than_sum_of_serial(self, dataset):
        config = StashConfig(cluster=ClusterConfig(num_nodes=5))
        queries = [make_query(center_lon=lon) for lon in (-110, -100, -90)]
        serial = BasicSystem(dataset, config)
        serial.run_serial([q.panned(0, 0) for q in queries])
        serial_total = serial.sim.now
        concurrent = BasicSystem(dataset, config)
        concurrent.run_concurrent([q.panned(0, 0) for q in queries])
        assert concurrent.sim.now <= serial_total

    def test_malformed_reply_raises(self, dataset):
        config = StashConfig(cluster=ClusterConfig(num_nodes=2))
        system = BasicSystem(dataset, config)
        system.start()
        # Sabotage one node's evaluate handler to return a bare value.
        node = next(iter(system.nodes.values()))

        def bad_handler(message):
            node.network.respond(message, "not-a-dict")
            return
            yield  # pragma: no cover - make it a generator

        for other in system.nodes.values():
            other.register_handler("evaluate", bad_handler)
        with pytest.raises(QueryError):
            system.run_query(make_query())


class TestDeterminism:
    def test_identical_runs_identical_latencies(self, dataset):
        config = StashConfig(cluster=ClusterConfig(num_nodes=5))
        queries = [make_query(center_lon=lon) for lon in (-110, -100, -90)]

        def run():
            system = BasicSystem(dataset, config)
            return [r.latency for r in system.run_serial([q.panned(0, 0) for q in queries])]

        assert run() == run()

    def test_stash_runs_deterministic(self, dataset):
        from repro.core.cluster import StashCluster

        config = StashConfig(cluster=ClusterConfig(num_nodes=5))

        def run():
            cluster = StashCluster(dataset, config)
            out = []
            for lon in (-110, -100, -110, -100):
                result = cluster.run_query(make_query(center_lon=lon))
                cluster.drain()
                out.append(round(result.latency, 12))
            return out

        assert run() == run()
