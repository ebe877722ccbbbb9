"""Integration tests for the basic (no-STASH) distributed system."""

import pytest

from repro.config import ClusterConfig, StashConfig
from repro.data.generator import small_test_dataset
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery
from repro.storage.backend import ground_truth_cells


@pytest.fixture(scope="module")
def dataset():
    return small_test_dataset(num_records=6_000)


@pytest.fixture()
def system(dataset):
    from repro.baselines.basic import BasicSystem

    config = StashConfig(cluster=ClusterConfig(num_nodes=6))
    return BasicSystem(dataset, config)


def make_query(box=None, precision=3):
    return AggregationQuery(
        bbox=box or BoundingBox(30, 45, -115, -95),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(precision, TemporalResolution.DAY),
    )


class TestBasicSystem:
    def test_answers_match_ground_truth(self, system, dataset):
        query = make_query()
        result = system.run_query(query)
        truth = ground_truth_cells(dataset, query)
        assert set(result.cells) == set(truth)
        for key, vec in result.cells.items():
            assert vec.approx_equal(truth[key])

    def test_latency_positive_and_recorded(self, system):
        result = system.run_query(make_query())
        assert result.latency > 0
        series = system.metrics.series["query"]
        assert series.values == [result.latency]
        assert series.times == [system.sim.now]

    def test_no_reuse_between_queries(self, system):
        query = make_query()
        first = system.run_query(query)
        second = system.run_query(make_query())
        # Identical query costs the same with no cache.
        assert second.latency == pytest.approx(first.latency, rel=0.05)

    def test_larger_queries_slower(self, system):
        small = system.run_query(make_query(box=BoundingBox(35, 36, -105, -104)))
        large = system.run_query(make_query(box=BoundingBox(25, 50, -130, -80)))
        assert large.latency > small.latency

    def test_concurrent_matches_serial_results(self, dataset):
        from repro.baselines.basic import BasicSystem

        config = StashConfig(cluster=ClusterConfig(num_nodes=6))
        queries = [
            make_query(box=BoundingBox(30 + i, 40 + i, -110, -100)) for i in range(4)
        ]
        serial = BasicSystem(dataset, config).run_serial(
            [q.panned(0, 0) for q in queries]
        )
        concurrent = BasicSystem(dataset, config).run_concurrent(queries)
        for a, b in zip(serial, concurrent):
            assert set(a.cells) == set(b.cells)

    def test_provenance_counts_disk(self, system):
        result = system.run_query(make_query())
        assert result.provenance["disk_blocks_read"] > 0
        assert result.provenance["cells_from_disk"] == len(result.cells)

    def test_empty_region_returns_no_cells(self, system):
        # Middle of the Pacific — outside the NAM-like domain.
        query = make_query(box=BoundingBox(-10, -5, -170, -165))
        result = system.run_query(query)
        assert result.cells == {}
