"""Open-loop arrivals (``DistributedSystem.run_open_loop``): the driver
itself, on the basic baseline, and STASH's warm caches absorbing overload."""

import numpy as np
import pytest

from repro.baselines.basic import BasicSystem
from repro.config import ClusterConfig, StashConfig
from repro.core.cluster import StashCluster
from repro.data.generator import small_test_dataset
from repro.errors import QueryError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery


@pytest.fixture(scope="module")
def dataset():
    return small_test_dataset(num_records=6_000)


def queries(n):
    base = AggregationQuery(
        bbox=BoundingBox(33, 37, -108, -100),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(3, TemporalResolution.DAY),
    )
    return [base.panned(0.02 * (i % 5), 0.02 * (i % 5)) for i in range(n)]


def make_query():
    return AggregationQuery(
        bbox=BoundingBox(30, 45, -115, -95),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(3, TemporalResolution.DAY),
    )


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

    def test_overload_builds_queueing_delay(self, dataset, monkeypatch):
        monkeypatch.setattr("repro.storage.node.WORKERS_PER_NODE", 1)
        config = StashConfig(cluster=ClusterConfig(num_nodes=4))
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


class TestOpenLoopStash:
    def test_warm_cache_absorbs_burst(self, dataset):
        config = StashConfig(cluster=ClusterConfig(num_nodes=4))
        stream = queries(40)

        cold = StashCluster(dataset, config)
        cold.run_open_loop([q.panned(0, 0) for q in stream], rate=2_000.0, seed=4)
        cold_mean = np.mean(cold.metrics.series["query"].values)

        warm = StashCluster(dataset, config)
        warm.warm([q.panned(0, 0) for q in stream[:5]])
        warmed = len(warm.metrics.series["query"])
        warm.run_open_loop([q.panned(0, 0) for q in stream], rate=2_000.0, seed=4)
        warm_mean = np.mean(warm.metrics.series["query"].values[warmed:])

        # A warm cache keeps service times tiny, so the same burst builds
        # far less queueing delay.
        assert warm_mean < cold_mean * 0.5

    def test_results_correct_under_overload(self, dataset, monkeypatch):
        from repro.storage.backend import ground_truth_cells

        monkeypatch.setattr("repro.storage.node.WORKERS_PER_NODE", 1)
        config = StashConfig(cluster=ClusterConfig(num_nodes=4))
        cluster = StashCluster(dataset, config)
        stream = queries(20)
        results = cluster.run_open_loop(stream, rate=10_000.0, seed=5)
        for result in results[:5]:
            truth = ground_truth_cells(dataset, result.query)
            assert set(result.cells) == set(truth)
