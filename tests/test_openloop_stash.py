"""Open-loop arrivals against STASH: warm caches absorb overload."""

import numpy as np
import pytest

from repro.config import ClusterConfig, StashConfig
from repro.core.cluster import StashCluster
from repro.data.generator import small_test_dataset
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

    def test_results_correct_under_overload(self, dataset):
        from repro.storage.backend import ground_truth_cells

        config = StashConfig(cluster=ClusterConfig(num_nodes=4, workers_per_node=1))
        cluster = StashCluster(dataset, config)
        stream = queries(20)
        results = cluster.run_open_loop(stream, rate=10_000.0, seed=5)
        for result in results[:5]:
            truth = ground_truth_cells(dataset, result.query)
            assert set(result.cells) == set(truth)
