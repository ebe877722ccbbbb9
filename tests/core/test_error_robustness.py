"""Failure-path robustness: one bad request must not wound the cluster."""

import pytest

from repro.config import ClusterConfig, StashConfig
from repro.core.cluster import StashCluster
from repro.data.generator import small_test_dataset
from repro.errors import QueryError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery
from tests.reference import global_box


@pytest.fixture()
def cluster():
    dataset = small_test_dataset(num_records=4_000)
    return StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))


def good_query():
    return AggregationQuery(
        bbox=BoundingBox(32, 40, -112, -102),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(3, TemporalResolution.DAY),
    )


def oversized_query():
    """A footprint beyond MAX_FOOTPRINT_CELLS: global box at precision 8."""
    return AggregationQuery(
        bbox=global_box(),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(8, TemporalResolution.DAY),
    )


class TestRequestFailureIsolation:
    def test_oversized_query_raises_to_client(self, cluster):
        with pytest.raises(QueryError, match="footprint"):
            cluster.run_query(oversized_query())

    def test_cluster_survives_bad_request(self, cluster):
        with pytest.raises(QueryError):
            cluster.run_query(oversized_query())
        # The worker that hit the error is still alive and serving.
        result = cluster.run_query(good_query())
        assert result.cells
        counts = cluster.counters_total()
        assert counts.get("errors:evaluate", 0) == 1

    def test_many_bad_requests_then_good(self, cluster):
        for _ in range(5):
            with pytest.raises(QueryError):
                cluster.run_query(oversized_query())
        results = cluster.run_serial([good_query() for _ in range(3)])
        assert all(r.cells for r in results)

    def test_concurrent_mix_of_good_and_bad(self, cluster):
        cluster.start()
        good = [cluster.submit(good_query()) for _ in range(3)]
        bad = cluster.submit(oversized_query())

        def guard():
            # Registered before the simulation runs, so the failure has a
            # waiter the moment it fires.
            try:
                yield bad
            except QueryError:
                return "failed"
            return "unexpected success"

        guard_process = cluster.sim.process(guard())
        ok = cluster.sim.run(until=cluster.sim.all_of(good))
        verdict = cluster.sim.run(until=guard_process)
        assert verdict == "failed"
        assert len(ok) == 3
        assert all(r.cells for r in ok)
