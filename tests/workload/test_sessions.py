"""Tests for the multi-user session stream of the sessions experiment."""

import pytest

from repro.bench.ablations import session_spec, session_stream
from repro.bench.harness import BenchScale
from repro.workload.scale import SessionTable
from tests.reference import boxes_intersect

SCALE = BenchScale.unit()
SPEC = session_spec(SCALE)


@pytest.fixture(scope="module")
def stream():
    return session_stream(SCALE)


@pytest.fixture(scope="module")
def table():
    return SessionTable.synthesize(SPEC)


class TestRandomSession:
    def test_length(self, table):
        for user in range(SPEC.num_users):
            assert len(table.user_queries(user)) == SPEC.session_length

    def test_resolutions_within_range(self, stream):
        lo, hi = SPEC.spatial_range
        for query in stream:
            assert lo <= query.resolution.spatial <= hi

    def test_days_from_pool(self, stream):
        allowed = {d.epoch_range().start for d in SPEC.days}
        for query in stream:
            assert query.time_range.start in allowed

    def test_consecutive_queries_usually_related(self, table):
        """Most gestures keep locality: high overlap or same box."""
        related = total = 0
        for user in range(SPEC.num_users):
            session = table.user_queries(user)
            for a, b in zip(session, session[1:]):
                related += boxes_intersect(a.bbox, b.bbox)
                total += 1
        assert related / total > 0.6

    def test_reproducible(self, stream):
        again = session_stream(SCALE)
        assert [q.bbox for q in again] == [q.bbox for q in stream]


class TestInterleaving:
    def test_total_count(self, stream):
        assert len(stream) == SPEC.num_users * SPEC.session_length

    def test_per_user_order_preserved(self, stream, table):
        # Every user's arrivals, in stream order, are exactly their session.
        users = SPEC.num_users
        for user in range(users):
            session = table.user_queries(user)
            assert [q.bbox for q in stream[user::users]] == [q.bbox for q in session]
            assert [q.kind for q in stream[user::users]] == [q.kind for q in session]
        # ... and consecutive arrivals come from different users.
        assert stream[0].bbox != stream[1].bbox


class TestEndToEnd:
    def test_session_stream_runs_on_stash(self, stream):
        from repro.config import ClusterConfig, StashConfig
        from repro.core.cluster import StashCluster
        from repro.data.generator import small_test_dataset

        dataset = small_test_dataset(num_records=5_000)
        cluster = StashCluster(
            dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        results = cluster.run_serial([q.clone() for q in stream])
        cluster.drain()
        assert len(results) == len(stream)
        counts = cluster.counters_total()
        # Locality in the stream produces real cache traffic.
        assert counts.get("cells_served_from_cache", 0) > 0
        from tests.audit import audit_cluster

        audit_cluster(cluster, value_sample=8)
