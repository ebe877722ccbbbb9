"""Client-graph cache-correctness regressions.

Three fixes pinned here:

* a degraded (completeness < 1) server reply omits the cells it could not
  resolve — the client mini graph must *not* cache those keys as
  known-empty, or every later client-local answer silently drops data;
* the client mini graph must adopt the cluster's configured resolution
  space, not a hardcoded default, so client-side drill/roll level
  arithmetic matches the server's;
* a partial (``run_cells``) request retries and degrades under a fault
  schedule exactly like a whole one, so a session with a client graph
  survives a crashed coordinator.
"""

import numpy as np

from repro.client.session import ExplorationSession
from repro.config import (
    ClusterConfig,
    FaultConfig,
    ObservabilityConfig,
    StashConfig,
)
from repro.core.cluster import StashCluster
from repro.data.generator import small_test_dataset
from repro.data.statistics import SummaryVector
from repro.faults.schedule import FaultEvent
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution, ResolutionSpace
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import QueryResult

DAY = TimeKey.of(2013, 2, 2)
VIEWPORT = BoundingBox(32, 40, -112, -102)


class _FakeSim:
    now = 0.0


class HalfAnsweringBackend:
    """Serves only the first half of any footprint.

    With ``complete=True`` the other half is genuinely empty (a full
    answer); with ``complete=False`` it is *unresolved* and the reply is
    flagged degraded.  No ``run_cells`` attribute, so the session takes
    the full-query fallback path.
    """

    def __init__(self, complete: bool):
        self.attribute_names = ["temperature"]
        self.complete = complete
        self.sim = _FakeSim()
        self.queries = 0

    def run_query(self, query) -> QueryResult:
        self.queries += 1
        footprint = query.footprint()
        answered = footprint[: len(footprint) // 2]
        vec = SummaryVector.from_arrays({"temperature": np.array([20.0])})
        return QueryResult(
            query=query,
            cells={key: vec for key in answered},
            latency=0.01,
            completeness=1.0 if self.complete else len(answered) / len(footprint),
        )


def make_session(system, cache=10_000):
    return ExplorationSession(
        system,
        viewport=VIEWPORT,
        day=DAY,
        resolution=Resolution(3, TemporalResolution.DAY),
        client_cache_cells=cache,
    )


class TestDegradedAnswerCaching:
    def test_degraded_reply_skips_unresolved_keys(self):
        backend = HalfAnsweringBackend(complete=False)
        session = make_session(backend)
        result = session.refresh()
        footprint = session.current_query().footprint()
        answered = set(footprint[: len(footprint) // 2])
        assert result.completeness < 1.0
        for key in footprint:
            if key in answered:
                assert session._graph.contains(key)
            else:
                # Unresolved, not known-empty: must stay uncached.
                assert not session._graph.contains(key)
        assert session.stats.degraded_cells_skipped == len(footprint) - len(answered)

    def test_degraded_keys_are_refetched_next_time(self):
        backend = HalfAnsweringBackend(complete=False)
        session = make_session(backend)
        session.refresh()
        session.refresh()
        # The unresolved half is still missing, so the second refresh
        # cannot be a client-only hit.
        assert backend.queries == 2
        assert session.stats.client_cache_hits == 0

    def test_complete_reply_caches_empties(self):
        backend = HalfAnsweringBackend(complete=True)
        session = make_session(backend)
        session.refresh()
        footprint = session.current_query().footprint()
        for key in footprint:
            assert session._graph.contains(key)
        assert session.stats.degraded_cells_skipped == 0
        second = session.refresh()
        assert backend.queries == 1  # pure client hit
        assert second.latency == 0.0

    def test_degraded_completeness_propagates_to_caller(self):
        backend = HalfAnsweringBackend(complete=False)
        session = make_session(backend)
        result = session.refresh()
        assert result.degraded
        assert 0.0 < result.completeness < 1.0


class TestPartialRequestsUnderACrashedCoordinator:
    """``run_cells`` shares the whole-query client path: timeout, retry
    onto the repaired ring, degraded answer — never a dry simulation."""

    @staticmethod
    def faulted_cluster():
        dataset = small_test_dataset(num_records=5_000, num_days=2)
        nodes = ClusterConfig(num_nodes=4)
        probe = StashCluster(dataset, StashConfig(cluster=nodes))
        query = make_session(probe, cache=0).current_query()
        config = StashConfig(
            cluster=nodes,
            faults=FaultConfig(
                enabled=True,
                schedule=(
                    FaultEvent(
                        kind="crash", at=0.0, node=probe.coordinator_for(query)
                    ),
                ),
                rpc_timeout=0.2,
                evaluate_timeout=1.0,
                max_retries=1,
                backoff_base=0.05,
            ),
            observability=ObservabilityConfig(flight_recorder=True),
        )
        return StashCluster(dataset, config), query

    def test_run_cells_degrades_like_run_query(self):
        cluster, query = self.faulted_cluster()
        whole = cluster.run_query(query)
        cluster, query = self.faulted_cluster()
        partial = cluster.run_cells(query, query.footprint())
        assert partial.degraded and 0.0 < partial.completeness < 1.0
        assert partial.completeness == whole.completeness
        assert partial.cells == whole.cells and partial.cells
        assert cluster.fault_counters.get("client_retries") == 1

    def test_run_cells_records_exactly_one_terminal_outcome(self):
        cluster, query = self.faulted_cluster()
        cluster.run_cells(query, query.footprint())
        report = cluster.recorder.report()
        assert report["queries"] == 1
        assert report["outcomes"] == {"ok": 0, "degraded": 1, "failed": 0}

    def test_session_over_the_real_cluster_skips_unresolved_keys(self):
        cluster, _ = self.faulted_cluster()
        session = make_session(cluster)
        result = session.refresh()
        assert result.degraded and result.cells
        footprint = session.current_query().footprint()
        # A degraded reply cannot tell an unresolved key from an empty
        # one, so every key it omits stays out of the client graph.
        cached = {k for k in footprint if session._graph.contains(k)}
        assert cached == set(result.cells)
        skipped = session.stats.degraded_cells_skipped
        assert skipped == len(footprint) - len(cached)
        assert skipped >= result.provenance["cells_unresolved"] > 0


class TestClientResolutionSpace:
    def test_client_graph_adopts_cluster_space(self):
        dataset = small_test_dataset(num_records=2_000)
        narrow = ResolutionSpace(2, 6)
        cluster = StashCluster(
            dataset,
            StashConfig(cluster=ClusterConfig(num_nodes=4)),
            space=narrow,
        )
        session = make_session(cluster)
        assert session._graph.space is cluster.space
        assert session._graph.space.min_spatial == 2
        assert session._graph.space.max_spatial == 6

    def test_engines_without_space_fall_back_to_default(self):
        backend = HalfAnsweringBackend(complete=True)  # no .space attribute
        session = make_session(backend)
        assert session._graph.space == ResolutionSpace(1, 8)

    def test_client_levels_match_server_levels(self):
        dataset = small_test_dataset(num_records=2_000)
        cluster = StashCluster(
            dataset,
            StashConfig(cluster=ClusterConfig(num_nodes=4)),
            space=ResolutionSpace(2, 6),
        )
        cluster.start()
        session = make_session(cluster)
        key = session.current_query().footprint()[0]
        server_graph = cluster.owner_node(key).graph
        assert session._graph.level_of(key) == server_graph.level_of(key)
