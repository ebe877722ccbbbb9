"""A session passes a degraded (completeness < 1) answer through as-is.

The session keeps nothing between gestures, so a degraded answer cannot
outlive the gesture that got it: the next refresh asks the cluster
again, and a crashed coordinator costs a retry, never a hung session.
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
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import QueryResult

DAY = TimeKey.of(2013, 2, 2)
VIEWPORT = BoundingBox(32, 40, -112, -102)


class HalfAnsweringBackend:
    """Resolves only the first half of any footprint; the reply is
    flagged degraded."""

    def __init__(self):
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
            completeness=len(answered) / len(footprint),
        )


def make_session(system):
    return ExplorationSession(
        system,
        viewport=VIEWPORT,
        day=DAY,
        resolution=Resolution(3, TemporalResolution.DAY),
    )


class TestDegradedAnswers:
    def test_degraded_completeness_propagates_to_caller(self):
        result = make_session(HalfAnsweringBackend()).refresh()
        assert result.degraded
        assert 0.0 < result.completeness < 1.0

    def test_degraded_refresh_asks_again(self):
        backend = HalfAnsweringBackend()
        session = make_session(backend)
        session.refresh()
        assert session.refresh().degraded
        assert backend.queries == 2


class TestSessionUnderACrashedCoordinator:
    """A refresh whose coordinator crashed times out, retries onto the
    repaired ring and comes back degraded — never a dry simulation."""

    @staticmethod
    def faulted_cluster():
        dataset = small_test_dataset(num_records=5_000, num_days=2)
        nodes = ClusterConfig(num_nodes=4)
        probe = StashCluster(dataset, StashConfig(cluster=nodes))
        query = make_session(probe).current_query()
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
        return StashCluster(dataset, config)

    def test_refresh_degrades_after_one_retry(self):
        cluster = self.faulted_cluster()
        result = make_session(cluster).refresh()
        assert result.degraded and 0.0 < result.completeness < 1.0
        assert result.cells
        assert result.provenance["cells_unresolved"] > 0
        assert cluster.fault_counters.get("client_retries") == 1

    def test_refresh_records_exactly_one_terminal_outcome(self):
        cluster = self.faulted_cluster()
        make_session(cluster).refresh()
        report = cluster.recorder.report()
        assert report["queries"] == 1
        assert report["outcomes"] == {"ok": 0, "degraded": 1, "failed": 0}
