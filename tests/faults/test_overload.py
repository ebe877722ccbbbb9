"""Overload protection: admission shedding and the circuit breaker."""

import pytest

from repro.config import (
    ClusterConfig,
    FaultConfig,
    OverloadConfig,
    StashConfig,
)
from repro.core.cluster import StashCluster
from repro.data.generator import small_test_dataset
from repro.faults import overload
from repro.faults.overload import SHED_PRIORITY, OverloadGuard
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery


@pytest.fixture(scope="module")
def dataset():
    return small_test_dataset(num_records=6_000)


def base_query(i: int = 0) -> AggregationQuery:
    return AggregationQuery(
        bbox=BoundingBox(33, 37, -108, -100),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(3, TemporalResolution.DAY),
    ).panned(0.02 * (i % 5), 0.02 * (i % 5))


class TestOverloadGuard:
    def test_shed_thresholds_by_priority(self):
        guard = OverloadGuard(OverloadConfig(queue_limit=10))
        # Priority 0 (background) sheds above queue_limit.
        assert not guard.shed_class("populate", 10)
        assert guard.shed_class("populate", 11)
        assert guard.shed_class("replicate", 11)
        assert guard.shed_class("distress", 11)
        # Priority 1 (cache reads) sheds above twice the limit.
        assert not guard.shed_class("fetch_cells", 20)
        assert guard.shed_class("fetch_cells", 21)
        assert guard.shed_class("scan", 21)

    def test_evaluate_never_shed(self):
        guard = OverloadGuard(OverloadConfig(queue_limit=1))
        assert not guard.shed_class("evaluate", 10_000)
        assert not guard.shed_class("gossip", 10_000)
        assert "evaluate" not in SHED_PRIORITY

    def test_breaker_trips_after_sustained_shedding(self, monkeypatch):
        monkeypatch.setattr(overload, "BREAKER_SHEDS", 3)
        monkeypatch.setattr(overload, "BREAKER_WINDOW", 1.0)
        monkeypatch.setattr(overload, "BREAKER_COOLDOWN", 2.0)
        guard = OverloadGuard(OverloadConfig())
        assert not guard.breaker_open(0.0)
        guard.record_shed(0.0)
        guard.record_shed(0.1)
        assert not guard.breaker_open(0.1)
        guard.record_shed(0.2)
        assert guard.breaker_open(0.2)
        assert guard.breaker_opens == 1
        # Open until now + cooldown.
        assert guard.breaker_open(2.1)
        assert not guard.breaker_open(2.3)

    def test_sheds_outside_window_do_not_trip(self, monkeypatch):
        monkeypatch.setattr(overload, "BREAKER_SHEDS", 3)
        monkeypatch.setattr(overload, "BREAKER_WINDOW", 0.5)
        guard = OverloadGuard(OverloadConfig())
        guard.record_shed(0.0)
        guard.record_shed(1.0)
        guard.record_shed(2.0)
        assert not guard.breaker_open(2.0)
        assert guard.shed_total == 3
        assert guard.breaker_opens == 0


class TestOverloadIntegration:
    def overloaded_cluster(self, dataset, monkeypatch, queue_limit=2):
        monkeypatch.setattr(overload, "BREAKER_SHEDS", 4)
        monkeypatch.setattr(overload, "BREAKER_WINDOW", 2.0)
        monkeypatch.setattr(overload, "BREAKER_COOLDOWN", 1.0)
        config = StashConfig(
            cluster=ClusterConfig(num_nodes=4),
            faults=FaultConfig(enabled=True, rpc_timeout=0.5, max_retries=1),
            overload=OverloadConfig(enabled=True, queue_limit=queue_limit),
        )
        return StashCluster(dataset, config)

    def test_flood_sheds_but_answers_stay_honest(self, dataset, monkeypatch):
        system = self.overloaded_cluster(dataset, monkeypatch)
        queries = [base_query(i) for i in range(40)]
        results = system.run_open_loop(queries, rate=400.0, seed=5)
        system.drain()
        assert len(results) == len(queries)
        counters = system.counters_total()
        # Exact, not "> 0": a change that reorders same-instant events at
        # the dispatch seam (running ``_dispatch`` or ``_answer`` inside
        # its caller) moves these numbers -- it shed 0 and degraded none.
        assert counters.get("requests_shed") == 5
        assert counters.get("shed:populate") == 5
        assert counters.get("breaker_degraded") == 8
        for result in results:
            # Degradation is explicit; completeness is never fabricated.
            assert 0.0 <= result.completeness <= 1.0
        # Telemetry gauges see the shedding.
        assert sum(
            n.overload.shed_total for n in system.nodes.values()
        ) == counters.get("requests_shed", 0)

    def test_disabled_overload_changes_nothing(self, dataset):
        plain = StashCluster(
            dataset, StashConfig(cluster=ClusterConfig(num_nodes=4))
        )
        guarded = StashCluster(
            dataset,
            StashConfig(
                cluster=ClusterConfig(num_nodes=4),
                overload=OverloadConfig(enabled=False),
            ),
        )
        queries = [base_query(i) for i in range(10)]
        a = plain.run_open_loop(queries, rate=50.0, seed=3)
        b = guarded.run_open_loop(queries, rate=50.0, seed=3)
        plain.drain()
        guarded.drain()
        for x, y in zip(a, b):
            assert x.latency == y.latency
            assert x.matches(y)
