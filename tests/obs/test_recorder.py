"""The query flight recorder: passivity, context keying, exact outcomes."""

import pytest

from repro.client.session import ExplorationSession
from repro.config import (
    ClusterConfig,
    FaultConfig,
    ObservabilityConfig,
    OverloadConfig,
    StashConfig,
)
from repro.core.cluster import StashCluster
from repro.data.generator import small_test_dataset
from repro.faults import overload
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.obs.histogram import LatencyHistogram
from repro.obs.recorder import FlightRecorder, QueryContext
from repro.query.model import AggregationQuery
from repro.sim.engine import Simulator


@pytest.fixture(scope="module")
def dataset():
    return small_test_dataset(num_records=6_000)


def base_query(i: int = 0) -> AggregationQuery:
    return AggregationQuery(
        bbox=BoundingBox(33, 37, -108, -100),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(3, TemporalResolution.DAY),
    ).panned(0.02 * (i % 5), 0.02 * (i % 5))


def hotspot_query(i: int) -> AggregationQuery:
    """Two interleaved hotspots in different geohash prefixes.

    Every node is simultaneously a busy coordinator for one hotspot and
    a fetch target for the other, so under a flood ``fetch_cells`` legs
    land on deep queues and get shed — the ctx-carrying shed path.
    """
    box = (
        BoundingBox(25, 30, -85, -80) if i % 2
        else BoundingBox(33, 37, -108, -100)
    )
    return AggregationQuery(
        bbox=box,
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(4, TemporalResolution.DAY),
    ).panned(0.02 * (i % 5), 0.02 * (i % 5))


def flood_config(
    monkeypatch, flight_recorder: bool, queue_limit: int = 2
) -> StashConfig:
    """An overload flood: tiny queue, aggressive breaker, fault RPC."""
    monkeypatch.setattr(overload, "BREAKER_SHEDS", 4)
    monkeypatch.setattr(overload, "BREAKER_WINDOW", 2.0)
    monkeypatch.setattr(overload, "BREAKER_COOLDOWN", 1.0)
    return StashConfig(
        cluster=ClusterConfig(num_nodes=4),
        faults=FaultConfig(enabled=True, rpc_timeout=0.5, max_retries=1),
        overload=OverloadConfig(enabled=True, queue_limit=queue_limit),
        observability=ObservabilityConfig(flight_recorder=flight_recorder),
    )


def shed_flood_config(monkeypatch, flight_recorder: bool) -> StashConfig:
    """Deep flood tuned so fetch legs (not just populate) get shed."""
    monkeypatch.setattr(overload, "BREAKER_SHEDS", 10_000)
    return StashConfig(
        cluster=ClusterConfig(num_nodes=4),
        faults=FaultConfig(enabled=True, rpc_timeout=0.5, max_retries=1),
        overload=OverloadConfig(enabled=True, queue_limit=1),
        observability=ObservabilityConfig(flight_recorder=flight_recorder),
    )


class TestPassivity:
    def test_recorder_on_is_byte_identical_to_off(self, dataset, monkeypatch):
        """The tentpole invariant: observing must not change the sim."""
        queries = [base_query(i) for i in range(30)]
        runs = {}
        for enabled in (False, True):
            system = StashCluster(dataset, flood_config(monkeypatch, enabled))
            results = system.run_open_loop(
                [q.panned(0, 0) for q in queries], rate=400.0, seed=5
            )
            system.drain()
            runs[enabled] = (system, results)
        off_sys, off_results = runs[False]
        on_sys, on_results = runs[True]
        assert off_sys.sim.now == on_sys.sim.now
        assert off_sys.network.messages_sent == on_sys.network.messages_sent
        assert off_sys.network.messages_dropped == on_sys.network.messages_dropped
        for a, b in zip(off_results, on_results):
            assert a.latency == b.latency
            assert a.completeness == b.completeness
            assert a.cells == b.cells
        # And the recorder actually saw the run.
        assert on_sys.recorder.queries > 0
        assert off_sys.recorder.queries == 0

    def test_disabled_recorder_context_is_none(self):
        recorder = FlightRecorder(Simulator(), enabled=False)
        assert recorder.context(7) is None
        recorder.record_event("anything", None, node="n")
        recorder.record_query(
            kind="pan", coordinator="n", latency=0.1, completeness=1.0, ctx=None
        )
        assert recorder.events == []
        assert recorder.queries == 0


class TestExactlyOnceOutcomes:
    def test_duplicate_terminal_records_are_dropped(self):
        recorder = FlightRecorder(Simulator(), enabled=True)
        ctx = recorder.context(1)
        for _ in range(3):
            recorder.record_query(
                kind="pan", coordinator="n0", latency=0.1,
                completeness=0.5, ctx=ctx,
            )
        assert recorder.queries == 1
        assert recorder.outcome_counts == {"degraded": 1}
        # A different attempt of the same query is a new terminal record.
        recorder.record_query(
            kind="pan", coordinator="n0", latency=0.2,
            completeness=1.0, ctx=ctx.with_(attempt=1),
        )
        assert recorder.outcome_counts == {"degraded": 1, "ok": 1}

    def test_flood_counts_exactly_one_outcome_per_attempt(self, dataset, monkeypatch):
        """Shed legs that are later resolved must not double-count."""
        system = StashCluster(dataset, shed_flood_config(monkeypatch, True))
        queries = [hotspot_query(i) for i in range(120)]
        results = system.run_open_loop(queries, rate=5_000.0, seed=5)
        system.drain()
        recorder = system.recorder
        # The flood actually shed query-path legs (else this test proves
        # nothing): the shed is recorded server-side AND observed by the
        # coordinator as a failed leg...
        incident_names = {e.name for e in recorder.events}
        assert "shed:fetch_cells" in incident_names
        assert "fetch_leg_shed" in incident_names
        # ...while outcomes stayed exactly one per attempt even though
        # every shed leg was later resolved another way.
        assert sum(recorder.outcome_counts.values()) == recorder.queries
        assert recorder.queries == len(recorder._terminal_seen)
        terminal_query_ids = {qid for qid, _ in recorder._terminal_seen}
        assert terminal_query_ids == {r.query.query_id for r in results}
        # When no client-level retries happened (one attempt per query),
        # recorded outcomes must mirror the client-visible results 1:1.
        if recorder.queries == len(results):
            complete = sum(1 for r in results if r.completeness == 1.0)
            assert recorder.outcome_counts.get("ok", 0) == complete


class TestContextKeying:
    def test_events_are_keyed_to_real_queries(self, dataset, monkeypatch):
        system = StashCluster(dataset, flood_config(monkeypatch, True))
        queries = [base_query(i) for i in range(40)]
        results = system.run_open_loop(queries, rate=400.0, seed=5)
        system.drain()
        known = {r.query.query_id for r in results}
        assert system.recorder.events  # the flood produced incidents
        for event in system.recorder.events:
            assert event.query_id in known
            assert event.attempt >= 0
        one = results[0].query.query_id
        assert all(e.query_id == one for e in system.recorder.events_for(one))

    def test_context_with_derives_legs(self):
        ctx = QueryContext(query_id=9)
        leg = ctx.with_(leg="node-2", redirect_depth=1)
        assert (leg.query_id, leg.leg, leg.redirect_depth) == (9, "node-2", 1)
        assert ctx.leg == ""  # the original is untouched (frozen)


class TestHistograms:
    def session_cluster(self, dataset):
        config = StashConfig(
            cluster=ClusterConfig(num_nodes=4),
            observability=ObservabilityConfig(
                flight_recorder=True,
                slo_targets=(("pan", 95.0, 100.0), ("*", 99.0, 100.0)),
            ),
        )
        return StashCluster(dataset, config)

    def test_per_class_and_per_node_histograms_merge_to_cluster(self, dataset):
        system = self.session_cluster(dataset)
        session = ExplorationSession(
            system,
            viewport=BoundingBox(33, 37, -108, -100),
            day=TimeKey.of(2013, 2, 2),
            resolution=Resolution(3, TemporalResolution.DAY),
        )
        session.refresh()
        session.pan("e")
        session.pan("e")
        session.dice(0.7)
        session.drill_down()
        system.drain()
        recorder = system.recorder
        classes = recorder.class_histograms()
        assert {"other", "pan", "zoom", "drill"} <= set(classes)
        assert classes["pan"].count == 2
        cluster = recorder.histograms["cluster"]
        assert LatencyHistogram.merge_all(classes.values()) == cluster
        assert (
            LatencyHistogram.merge_all(recorder.node_histograms().values())
            == cluster
        )
        assert cluster.count == recorder.queries == 5

    def test_slo_report_and_gauges(self, dataset):
        system = self.session_cluster(dataset)
        session = ExplorationSession(
            system,
            viewport=BoundingBox(33, 37, -108, -100),
            day=TimeKey.of(2013, 2, 2),
            resolution=Resolution(3, TemporalResolution.DAY),
        )
        session.pan("e")
        system.drain()
        report = system.recorder.slo_report()
        assert [entry["class"] for entry in report] == ["pan", "*"]
        assert all(entry["status"] == "met" for entry in report)
        assert system.recorder.slo_violations == 0
        gauges = system.metrics.snapshot()["gauges"]
        assert gauges["recorder.queries"] == system.recorder.queries == 1
        assert gauges["recorder.slo_violations"] == 0

    def test_tight_slo_counts_violations(self, dataset):
        config = StashConfig(
            cluster=ClusterConfig(num_nodes=4),
            observability=ObservabilityConfig(
                flight_recorder=True, slo_targets=(("*", 95.0, 1e-12),)
            ),
        )
        system = StashCluster(dataset, config)
        system.run_query(base_query())
        system.drain()
        assert system.recorder.slo_violations == 1
        assert any(e.name == "slo_violation" for e in system.recorder.events)
        assert system.recorder.slo_report()[0]["status"] == "missed"
