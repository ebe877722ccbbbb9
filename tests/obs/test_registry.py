"""Metrics registry: grid sampling via simulator tick hooks, and the
exact merge of counters / gauges / histograms across registries."""

import pytest
from hypothesis import given

from repro.errors import SimulationError
from repro.obs.registry import MetricsRegistry, TimeSeries
from repro.sim.engine import Simulator
from repro.transport import codec
from tests.strategies import metric_operations


def test_time_series_basics():
    series = TimeSeries("x")
    assert len(series) == 0
    series.record(0.0, 1.0)
    series.record(1.0, 3.0)
    series.record(2.0, 2.0)
    assert series.first() == 1.0
    assert series.last() == 2.0
    assert series.peak() == 3.0
    assert series.to_dict() == {"name": "x", "times": [0.0, 1.0, 2.0], "values": [1.0, 3.0, 2.0]}


def test_empty_series_accessors_raise():
    series = TimeSeries("x")
    for accessor in (series.first, series.last, series.peak):
        with pytest.raises(SimulationError):
            accessor()


def test_start_requires_positive_interval():
    registry = MetricsRegistry(Simulator())
    with pytest.raises(SimulationError):
        registry.start(0.0)
    with pytest.raises(SimulationError):
        registry.start(-1.0)


def test_grid_sampling_stamps_grid_times():
    sim = Simulator()
    registry = MetricsRegistry(sim)
    state = {"v": 0.0}
    registry.gauge("v", lambda: state["v"])
    registry.start(1.0)

    def proc():
        for step in range(5):
            state["v"] = float(step)
            yield sim.timeout(0.7)

    sim.process(proc())
    sim.run()
    series = registry.series["v"]
    # Events at 0.7, 1.4, 2.1, 2.8, 3.5 -> grid points 1, 2, 3 crossed.
    assert series.times == [1.0, 2.0, 3.0]
    # Samples carry the state *after* the event that crossed the grid
    # point: t=1.4 sets v=2 then crosses 1.0; t=3.5 sets v=4, crossing 3.0.
    assert series.values == [2.0, 3.0, 4.0]


def test_large_jump_emits_every_crossed_grid_point():
    sim = Simulator()
    registry = MetricsRegistry(sim)
    registry.gauge("one", lambda: 1.0)
    registry.start(0.5)
    sim.timeout(2.2)
    sim.run()
    assert registry.series["one"].times == [0.5, 1.0, 1.5, 2.0]


def test_sampler_never_blocks_drain():
    sim = Simulator()
    registry = MetricsRegistry(sim)
    registry.gauge("one", lambda: 1.0)
    registry.start(0.25)
    sim.timeout(1.0)
    sim.run()  # must terminate: sampling is passive, no self-scheduling
    assert sim.now == 1.0
    assert len(registry.series["one"]) == 4


def test_stop_halts_sampling_but_keeps_series():
    sim = Simulator()
    registry = MetricsRegistry(sim)
    registry.gauge("one", lambda: 1.0)
    registry.start(1.0)
    sim.timeout(1.5)
    sim.run()
    registry.stop()
    sim.timeout(5.0)
    sim.run()
    assert registry.series["one"].times == [1.0]
    registry.stop()  # idempotent


def test_manual_record_and_sample():
    sim = Simulator()
    registry = MetricsRegistry(sim)
    registry.gauge("g", lambda: 7.0)
    registry.record("manual", 42.0, at=3.0)
    registry.sample()
    assert registry.series["manual"].values == [42.0]
    assert registry.series["manual"].times == [3.0]
    assert registry.series["g"].values == [7.0]


def test_format_table_and_to_dict():
    sim = Simulator()
    registry = MetricsRegistry(sim)
    registry.gauge("full", lambda: 1.0)
    registry.gauge("empty", lambda: 0.0)
    registry.series["full"].record(0.0, 1.0)
    table = registry.format_table()
    assert "full" in table and "empty" in table
    assert "(no samples)" in table
    exported = registry.to_dict()
    assert set(exported) == {"full", "empty"}
    assert exported["full"]["values"] == [1.0]


# ---------------------------------------------------------------------------
# counters, histograms, snapshot and the exact merge


def apply(registry: MetricsRegistry, kind: str, name: str, value) -> None:
    if kind == "counter":
        registry.counters.increment(name, value)
    else:
        registry.observe(name, value)


def registries_of(k: int, ops) -> list[MetricsRegistry]:
    registries = [MetricsRegistry(Simulator()) for _ in range(k)]
    for index, kind, name, value in ops:
        apply(registries[index], kind, name, value)
    return registries


def assert_same_snapshot(one: dict, two: dict) -> None:
    """Equal exactly, except ``total_s`` (a float sum: order-dependent)."""
    assert one["counters"] == two["counters"]
    assert one["gauges"] == two["gauges"]
    assert one["histograms"].keys() == two["histograms"].keys()
    for name, data in one["histograms"].items():
        other = dict(two["histograms"][name])
        assert data["total_s"] == pytest.approx(other.pop("total_s"), rel=1e-12)
        assert {k: v for k, v in data.items() if k != "total_s"} == other


EMPTY = {"counters": {}, "gauges": {}, "histograms": {}}


def test_counters_histograms_and_gauges_in_one_snapshot():
    sim = Simulator()
    registry = MetricsRegistry(sim)
    assert registry.snapshot() == EMPTY
    registry.counters.increment("hits", 3)
    registry.observe("cluster", 0.25)
    registry.observe("cluster", 0.25)
    registry.gauge("depth", lambda: 7)
    snap = registry.snapshot()
    assert snap["counters"] == {"hits": 3}
    assert snap["gauges"] == {"depth": 7.0}
    assert snap["histograms"]["cluster"]["count"] == 2
    assert registry.series["depth"].values == []  # a snapshot samples nothing


def test_record_reuses_the_series_it_created():
    registry = MetricsRegistry(Simulator())
    registry.record("query", 0.5)
    series = registry.series["query"]
    registry.record("query", 0.25)
    assert registry.series["query"] is series
    assert series.values == [0.5, 0.25]


def test_merged_gauges_add_by_name():
    registries = [MetricsRegistry(Simulator()) for _ in range(3)]
    for value, registry in enumerate(registries, start=1):
        registry.gauge("cache_cells", lambda v=value: 10 * v)
    registries[0].gauge("only_here", lambda: 4)
    merged = MetricsRegistry.merge(r.snapshot() for r in registries)
    assert merged["gauges"] == {"cache_cells": 60.0, "only_here": 4.0}


@given(metric_operations())
def test_merge_of_a_split_equals_the_pooled_registry(dealt):
    k, ops = dealt
    merged = MetricsRegistry.merge(r.snapshot() for r in registries_of(k, ops))
    pooled = registries_of(1, [(0, *op[1:]) for op in ops])[0].snapshot()
    assert_same_snapshot(merged, pooled)


@given(metric_operations(max_registries=3))
def test_merge_is_associative_and_commutative(dealt):
    k, ops = dealt
    snaps = [r.snapshot() for r in registries_of(k, ops)]
    merge = MetricsRegistry.merge
    assert_same_snapshot(merge(snaps), merge(reversed(snaps)))
    assert_same_snapshot(merge(snaps), merge([merge(snaps[:1]), merge(snaps[1:])]))
    assert_same_snapshot(merge(snaps), merge([merge(snaps[:-1]), merge(snaps[-1:])]))
    assert merge([merge(snaps), EMPTY]) == merge(snaps)


def test_merge_of_nothing_is_the_empty_snapshot():
    assert MetricsRegistry.merge([]) == EMPTY
    assert MetricsRegistry(Simulator()).snapshot() == EMPTY


@given(metric_operations(max_registries=1))
def test_snapshot_survives_the_wire_codec(dealt):
    _, ops = dealt
    registry = registries_of(1, ops)[0]
    registry.gauge("depth", lambda: 3)
    snap = registry.snapshot()
    restored = codec.decode(codec.encode(snap))
    assert restored == snap
    assert list(restored["counters"]) == list(snap["counters"])  # order too
    assert MetricsRegistry.merge([restored]) == MetricsRegistry.merge([snap])
