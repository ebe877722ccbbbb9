"""The quantities the paper's figures plot, held by the one registry.

Per-query latency (Figs 6a, 7, 8) and completion times (Figs 6b, 6d) are
the client's ``query`` series; event counts are ``Counters``; latency
attribution is folded from the results by
``bench.harness.attribution_fractions_of``.  The test classes keep the
names of the four collectors these replaced (``repro.sim.metrics``,
removed in PR 23): each test pins the property it always pinned, through
what survives, with the arithmetic no production caller needed done in
the test body.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench.harness import attribution_fractions_of
from repro.errors import SimulationError
from repro.obs.critical_path import ATTRIBUTION_CATEGORIES, attribute_span
from repro.obs.registry import Counters, MetricsRegistry, TimeSeries
from repro.obs.tracer import Tracer
from repro.sim.engine import Simulator
from repro.stats import percentile


def query_series(points) -> TimeSeries:
    """A registry's ``query`` series after ``(completion time, latency)`` points."""
    registry = MetricsRegistry(Simulator())
    for at, latency in points:
        registry.record("query", latency, at=at)
    return registry.series.get("query", TimeSeries("query"))


def binned(series: TimeSeries, bin_width: float) -> np.ndarray:
    """Completions per ``bin_width`` seconds from t=0 (Fig. 6d's binning)."""
    done = np.asarray(series.times)
    nbins = int(np.floor(done[-1] / bin_width)) + 1
    idx = np.minimum((done / bin_width).astype(np.int64), nbins - 1)
    return np.bincount(idx, minlength=nbins)


def results_with(*attributions):
    return [SimpleNamespace(attribution=a) for a in attributions]


class TestLatencyCollector:
    def test_basic_stats(self):
        series = query_series((float(i), v) for i, v in enumerate([1.0, 2.0, 3.0, 4.0]))
        assert len(series) == 4
        assert np.mean(series.values) == 2.5
        assert percentile(series.values, 100) == 4.0
        assert series.peak() == 4.0

    def test_negative_rejected(self):
        registry = MetricsRegistry(Simulator())
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                registry.observe("cluster", bad)
        assert registry.histograms["cluster"].count == 0

    def test_empty_raises(self):
        series = query_series([])
        for accessor in (series.first, series.last, series.peak, series.duration):
            with pytest.raises(SimulationError):
                accessor()
        with pytest.raises(ValueError):
            percentile(series.values, 50)

    def test_summary_keys(self):
        registry = MetricsRegistry(Simulator())
        registry.observe("cluster", 1.0)
        summary = registry.histograms["cluster"].summary()
        assert set(summary) == {"count", "mean_s", "p50_s", "p95_s", "p99_s"}
        assert summary["count"] == 1 and summary["mean_s"] == 1.0


class TestThroughputTimeline:
    def test_overall_rate(self):
        series = query_series((t, 0.1) for t in [1.0, 2.0, 4.0])
        assert series.duration() == 4.0
        assert len(series) / series.duration() == pytest.approx(3 / 4)

    def test_empty_raises(self):
        with pytest.raises(SimulationError):
            TimeSeries("query").duration()

    def test_per_second_series(self):
        series = query_series((t, 0.1) for t in [0.1, 0.5, 1.2, 2.9, 2.95])
        np.testing.assert_array_equal(binned(series, 1.0), [2, 1, 2])

    def test_cumulative_series(self):
        series = query_series((t, 0.1) for t in [0.1, 1.5, 2.5])
        np.testing.assert_array_equal(np.cumsum(binned(series, 1.0)), [1, 2, 3])

    def test_empty_series(self):
        series = query_series([])
        assert len(series) == 0
        assert np.asarray(series.times).size == 0

    def test_bad_bin_width(self):
        # The one bin width the registry itself takes is its sampling
        # grid; binning a series is the reader's arithmetic.
        registry = MetricsRegistry(Simulator())
        registry.record("query", 0.1, at=1.0)
        with pytest.raises(SimulationError):
            registry.start(0.0)


class TestCounterSet:
    def test_increment_and_get(self):
        c = Counters()
        c.increment("hits")
        c.increment("hits", 4)
        assert c.get("hits") == 5
        assert c.get("misses") == 0
        assert "misses" not in c  # reading an absent name does not create it

    def test_ratio(self):
        c = Counters()
        c.increment("hits", 3)
        c.increment("lookups", 4)
        assert c.get("hits") / c.get("lookups") == 0.75

    def test_ratio_zero_denominator(self):
        # An absent counter reads 0 (not None), so a ratio over it is the
        # caller's ordinary division by zero.
        c = Counters()
        with pytest.raises(ZeroDivisionError):
            c.get("a") / c.get("b")

    def test_as_dict_copy(self):
        registry = MetricsRegistry(Simulator())
        registry.counters.increment("x")
        for copy in (dict(registry.counters), registry.snapshot()["counters"]):
            assert type(copy) is dict
            copy["x"] = 99
        assert registry.counters.get("x") == 1

    def test_instances_do_not_share_counts(self):
        a = MetricsRegistry(Simulator())
        b = MetricsRegistry(Simulator())
        a.counters.increment("x", 5)
        assert b.counters.get("x") == 0
        assert a.counters is not b.counters


class TestAttributionCollector:
    def test_record_and_totals(self):
        fractions = attribution_fractions_of(
            results_with({"disk": 2.0, "compute": 1.0}, {"disk": 1.0, "network": 1.0})
        )
        assert fractions["disk"] == pytest.approx(0.6)
        assert fractions["compute"] == fractions["network"] == pytest.approx(0.2)
        assert fractions["queueing"] == 0.0

    def test_none_is_no_op(self):
        assert attribution_fractions_of(results_with(None)) == {}
        mixed = attribution_fractions_of(results_with(None, {"disk": 1.0}))
        assert mixed["disk"] == 1.0

    def test_negative_rejected(self):
        # Negative seconds are kept out at the source: a span recorded
        # backwards is clipped away, never attributed.
        tracer = Tracer(Simulator(), enabled=True)
        root = tracer.record("query", "compute", 0.0, 10.0)
        tracer.record("backwards", "disk", 8.0, 6.0, parent=root)
        attribution = attribute_span(root)
        assert min(attribution.values()) >= 0.0
        assert sum(attribution.values()) == pytest.approx(10.0)
        fractions = attribution_fractions_of(results_with(attribution))
        assert min(fractions.values()) >= 0.0

    def test_empty_raises(self):
        # No traced result: an empty dict, not a division by zero.
        assert attribution_fractions_of([]) == {}
        assert attribution_fractions_of(results_with(None, None)) == {}

    def test_summary_shape(self):
        fractions = attribution_fractions_of(
            results_with({"disk": 3.0, "compute": 1.0})
        )
        assert set(fractions) == set(ATTRIBUTION_CATEGORIES)
        assert fractions["compute"] == pytest.approx(0.25)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_empty_summary_only_count(self):
        # Traced, but no time attributed: all-zero fractions.
        fractions = attribution_fractions_of(results_with({"disk": 0.0}))
        assert fractions == {category: 0.0 for category in ATTRIBUTION_CATEGORIES}
