"""The metrics registry: every number one participant holds, by name.

One :class:`MetricsRegistry` per participant (each storage node, the
client), on that participant's clock — simulated or ``AsyncioEngine`` —
and single-threaded like it.  Three kinds: **counters**
(:class:`Counters`), **histograms** (one mergeable
:class:`~repro.obs.histogram.LatencyHistogram` per name) and **gauges**
with their sampled :class:`TimeSeries`, next to raw ``record`` points
(the client's ``query`` series of ``(completion time, latency)``).
:meth:`~MetricsRegistry.snapshot` is what a node's ``stats`` RPC answers
with; :meth:`MetricsRegistry.merge` folds snapshots exactly, so the
cluster-wide view is the merge of its nodes'.

Sampling is **passive**: instead of scheduling wake-up events (which
would keep ``Simulator.run()`` from ever draining and could perturb
event ordering), the registry registers a ``tick hook`` on the simulator
and emits a sample whenever the clock crosses a grid point.  Samples are
stamped at the grid time; the values are the state after the event that
crossed it — for a discrete-event simulation that is the state that held
for the whole preceding interval.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.errors import SimulationError
from repro.obs.histogram import LatencyHistogram


class Counters(dict):
    """Named monotonically increasing counts; an absent name reads 0."""

    __slots__ = ()

    def increment(self, name: str, by: int = 1) -> None:
        self[name] = dict.get(self, name, 0) + by

    def get(self, name: str, default: int = 0) -> int:
        return dict.get(self, name, default)


class TimeSeries:
    """One named sequence of (simulated time, value) points."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, at: float, value: float) -> None:
        self.times.append(at)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def _some(self, points: list[float]) -> list[float]:
        if not points:
            raise SimulationError(f"series {self.name!r} has no samples")
        return points

    def last(self) -> float:
        return self._some(self.values)[-1]

    def first(self) -> float:
        return self._some(self.values)[0]

    def peak(self) -> float:
        return max(self._some(self.values))

    def duration(self) -> float:
        """Time of the latest point (the paper's throughput basis)."""
        return max(self._some(self.times))

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "times": list(self.times), "values": list(self.values)}


class MetricsRegistry:
    """Counters, histograms, gauges and series of one participant."""

    def __init__(self, sim):
        self.sim = sim
        self.counters = Counters()
        self.histograms: dict[str, LatencyHistogram] = {}
        self.gauges: dict[str, Callable[[], float]] = {}
        self.series: dict[str, TimeSeries] = {}
        self.interval = 0.0
        self._next_sample: float | None = None
        self._hooked = False

    # -- registration ------------------------------------------------------

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register (or replace) a gauge; sampled on every grid crossing."""
        self.gauges[name] = fn
        if name not in self.series:
            self.series[name] = TimeSeries(name)

    def record(self, name: str, value: float, at: float | None = None) -> None:
        """Record one raw point outside the sampling grid."""
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = TimeSeries(name)
        series.record(self.sim.now if at is None else at, float(value))

    def observe(self, name: str, seconds: float) -> None:
        """Add one latency to the histogram ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = LatencyHistogram()
        histogram.observe(seconds)

    # -- sampling ----------------------------------------------------------

    def sample(self, at: float | None = None) -> None:
        """Read every gauge once, stamping points at ``at`` (default: now)."""
        stamp = self.sim.now if at is None else at
        for name, fn in self.gauges.items():
            self.series[name].record(stamp, float(fn()))

    def start(self, interval: float) -> None:
        """Begin periodic sampling every ``interval`` simulated seconds."""
        if interval <= 0:
            raise SimulationError(f"sample interval must be positive, got {interval}")
        self.interval = interval
        self._next_sample = self.sim.now + interval
        if not self._hooked:
            self.sim.tick_hooks.append(self._on_tick)
            self._hooked = True

    def stop(self) -> None:
        """Stop periodic sampling (recorded series are kept)."""
        if self._hooked:
            self.sim.tick_hooks.remove(self._on_tick)
            self._hooked = False
        self._next_sample = None

    def _on_tick(self, now: float) -> None:
        while self._next_sample is not None and now >= self._next_sample:
            self.sample(at=self._next_sample)
            self._next_sample += self.interval

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Every counter, gauge (read now) and histogram, JSON-ready."""
        return {
            "counters": dict(self.counters),
            "gauges": {name: float(fn()) for name, fn in self.gauges.items()},
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in self.histograms.items()
            },
        }

    @staticmethod
    def merge(snapshots: Iterable[dict[str, Any]]) -> dict[str, dict[str, Any]]:
        """The exact combination of :meth:`snapshot` dicts: counters add,
        gauges of equal name add, histograms add bucket for bucket — what
        one registry fed the pooled operations would hold."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, LatencyHistogram] = {}
        for snap in snapshots:
            for name, count in snap["counters"].items():
                counters[name] = counters.get(name, 0) + count
            for name, value in snap["gauges"].items():
                gauges[name] = gauges.get(name, 0.0) + value
            for name, data in snap["histograms"].items():
                histogram = LatencyHistogram.from_dict(data)
                if name in histograms:
                    histogram = histograms[name].merge(histogram)
                histograms[name] = histogram
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": {name: h.to_dict() for name, h in histograms.items()},
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form: series name -> {times, values}."""
        return {name: series.to_dict() for name, series in sorted(self.series.items())}

    def format_table(self, names: list[str] | None = None, last: int = 5) -> str:
        """A small text table of the most recent samples per series."""
        chosen = sorted(self.series) if names is None else names
        width = max((len(name) for name in chosen), default=6)
        lines = [f"{'series':>{width}}  {'n':>5}  last {last} samples"]
        for name in chosen:
            series = self.series.get(name)
            if series is None or not len(series):
                lines.append(f"{name:>{width}}  {0:>5}  (no samples)")
                continue
            tail = ", ".join(f"{v:.4g}" for v in series.values[-last:])
            lines.append(f"{name:>{width}}  {len(series):>5}  {tail}")
        return "\n".join(lines)
