"""Shared experiment scaffolding: datasets, systems, result containers.

Every figure experiment in :mod:`repro.bench.experiments` is parameterized
by a :class:`BenchScale` so the same code runs in three regimes:

* ``BenchScale.unit()`` — seconds, used by the test suite's smoke tests;
* ``BenchScale.default()`` — the regime the benchmark suite runs, a
  laptop-scale stand-in for the paper's 120-node / 1.1 TB testbed
  (scaling documented in DESIGN.md section 5);
* custom — crank the knobs toward the paper's raw numbers if you have
  the hours.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.baselines.basic import BasicSystem
from repro.baselines.elastic import ElasticSystem
from repro.config import (
    ClusterConfig,
    ElasticConfig,
    EvictionConfig,
    ObservabilityConfig,
    ReplicationConfig,
    StashConfig,
)
from repro.core.cluster import StashCluster
from repro.data.generator import DatasetSpec, SyntheticNAMGenerator
from repro.data.observation import ObservationBatch
from repro.errors import WorkloadError
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey


@dataclass(frozen=True)
class BenchScale:
    """Knobs that trade fidelity for wall-clock."""

    num_records: int = 120_000
    num_days: int = 2
    num_nodes: int = 16
    spatial_resolution: int = 4
    #: Queries per scenario for latency averaging.
    repeats: int = 3
    #: Requests for throughput/hotspot runs.
    throughput_requests: int = 400
    seed: int = 42

    @staticmethod
    def default() -> "BenchScale":
        return BenchScale()

    @staticmethod
    def unit() -> "BenchScale":
        """Tiny regime for fast smoke tests of the experiment code."""
        return BenchScale(
            num_records=12_000,
            num_nodes=6,
            spatial_resolution=3,
            repeats=1,
            throughput_requests=60,
        )

    def with_(self, **kwargs: Any) -> "BenchScale":
        return replace(self, **kwargs)

    @property
    def day(self) -> TimeKey:
        return TimeKey.of(2013, 2, 2)

    @property
    def resolution(self) -> Resolution:
        return Resolution(self.spatial_resolution, TemporalResolution.DAY)

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.seed + salt)


_dataset_cache: dict[tuple, ObservationBatch] = {}


def bench_dataset(scale: BenchScale) -> ObservationBatch:
    """The benchmark dataset for a scale (cached per process)."""
    key = (scale.num_records, scale.num_days, scale.seed)
    if key not in _dataset_cache:
        spec = DatasetSpec(
            num_records=scale.num_records,
            start_day=(2013, 2, 1),
            num_days=scale.num_days,
            observations_per_day=4,
            seed=scale.seed,
        )
        _dataset_cache[key] = SyntheticNAMGenerator(spec).generate()
    return _dataset_cache[key]


def bench_config(scale: BenchScale, **overrides: Any) -> StashConfig:
    base = StashConfig(
        cluster=ClusterConfig(num_nodes=scale.num_nodes),
        eviction=EvictionConfig(max_cells=500_000),
        replication=ReplicationConfig(),
        elastic=ElasticConfig(num_shards=4 * scale.num_nodes),
        # Benchmarks trace every query so result JSONs carry critical-path
        # latency attribution (queueing/network/disk/compute fractions).
        observability=ObservabilityConfig(trace=True),
    )
    return base.with_(**overrides) if overrides else base


def attribution_fractions_of(results: list) -> dict[str, float]:
    """Per-category latency fractions over a list of QueryResults.

    Empty dict when no result carries an attribution (tracing off).
    """
    from repro.obs.critical_path import attribution_fractions

    totals: dict[str, float] = {}
    for result in results:
        for category, seconds in (result.attribution or {}).items():
            totals[category] = totals.get(category, 0.0) + seconds
    return attribution_fractions(totals) if totals else {}


def make_system(kind: str, dataset: ObservationBatch, config: StashConfig):
    """Instantiate a system under test by name."""
    if kind == "basic":
        return BasicSystem(dataset, config)
    if kind == "stash":
        return StashCluster(dataset, config)
    if kind == "elastic":
        return ElasticSystem(dataset, config)
    raise WorkloadError(f"unknown system kind {kind!r}")


@dataclass
class ExperimentResult:
    """One figure's regenerated data."""

    name: str
    description: str
    #: series label -> row label -> value (latency seconds, qps, ...)
    series: dict[str, dict[str, float]] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    def add(self, series: str, row: str, value: float) -> None:
        self.series.setdefault(series, {})[row] = value

    def row_labels(self) -> list[str]:
        labels: list[str] = []
        for rows in self.series.values():
            for label in rows:
                if label not in labels:
                    labels.append(label)
        return labels

    def format_table(self) -> str:
        """Paper-style table: rows x series."""
        series_names = list(self.series)
        labels = self.row_labels()
        width = max([len(label) for label in labels] + [8])
        swidth = max([len(s) for s in series_names] + [12])
        lines = [f"== {self.name}: {self.description}"]
        header = " " * (width + 2) + "  ".join(s.rjust(swidth) for s in series_names)
        lines.append(header)
        for label in labels:
            cells = []
            for series in series_names:
                value = self.series[series].get(label)
                cells.append(
                    ("-" if value is None else f"{value:.6g}").rjust(swidth)
                )
            lines.append(label.ljust(width + 2) + "  ".join(cells))
        scalars = {k: v for k, v in self.meta.items() if not isinstance(v, dict)}
        if scalars:
            lines.append(
                "meta: " + ", ".join(f"{k}={v}" for k, v in sorted(scalars.items()))
            )
        for key, value in sorted(self.meta.items()):
            if isinstance(value, dict):
                parts = ", ".join(
                    f"{cat}={frac:.1%}" for cat, frac in sorted(value.items())
                )
                lines.append(f"{key}: {parts}")
        return "\n".join(lines)
