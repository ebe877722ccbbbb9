"""Synthetic NAM-like dataset generator.

The paper evaluates on the NOAA North American Mesoscale (NAM) Forecast
System output for 2013 (~1.1 TB): gridded atmospheric observations taken
several times per day with attributes such as surface temperature,
relative humidity, snow and precipitation.

We cannot ship that dataset, so this module generates a seeded synthetic
equivalent: observations on a jittered grid over a configurable domain,
sampled at fixed times-of-day across a date range, with physically shaped
attributes (latitudinal + seasonal + diurnal temperature structure,
humidity anti-correlated with temperature, occasional precipitation,
snow only below freezing).  The *system under test* only depends on
record shape, volume, and spatiotemporal distribution, all of which this
preserves (DESIGN.md section 2).
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

import numpy as np

from repro.data.observation import OBSERVATION_ATTRIBUTES, ObservationBatch
from repro.errors import WorkloadError
from repro.geo.bbox import BoundingBox


def _epoch(year: int, month: int, day: int, hour: int = 0) -> float:
    return _dt.datetime(year, month, day, hour, tzinfo=_dt.timezone.utc).timestamp()


#: Approximate NAM spatial coverage (North America).
NAM_DOMAIN = BoundingBox(south=12.0, north=62.0, west=-152.0, east=-49.0)


@dataclass(frozen=True)
class DatasetSpec:
    """Shape of a synthetic dataset.

    Parameters
    ----------
    num_records:
        Total observation count.
    domain:
        Spatial coverage of the observations.
    start_day, num_days:
        Temporal coverage: ``num_days`` consecutive days from
        ``start_day`` (year, month, day).
    observations_per_day:
        Distinct sampling hours per day (NAM publishes several runs/day).
    seed:
        RNG seed; identical specs generate identical datasets.
    """

    num_records: int = 100_000
    domain: BoundingBox = field(default_factory=lambda: NAM_DOMAIN)
    start_day: tuple[int, int, int] = (2013, 1, 1)
    num_days: int = 365
    observations_per_day: int = 4
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_records <= 0:
            raise WorkloadError("num_records must be positive")
        if self.num_days <= 0:
            raise WorkloadError("num_days must be positive")
        if not 1 <= self.observations_per_day <= 24:
            raise WorkloadError("observations_per_day must be in [1, 24]")

    @property
    def time_start(self) -> float:
        return _epoch(*self.start_day)

    @property
    def time_end(self) -> float:
        return self.time_start + self.num_days * 86_400.0


class SyntheticNAMGenerator:
    """Seeded generator of NAM-like observation batches."""

    def __init__(self, spec: DatasetSpec):
        self.spec = spec
        self._rng = np.random.default_rng(spec.seed)

    def generate(self) -> ObservationBatch:
        """Generate the full dataset as one batch."""
        return self._make(self.spec.num_records)

    def generate_chunks(self, chunk_size: int) -> list[ObservationBatch]:
        """Generate the dataset as a list of batches of ``chunk_size``."""
        if chunk_size <= 0:
            raise WorkloadError("chunk_size must be positive")
        remaining = self.spec.num_records
        out = []
        while remaining > 0:
            n = min(chunk_size, remaining)
            out.append(self._make(n))
            remaining -= n
        return out

    # -- internals ------------------------------------------------------------

    def _make(self, n: int) -> ObservationBatch:
        """One batch of ``n`` records, each row written straight into the
        batch's one array (the RNG draws in a fixed order)."""
        spec, rng = self.spec, self._rng
        box = spec.domain
        columns = np.empty((3 + len(OBSERVATION_ATTRIBUTES), n), dtype=np.float64)
        lats, lons, epochs, temperature, humidity, precipitation, snow_depth = columns
        lats[:] = rng.uniform(box.south, box.north, n)
        lons[:] = rng.uniform(box.west, box.east, n)

        day_idx = rng.integers(0, spec.num_days, n)
        hours = (
            rng.integers(0, spec.observations_per_day, n)
            * (24 // spec.observations_per_day)
        )
        epochs[:] = (
            spec.time_start
            + day_idx.astype(np.float64) * 86_400.0
            + hours.astype(np.float64) * 3_600.0
            # jitter within the hour so HOUR-resolution bins stay stable
            + rng.uniform(0.0, 3_599.0, n)
        )

        day_of_year = day_idx % 365
        seasonal = -12.0 * np.cos(2.0 * np.pi * (day_of_year - 15) / 365.0)
        diurnal = 6.0 * np.sin(2.0 * np.pi * (hours - 9) / 24.0)
        lat_gradient = 30.0 - 0.8 * (lats - box.south)
        temperature[:] = lat_gradient + seasonal + diurnal + rng.normal(0.0, 3.0, n)

        humidity[:] = np.clip(
            85.0 - 0.9 * (temperature - 5.0) + rng.normal(0.0, 12.0, n), 0.0, 100.0
        )
        raining = rng.random(n) < 0.18
        precipitation[:] = np.where(raining, rng.exponential(4.0, n), 0.0)
        freezing = temperature < 0.0
        snow_depth[:] = np.where(
            freezing, np.abs(rng.normal(0.0, 8.0, n)) * (-temperature) / 10.0, 0.0
        )
        return ObservationBatch.from_columns(columns, OBSERVATION_ATTRIBUTES)


def small_test_dataset(
    num_records: int = 5_000, seed: int = 7, num_days: int = 28
) -> ObservationBatch:
    """Convenience dataset for unit tests: February 2013, NAM domain."""
    spec = DatasetSpec(
        num_records=num_records,
        start_day=(2013, 2, 1),
        num_days=num_days,
        seed=seed,
    )
    batch = SyntheticNAMGenerator(spec).generate()
    assert set(batch.attributes) == set(OBSERVATION_ATTRIBUTES)
    return batch


def conformance_dataset(
    num_records: int = 6_000, seed: int = 0, num_days: int = 3
) -> ObservationBatch:
    """The seeded dataset the oracle conformance campaign replays against.

    Deliberately small (the brute-force oracle re-derives every answer
    record-by-record) but multi-day and domain-wide, so campaigns cover
    temporal bin edges, multi-block cells, and every node's partition.
    The default seed matches ``repro conform --seed 0``; changing the
    shape here changes the canonical campaign, so treat it like a test
    fixture, not a tunable.
    """
    spec = DatasetSpec(
        num_records=num_records,
        start_day=(2013, 2, 1),
        num_days=num_days,
        seed=seed,
    )
    return SyntheticNAMGenerator(spec).generate()
