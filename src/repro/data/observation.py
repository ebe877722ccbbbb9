"""Observation batches: structure-of-arrays record storage.

Each observation has (lat, lon, epoch timestamp) plus float attributes —
exactly the record shape the paper's NAM dataset provides (surface
temperature, relative humidity, snow, precipitation).  Batches are
immutable numpy SoA containers; every filter/bin operation is vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import StatisticsError
from repro.geo.bbox import BoundingBox
from repro.geo.binning import bin_ids as _bin_ids
from repro.geo.temporal import TemporalResolution, TimeRange

#: The NAM-like attributes every synthetic observation carries.
OBSERVATION_ATTRIBUTES = (
    "temperature",
    "humidity",
    "precipitation",
    "snow_depth",
)


@dataclass(frozen=True)
class ObservationBatch:
    """An immutable batch of observations in structure-of-arrays form."""

    lats: np.ndarray
    lons: np.ndarray
    epochs: np.ndarray
    attributes: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.lats.shape
        if self.lons.shape != n or self.epochs.shape != n:
            raise StatisticsError("coordinate array shapes differ")
        for name, values in self.attributes.items():
            if values.shape != n:
                raise StatisticsError(f"attribute {name!r} shape mismatch")
        for arr in (self.lats, self.lons, self.epochs, *self.attributes.values()):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.lats.size)

    @property
    def attribute_names(self) -> list[str]:
        return sorted(self.attributes)

    @property
    def nbytes(self) -> int:
        """In-memory footprint of all arrays."""
        arrays = (self.lats, self.lons, self.epochs, *self.attributes.values())
        return int(sum(a.nbytes for a in arrays))

    @staticmethod
    def empty(attribute_names: tuple[str, ...] = OBSERVATION_ATTRIBUTES) -> "ObservationBatch":
        z = np.array([], dtype=np.float64)
        return ObservationBatch(
            z, z.copy(), z.copy(), {a: np.array([], dtype=np.float64) for a in attribute_names}
        )

    # -- filtering (all vectorized, views/masks only) ----------------------

    def select(self, mask: np.ndarray) -> "ObservationBatch":
        """Subset by boolean mask or index array."""
        return ObservationBatch(
            self.lats[mask],
            self.lons[mask],
            self.epochs[mask],
            {name: v[mask] for name, v in self.attributes.items()},
        )

    def filter_bbox(self, box: BoundingBox) -> "ObservationBatch":
        """Observations inside the closed-open rectangle."""
        mask = (
            (self.lats >= box.south)
            & (self.lats < box.north)
            & (self.lons >= box.west)
            & (self.lons < box.east)
        )
        return self.select(mask)

    def filter_time(self, time_range: TimeRange) -> "ObservationBatch":
        """Observations inside the half-open time range."""
        mask = (self.epochs >= time_range.start) & (self.epochs < time_range.end)
        return self.select(mask)

    def concat(self, other: "ObservationBatch") -> "ObservationBatch":
        return ObservationBatch.concat_all([self, other])

    @staticmethod
    def concat_all(batches: list["ObservationBatch"]) -> "ObservationBatch":
        """Batches end to end, in list order: one concatenate per column."""
        if not batches:
            return ObservationBatch.empty()
        first = batches[0]
        if len(batches) == 1:
            return first
        names = set(first.attributes)
        if any(set(batch.attributes) != names for batch in batches[1:]):
            raise StatisticsError("cannot concat batches with different attributes")
        return ObservationBatch(
            np.concatenate([batch.lats for batch in batches]),
            np.concatenate([batch.lons for batch in batches]),
            np.concatenate([batch.epochs for batch in batches]),
            {
                name: np.concatenate([batch.attributes[name] for batch in batches])
                for name in first.attributes
            },
        )

    # -- binning ------------------------------------------------------------

    def bin_ids(
        self, spatial_precision: int, temporal_resolution: TemporalResolution
    ) -> np.ndarray:
        """Per-record packed uint64 bin id (see :mod:`repro.geo.binning`).

        The flat form of the paper's Cell index key (spatiotemporal
        label): grouping records by it yields exactly one group per
        non-empty cell, and ids sort like ``'<geohash>@<timekey>'``
        labels would.
        """
        return _bin_ids(
            self.lats, self.lons, self.epochs, spatial_precision, temporal_resolution
        )
