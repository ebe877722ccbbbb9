"""Observation batches: every record of a batch in one float64 array.

Each observation has (lat, lon, epoch timestamp) plus float attributes —
exactly the record shape the paper's NAM dataset provides (surface
temperature, relative humidity, snow, precipitation).  A batch is one
read-only ``(3 + k) x n`` array, so subsetting or joining batches is one
numpy call however many attributes they carry; every filter/bin
operation is vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, init=False, eq=False, slots=True)
class ObservationBatch:
    """An immutable batch of observations.

    ``columns`` is a read-only float64 array of shape ``(3 + k, n)``:
    rows lats, lons, epochs, then the k attributes named by ``names``
    in insertion order.  ``lats``, ``lons``, ``epochs`` and
    ``attributes`` are views of those rows.
    """

    columns: np.ndarray
    names: tuple[str, ...]

    def __init__(
        self,
        lats: np.ndarray,
        lons: np.ndarray,
        epochs: np.ndarray,
        attributes: dict[str, np.ndarray] | None = None,
    ) -> None:
        attributes = {} if attributes is None else attributes
        arrays = (lats, lons, epochs, *attributes.values())
        if any(np.ndim(values) != 1 for values in arrays):
            raise StatisticsError("batch columns must be 1-D arrays")
        n = np.shape(lats)
        if np.shape(lons) != n or np.shape(epochs) != n:
            raise StatisticsError("coordinate array shapes differ")
        for name, values in attributes.items():
            if np.shape(values) != n:
                raise StatisticsError(f"attribute {name!r} shape mismatch")
        columns = np.stack(arrays, dtype=np.float64)
        columns.setflags(write=False)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "names", tuple(attributes))

    @classmethod
    def from_columns(
        cls, columns: np.ndarray, names: tuple[str, ...]
    ) -> "ObservationBatch":
        """Wrap a float64 ``(3 + len(names), n)`` array the caller hands
        over (it is made read-only in place); nothing is checked or
        copied — the constructor of every batch the library derives."""
        columns.setflags(write=False)
        batch = object.__new__(cls)
        object.__setattr__(batch, "columns", columns)
        object.__setattr__(batch, "names", names)
        return batch

    def __reduce__(self):
        # Rebuild through ``from_columns``: unpickled arrays are writeable.
        return ObservationBatch.from_columns, (self.columns, self.names)

    def __len__(self) -> int:
        return self.columns.shape[1]

    @property
    def lats(self) -> np.ndarray:
        return self.columns[0]

    @property
    def lons(self) -> np.ndarray:
        return self.columns[1]

    @property
    def epochs(self) -> np.ndarray:
        return self.columns[2]

    @property
    def attributes(self) -> dict[str, np.ndarray]:
        """Attribute name -> read-only row view, in insertion order."""
        return dict(zip(self.names, self.columns[3:]))

    @property
    def attribute_names(self) -> list[str]:
        return sorted(self.names)

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the records."""
        return int(self.columns.nbytes)

    @staticmethod
    def empty(attribute_names: tuple[str, ...] = OBSERVATION_ATTRIBUTES) -> "ObservationBatch":
        columns = np.empty((3 + len(attribute_names), 0), dtype=np.float64)
        return ObservationBatch.from_columns(columns, tuple(attribute_names))

    def rows_in(self, names: tuple[str, ...]) -> np.ndarray:
        """``columns`` with the attribute rows in ``names`` order (the
        array itself when that is already its order)."""
        if names == self.names:
            return self.columns
        if sorted(names) != sorted(self.names):
            raise StatisticsError("cannot concat batches with different attributes")
        return self.columns[[0, 1, 2, *(3 + self.names.index(n) for n in names)]]

    # -- filtering (all vectorized, views/masks only) ----------------------

    def select(self, mask: np.ndarray) -> "ObservationBatch":
        """Subset by boolean mask or index array."""
        return ObservationBatch.from_columns(self.columns[:, mask], self.names)

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
        """Batches end to end, in list order: one concatenate.  Attributes
        are matched by name and come out in the first batch's order."""
        if not batches:
            return ObservationBatch.empty()
        first = batches[0]
        if len(batches) == 1:
            return first
        names = first.names
        columns = np.concatenate([batch.rows_in(names) for batch in batches], axis=1)
        return ObservationBatch.from_columns(columns, names)

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
