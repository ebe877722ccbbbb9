"""Query footprint computation: bounding box -> covering geohash cells.

The front-end's Query_Polygon is a lat/lon rectangle; evaluating it at a
spatial resolution means touching every geohash cell of that precision
that overlaps the rectangle (paper section IV-D).  This module computes
that cover with integer grid arithmetic — no per-cell geometry tests:
a :class:`GridCover` is five integers, and the cover's size, snapped
bounds, cells and neighborhood ring are all read off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import GeohashError
from repro.geo.bbox import BoundingBox
from repro.geo.geohash import (
    _SPREAD,
    _bit_counts,
    _check_precision,
    _spread,
    cell_dimensions,
    label_of_code,
)


@dataclass(frozen=True, slots=True)
class GridCover:
    """The cells of one precision overlapping a box, as grid index ranges.

    Rows count from the south pole, columns from the antimeridian; both
    ranges are inclusive.
    """

    precision: int
    lat_lo: int
    lat_hi: int
    lon_lo: int
    lon_hi: int

    @staticmethod
    def of(box: BoundingBox, precision: int) -> "GridCover":
        """The cover of ``box`` at ``precision``, clamped to the grid."""
        _check_precision(precision)
        lon_bits, lat_bits = _bit_counts(precision)
        n_lat, n_lon = 1 << lat_bits, 1 << lon_bits
        lat_lo = int((box.south + 90.0) / 180.0 * n_lat)
        lon_lo = int((box.west + 180.0) / 360.0 * n_lon)
        # North/east edges are exclusive: a box ending exactly on a cell
        # boundary does not include the next cell.
        lat_hi = int(math.nextafter((box.north + 90.0) / 180.0 * n_lat, -math.inf))
        lon_hi = int(math.nextafter((box.east + 180.0) / 360.0 * n_lon, -math.inf))
        lat_lo = max(0, min(lat_lo, n_lat - 1))
        lon_lo = max(0, min(lon_lo, n_lon - 1))
        return GridCover(
            precision,
            lat_lo,
            max(lat_lo, min(lat_hi, n_lat - 1)),
            lon_lo,
            max(lon_lo, min(lon_hi, n_lon - 1)),
        )

    @property
    def count(self) -> int:
        """Number of cells in the cover, without materializing them."""
        return (self.lat_hi - self.lat_lo + 1) * (self.lon_hi - self.lon_lo + 1)

    def within(self, max_cells: int | None) -> "GridCover":
        """This cover, or :class:`GeohashError` if it exceeds ``max_cells``.

        Guards against accidentally materializing a continental cover at
        a street-level precision; nothing is allocated before the check.
        """
        if max_cells is not None and self.count > max_cells:
            raise GeohashError(
                f"cover of {self.count} cells exceeds max_cells={max_cells}; "
                "lower the precision or shrink the box"
            )
        return self

    def bounds(self) -> BoundingBox:
        """The box snapped outward to cell boundaries.

        Bit for bit the union of the first and last cell's
        :func:`~repro.geo.geohash.bbox`, without building either cell.
        """
        height, width = cell_dimensions(self.precision)
        return BoundingBox(
            south=-90.0 + self.lat_lo * height,
            north=min(90.0, (-90.0 + self.lat_hi * height) + height),
            west=-180.0 + self.lon_lo * width,
            east=min(180.0, (-180.0 + self.lon_hi * width) + width),
        )

    def _shares(self, rows: range, cols: range) -> tuple[list[int], list[int]]:
        """Each row's and each column's share of its cells' bit-codes.

        A cell's code is its row's share OR its column's, so a cover
        spreads every index once — rows + columns, not rows x columns.
        """
        lon_bits, lat_bits = _bit_counts(self.precision)
        # The code's last bit is longitude exactly when its length is odd.
        odd = self.precision & 1
        return (
            [_spread(_SPREAD, row, lat_bits) << odd for row in rows],
            [_spread(_SPREAD, col, lon_bits) << (1 - odd) for col in cols],
        )

    def cells(self) -> list[str]:
        """The cells' geohash strings, row-major (south-to-north, west-to-east).

        Plain integer arithmetic, one :func:`label_of_code` per cell: the
        covers the read path names hold a handful of cells (median 2 on
        the benchmark's sessions), where an array pipeline's fixed cost
        is the whole cost.  It breaks even near 100 cells and takes 2.4x
        the array form at 5 000 (docs/performance.md, "Labels by table").
        """
        rows, cols = self._shares(
            range(self.lat_lo, self.lat_hi + 1), range(self.lon_lo, self.lon_hi + 1)
        )
        precision = self.precision
        return [label_of_code(row | col, precision) for row in rows for col in cols]

    def ring(self) -> list[str]:
        """The one-cell-wide ring of cells just outside the cover.

        This is the "immediate spatiotemporal neighborhood" that receives
        dispersed freshness when a region is accessed (paper Fig. 3, grey
        cells).  The grid does not wrap: rows past a pole and columns past
        the antimeridian are skipped, exactly as :meth:`of` clamps covers
        there.  (Wrapping here used to seed freshness on cells no query
        footprint could ever produce.)
        """
        lon_bits, lat_bits = _bit_counts(self.precision)
        first_row = max(0, self.lat_lo - 1)
        first_col = max(0, self.lon_lo - 1)
        rows, full = self._shares(
            range(first_row, min(1 << lat_bits, self.lat_hi + 2)),
            range(first_col, min(1 << lon_bits, self.lon_hi + 2)),
        )
        # Beside the cover's own rows only the flanking columns are ring.
        sides = full[: self.lon_lo - first_col] + full[self.lon_hi + 1 - first_col :]
        inside = range(self.lat_lo - first_row, self.lat_hi + 1 - first_row)
        precision = self.precision
        return [
            label_of_code(row | col, precision)
            for i, row in enumerate(rows)
            for col in (sides if i in inside else full)
        ]


def covering_count(box: BoundingBox, precision: int) -> int:
    """Number of cells in the cover, without materializing them."""
    return GridCover.of(box, precision).count


def covering_cells(
    box: BoundingBox, precision: int, max_cells: int | None = None
) -> list[str]:
    """All geohash cells at ``precision`` overlapping ``box``, row-major."""
    return GridCover.of(box, precision).within(max_cells).cells()

