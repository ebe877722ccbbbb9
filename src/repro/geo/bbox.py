"""Latitude/longitude bounding boxes.

A :class:`BoundingBox` is a closed-open rectangle ``[south, north) x
[west, east)`` in degrees.  Boxes never wrap the antimeridian; workload
generators that would cross it clamp instead (the paper's query rectangles
are random boxes over the data's spatial coverage, which is safely inside
the NAM domain, so this mirrors its setup).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import GeohashError

LAT_MIN, LAT_MAX = -90.0, 90.0
LON_MIN, LON_MAX = -180.0, 180.0


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """A geographic rectangle ``[south, north) x [west, east)``.

    Parameters
    ----------
    south, north:
        Latitude bounds in degrees, ``-90 <= south < north <= 90``.
    west, east:
        Longitude bounds in degrees, ``-180 <= west < east <= 180``.
    """

    south: float
    north: float
    west: float
    east: float

    def __post_init__(self) -> None:
        if not (LAT_MIN <= self.south < self.north <= LAT_MAX):
            raise GeohashError(
                f"invalid latitude bounds: south={self.south}, north={self.north}"
            )
        if not (LON_MIN <= self.west < self.east <= LON_MAX):
            raise GeohashError(
                f"invalid longitude bounds: west={self.west}, east={self.east}"
            )

    # -- geometry -----------------------------------------------------------

    @property
    def height(self) -> float:
        """Latitudinal extent in degrees."""
        return self.north - self.south

    @property
    def width(self) -> float:
        """Longitudinal extent in degrees."""
        return self.east - self.west

    @property
    def center(self) -> tuple[float, float]:
        """(lat, lon) midpoint."""
        return ((self.south + self.north) / 2.0, (self.west + self.east) / 2.0)

    # -- transforms ---------------------------------------------------------

    def translated(self, dlat: float, dlon: float) -> "BoundingBox":
        """Shifted copy, clamped to stay inside the globe."""
        south, north = self.south + dlat, self.north + dlat
        west, east = self.west + dlon, self.east + dlon
        if south < LAT_MIN:
            north += LAT_MIN - south
            south = LAT_MIN
        if north > LAT_MAX:
            south -= north - LAT_MAX
            north = LAT_MAX
        if west < LON_MIN:
            east += LON_MIN - west
            west = LON_MIN
        if east > LON_MAX:
            west -= east - LON_MAX
            east = LON_MAX
        return BoundingBox(south, north, west, east)

    def scaled(self, factor: float) -> "BoundingBox":
        """Copy scaled about the center by ``sqrt(factor)`` per axis.

        ``factor`` is an *area* factor: ``scaled(0.8)`` shrinks the area by
        20% (the paper's iterative-dicing step).
        """
        if factor <= 0:
            raise GeohashError(f"scale factor must be positive, got {factor}")
        lin = math.sqrt(factor)
        clat, clon = self.center
        half_h = self.height * lin / 2.0
        half_w = self.width * lin / 2.0
        return BoundingBox(
            south=max(LAT_MIN, clat - half_h),
            north=min(LAT_MAX, clat + half_h),
            west=max(LON_MIN, clon - half_w),
            east=min(LON_MAX, clon + half_w),
        )

    @staticmethod
    def from_center(
        lat: float, lon: float, height: float, width: float
    ) -> "BoundingBox":
        """Box of the given extents centered at (lat, lon), clamped."""
        box = BoundingBox(
            south=max(LAT_MIN, -height / 2.0 + min(max(lat, LAT_MIN), LAT_MAX)),
            north=min(LAT_MAX, height / 2.0 + min(max(lat, LAT_MIN), LAT_MAX)),
            west=max(LON_MIN, -width / 2.0 + min(max(lon, LON_MIN), LON_MAX)),
            east=min(LON_MAX, width / 2.0 + min(max(lon, LON_MIN), LON_MAX)),
        )
        return box
