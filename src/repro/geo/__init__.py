"""Geospatial and temporal primitives: bounding boxes, geohashes, time keys.

This subpackage is dependency-free within the project (only numpy) and is
shared by the storage backend, the STASH cache, the baselines, and the
workload generators.
"""

from repro.geo.bbox import BoundingBox
from repro.geo.geohash import (
    GEOHASH_ALPHABET,
    antipode,
    bbox as geohash_bbox,
    cell_dimensions,
    children,
    decode,
    encode,
    encode_many,
    neighbors,
)
from repro.geo.temporal import TemporalResolution, TimeKey, TimeRange
from repro.geo.resolution import Resolution, ResolutionSpace
from repro.geo.cover import covering_cells, covering_count

__all__ = [
    "BoundingBox",
    "GEOHASH_ALPHABET",
    "antipode",
    "geohash_bbox",
    "cell_dimensions",
    "children",
    "decode",
    "encode",
    "encode_many",
    "neighbors",
    "TemporalResolution",
    "TimeKey",
    "TimeRange",
    "Resolution",
    "ResolutionSpace",
    "covering_cells",
    "covering_count",
]
