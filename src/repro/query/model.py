"""Query and result types (paper section II-B).

An :class:`AggregationQuery` is the backend form of the SQL shape the
paper gives: aggregate every attribute over the records inside
``Query_Polygon`` x ``Query_Time``, grouped by (spatial_resolution,
temporal_resolution) bins.  The result is one
:class:`~repro.data.statistics.SummaryVector` per non-empty bin — the
"set of pixel-level aggregations" the front-end renders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.core.keys import CellKey
from repro.data.statistics import SummaryVector
from repro.errors import QueryError
from repro.geo.bbox import BoundingBox
from repro.geo.cover import GridCover
from repro.geo.resolution import Resolution
from repro.geo.temporal import TimeKey, TimeRange

_query_ids = itertools.count()

#: Canonical provenance vocabulary every engine's ``evaluate`` reply uses.
#: - ``cells_from_cache``: result cells answered from an in-memory cache
#:   (STASH graph / guest graph / ES request cache).
#: - ``cells_from_rollup``: cells recomputed from cached finer-resolution
#:   cells (STASH roll-up; always 0 for the baselines).
#: - ``cells_from_disk``: cells that required scanning raw storage.
#: - ``disk_blocks_read``: storage blocks (or ES chunks) fetched from disk.
#: - ``rerouted``: 1 when a replica/guest graph served the query.
PROVENANCE_KEYS = (
    "cells_from_cache",
    "cells_from_rollup",
    "cells_from_disk",
    "disk_blocks_read",
    "rerouted",
)


@dataclass(slots=True)
class _Footprint:
    """What a query's extent and resolution determine, each derived once."""

    #: Grid cover of the query *box* (a polygon thins ``spatial`` only).
    cover: GridCover
    #: How many temporal bins the time range overlaps.
    time_key_count: int
    #: Those bins, the footprint's spatial cells and the footprint, once
    #: asked for.
    time_keys: list[TimeKey] | None = None
    spatial: list[str] | None = None
    cells: list[CellKey] | None = None


@dataclass(frozen=True)
class AggregationQuery:
    """One visual-exploration query against the backend."""

    bbox: BoundingBox
    time_range: TimeRange
    resolution: Resolution
    #: Attributes to aggregate; None means every stored attribute.
    attributes: tuple[str, ...] | None = None
    #: Optional polygonal refinement of the area (the paper's
    #: Query_Polygon); when set, the footprint keeps only the cells whose
    #: centers fall inside it.  ``bbox`` must enclose the polygon — use
    #: :meth:`for_polygon` to construct these consistently.
    polygon: "object | None" = None
    #: Workload class of the gesture that produced this query ("pan",
    #: "zoom", "drill", or "other") — the grouping key for per-class
    #: latency histograms and SLO targets.  Excluded from equality so a
    #: tagged query answers identically to an untagged twin.
    kind: str = field(default="other", compare=False)
    query_id: int = field(default_factory=lambda: next(_query_ids))
    #: Memoized cover, time keys and :meth:`footprint`.  A query object
    #: crosses several evaluation sites (client session, coordinator,
    #: guest helper, scan) that each need the same cover or something
    #: read off it; deriving it once removes the dominant repeated
    #: planning cost.  Excluded from eq/hash/repr.
    _footprint_cache: "_Footprint | None" = field(
        default=None, init=False, compare=False, repr=False
    )

    #: Safety valve against continental covers at street precision.
    MAX_FOOTPRINT_CELLS = 2_000_000

    @staticmethod
    def for_polygon(
        polygon,
        time_range: TimeRange,
        resolution: Resolution,
        attributes: tuple[str, ...] | None = None,
    ) -> "AggregationQuery":
        """A query over an arbitrary simple polygon."""
        return AggregationQuery(
            bbox=polygon.bbox,
            time_range=time_range,
            resolution=resolution,
            attributes=attributes,
            polygon=polygon,
        )

    def _derived(self) -> _Footprint:
        memo = self._footprint_cache
        if memo is None:
            memo = _Footprint(
                GridCover.of(self.bbox, self.resolution.spatial),
                self.time_range.key_count(self.resolution.temporal),
            )
            object.__setattr__(self, "_footprint_cache", memo)
        return memo

    def grid_cover(self) -> GridCover:
        """Grid cover of the query box at the query's spatial precision."""
        return self._derived().cover

    def time_keys(self) -> list[TimeKey]:
        """The temporal bins the query's time range overlaps, in order."""
        memo = self._derived()
        if memo.time_keys is None:
            memo.time_keys = self.time_range.covering_keys(self.resolution.temporal)
        return memo.time_keys

    def footprint_size(self) -> int:
        """Number of cells this query touches.

        For rectangles this is pure arithmetic — no cell and no time key
        is built, however long the time range; a polygon requires
        materializing its cover once.
        """
        memo = self._derived()
        spatial = (
            memo.cover.count if self.polygon is None else len(self._spatial_cover())
        )
        return spatial * memo.time_key_count

    def _spatial_cover(self) -> list[str]:
        memo = self._derived()
        if memo.spatial is None:
            if self.polygon is None:
                memo.spatial = memo.cover.within(self.MAX_FOOTPRINT_CELLS).cells()
            else:
                from repro.geo.polygon import covering_cells_polygon

                memo.spatial = covering_cells_polygon(
                    self.polygon,
                    self.resolution.spatial,
                    max_cells=self.MAX_FOOTPRINT_CELLS,
                )
        return memo.spatial

    def box_cells(self) -> list[str]:
        """Cells of :meth:`grid_cover`: the footprint's, unless a polygon thins it."""
        if self.polygon is None:
            return self._spatial_cover()
        return self.grid_cover().cells()

    def footprint(self) -> list[CellKey]:
        """Every cell key the query's extent covers at its resolution.

        This is the unit of work for both the cache lookup and the raw
        scan: the query answer is exactly the summaries of these cells
        (empty ones omitted).

        The result is memoized on the (frozen) query: coordinators, guest
        helpers, and client sessions all re-derive the same footprint for
        one query object, so it is computed once and shared.  Callers must
        treat the returned list as read-only.
        """
        memo = self._derived()
        if memo.cells is None:
            # A rectangle's size is pure arithmetic, so it is rejected
            # before anything is materialized; a polygon's is that of its
            # *filtered* cover (the bbox cover wildly overestimates a thin
            # lasso), itself capped inside covering_cells_polygon.
            size = self.footprint_size()
            if size > self.MAX_FOOTPRINT_CELLS:
                shape = "query" if self.polygon is None else "polygon"
                raise QueryError(
                    f"{shape} footprint of {size} cells exceeds "
                    f"{self.MAX_FOOTPRINT_CELLS}; lower the resolution"
                )
            time_keys = self.time_keys()
            memo.cells = [
                CellKey(geohash=s, time_key=t)
                for s in self._spatial_cover()
                for t in time_keys
            ]
        return memo.cells

    def snapped_bbox(self) -> BoundingBox:
        """The query box snapped outward to cell boundaries.

        Cached cells are aggregates over *full* cell extents (that is what
        makes them reusable across queries, paper section V-B), so query
        semantics snap the requested rectangle to the covering cells'
        union — arithmetic on the cover, no cell is materialized.
        """
        return self.grid_cover().within(self.MAX_FOOTPRINT_CELLS).bounds()

    def snapped_time_range(self) -> TimeRange:
        """The query time range snapped outward to temporal bin boundaries."""
        return TimeRange.from_keys(self.time_keys())

    # -- navigation helpers (OLAP operators, paper section V-B) ------------

    def panned(self, dlat: float, dlon: float) -> "AggregationQuery":
        """The query after a pan gesture (polygon moves with the box)."""
        return AggregationQuery(
            bbox=self.bbox.translated(dlat, dlon),
            time_range=self.time_range,
            resolution=self.resolution,
            attributes=self.attributes,
            polygon=None if self.polygon is None else self.polygon.translated(dlat, dlon),
            kind="pan",
        )

    def diced(self, area_factor: float) -> "AggregationQuery":
        """The query after shrinking/growing the selection area."""
        return AggregationQuery(
            bbox=self.bbox.scaled(area_factor),
            time_range=self.time_range,
            resolution=self.resolution,
            attributes=self.attributes,
            polygon=None if self.polygon is None else self.polygon.scaled(area_factor),
            kind="zoom",
        )

    def at_resolution(self, resolution: Resolution) -> "AggregationQuery":
        """The query after a drill-down/roll-up to another resolution."""
        return AggregationQuery(
            bbox=self.bbox,
            time_range=self.time_range,
            resolution=resolution,
            attributes=self.attributes,
            polygon=self.polygon,
            kind="drill",
        )

    def clone(self) -> "AggregationQuery":
        """An identical query with a fresh ``query_id``.

        Re-submitting the *same* object would reuse its id (and memoized
        footprint) across runs; experiments and correctness harnesses
        that replay a query clone it so each submission is a distinct
        request.
        """
        return AggregationQuery(
            bbox=self.bbox,
            time_range=self.time_range,
            resolution=self.resolution,
            attributes=self.attributes,
            polygon=self.polygon,
            kind=self.kind,
        )

    # -- partitions (conformance harness + divergence shrinking) -----------

    def split_spatial(self) -> list["AggregationQuery"]:
        """Partition this query into two sub-queries along a cell boundary.

        The halves' footprints partition this query's footprint exactly
        (cell covers nest on geohash grid lines), which is what makes
        query-split additivity — ``answer(Q) == answer(A) ∪ answer(B)``
        for disjoint ``A``, ``B`` — a checkable metamorphic relation and a
        sound shrinking step for minimal-failing-query search.  Returns
        ``[]`` when the cover is a single cell column/row that cannot be
        split, or for polygon queries (their covers are not rectangles).
        """
        if self.polygon is not None:
            return []
        cover = self.grid_cover()
        if cover.lon_lo < cover.lon_hi:
            middle = cover.lon_lo + (cover.lon_hi - cover.lon_lo + 1) // 2
            halves = [replace(cover, lon_hi=middle - 1), replace(cover, lon_lo=middle)]
        elif cover.lat_lo < cover.lat_hi:
            middle = cover.lat_lo + (cover.lat_hi - cover.lat_lo + 1) // 2
            halves = [replace(cover, lat_hi=middle - 1), replace(cover, lat_lo=middle)]
        else:
            return []
        return [
            AggregationQuery(
                bbox=half.bounds(),
                time_range=self.time_range,
                resolution=self.resolution,
                attributes=self.attributes,
            )
            for half in halves
        ]

    def split_temporal(self) -> list["AggregationQuery"]:
        """Partition this query into two halves along a temporal bin edge.

        Complements :meth:`split_spatial`; returns ``[]`` when the time
        range covers a single bin.
        """
        keys = self.time_keys()
        if len(keys) < 2:
            return []
        mid = len(keys) // 2
        return [
            AggregationQuery(
                bbox=self.bbox,
                time_range=TimeRange.from_keys(list(half)),
                resolution=self.resolution,
                attributes=self.attributes,
                polygon=self.polygon,
            )
            for half in (keys[:mid], keys[mid:])
        ]


@dataclass
class QueryResult:
    """Backend answer: per-cell summaries plus evaluation provenance."""

    query: AggregationQuery
    cells: dict[CellKey, SummaryVector]
    #: Simulated seconds the evaluation took end-to-end.
    latency: float = 0.0
    #: Provenance counters; every engine emits :data:`PROVENANCE_KEYS`.
    provenance: dict[str, int] = field(default_factory=dict)
    #: Critical-path latency attribution (seconds per category, summing
    #: to ``latency``); None unless tracing was enabled for the run.
    attribution: dict[str, float] | None = None
    #: Fraction of the query footprint actually answered.  1.0 for a
    #: full answer; < 1.0 when failure recovery returned a degraded
    #: partial answer (unreachable cells are omitted, never faked).
    completeness: float = 1.0

    @property
    def degraded(self) -> bool:
        """True when the answer is an explicit partial (completeness < 1)."""
        return self.completeness < 1.0

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[CellKey]:
        return iter(self.cells)

    @property
    def total_count(self) -> int:
        """Total observations aggregated across all result cells."""
        return sum(vec.count for vec in self.cells.values())

    def overall_summary(self) -> SummaryVector:
        """All result cells merged into one summary (the map legend)."""
        if not self.cells:
            raise QueryError("result has no cells to merge")
        return SummaryVector.merge_all(list(self.cells.values()))

    def matches(self, other: "QueryResult", rel: float = 1e-9) -> bool:
        """Value equality with fp tolerance (for correctness testing)."""
        if set(self.cells) != set(other.cells):
            return False
        return all(
            vec.approx_equal(other.cells[key], rel=rel)
            for key, vec in self.cells.items()
        )

    def to_json_dict(self) -> dict:
        """JSON-serializable body for the visualization front-end."""
        out = {
            "query_id": self.query.query_id,
            "resolution": str(self.query.resolution),
            "latency": self.latency,
            "provenance": dict(self.provenance),
            "cells": {str(key): vec.to_json_dict() for key, vec in self.cells.items()},
        }
        if self.attribution is not None:
            out["attribution"] = dict(self.attribution)
        if self.completeness < 1.0:
            out["completeness"] = self.completeness
        return out
