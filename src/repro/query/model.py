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
from repro.errors import QueryError, TemporalError
from repro.geo.bbox import BoundingBox
from repro.geo.cover import GridCover
from repro.geo.resolution import Resolution
from repro.geo.temporal import TimeKey, TimeRange, time_key_of_code

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

    #: Grid cover of the query box.
    cover: GridCover
    #: Codes of the temporal bins the time range overlaps.
    time_codes: range
    #: Those bins, the footprint's spatial cells, the footprint, the
    #: cover's ring and the bins flanking the time range, once asked for.
    time_keys: list[TimeKey] | None = None
    spatial: list[str] | None = None
    cells: list[CellKey] | None = None
    ring: list[str] | None = None
    flanks: tuple[TimeKey, ...] | None = None


@dataclass(frozen=True)
class AggregationQuery:
    """One visual-exploration query against the backend."""

    bbox: BoundingBox
    time_range: TimeRange
    resolution: Resolution
    #: Attributes to aggregate; None means every stored attribute.
    attributes: tuple[str, ...] | None = None
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

    def _derived(self) -> _Footprint:
        memo = self._footprint_cache
        if memo is None:
            memo = _Footprint(
                GridCover.of(self.bbox, self.resolution.spatial),
                self.time_range.bin_codes(self.resolution.temporal),
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

        Pure arithmetic — no cell and no time key is built, however long
        the time range.
        """
        memo = self._derived()
        return memo.cover.count * len(memo.time_codes)

    def box_cells(self) -> list[str]:
        """The geohash cells of :meth:`grid_cover`, in cover order."""
        memo = self._derived()
        if memo.spatial is None:
            memo.spatial = memo.cover.within(self.MAX_FOOTPRINT_CELLS).cells()
        return memo.spatial

    def neighborhood(self) -> tuple[list[str], tuple[TimeKey, ...]]:
        """The cover's ring and the bins flanking the time keys, derived
        once for every owner that builds its share of the ring.

        The flanks are the bin codes either side of the range's; one past
        either end of the calendar is left out, as no cell is there.
        """
        memo = self._derived()
        if memo.flanks is None:
            codes, temporal = memo.time_codes, self.resolution.temporal
            flanks = []
            for code in (codes[0] - 1, codes[-1] + 1):
                try:
                    flanks.append(time_key_of_code(code, temporal))
                except TemporalError:
                    pass
            memo.ring = memo.cover.ring()
            memo.flanks = tuple(flanks)
        return memo.ring, memo.flanks

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
            # The size is pure arithmetic, so an oversized query is
            # rejected before anything is materialized.
            size = self.footprint_size()
            if size > self.MAX_FOOTPRINT_CELLS:
                raise QueryError(
                    f"query footprint of {size} cells exceeds "
                    f"{self.MAX_FOOTPRINT_CELLS}; lower the resolution"
                )
            time_keys = self.time_keys()
            memo.cells = [
                CellKey(geohash=s, time_key=t)
                for s in self.box_cells()
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
        """The query after a pan gesture."""
        return AggregationQuery(
            bbox=self.bbox.translated(dlat, dlon),
            time_range=self.time_range,
            resolution=self.resolution,
            attributes=self.attributes,
            kind="pan",
        )

    def diced(self, area_factor: float) -> "AggregationQuery":
        """The query after shrinking/growing the selection area."""
        return AggregationQuery(
            bbox=self.bbox.scaled(area_factor),
            time_range=self.time_range,
            resolution=self.resolution,
            attributes=self.attributes,
            kind="zoom",
        )

    def at_resolution(self, resolution: Resolution) -> "AggregationQuery":
        """The query after a drill-down/roll-up to another resolution."""
        return AggregationQuery(
            bbox=self.bbox,
            time_range=self.time_range,
            resolution=resolution,
            attributes=self.attributes,
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
        split.
        """
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

    def differences(self, twin: "QueryResult") -> list[str]:
        """Byte-identity check against ``twin``; empty means identical.

        Same cell keys, bitwise-equal summaries, same completeness: what
        the socket cluster owes its simulated twin, and what an explored
        schedule of a serial, fault-free run owes the canonical one.
        """
        problems: list[str] = []
        missing = twin.cells.keys() - self.cells.keys()
        extra = self.cells.keys() - twin.cells.keys()
        if missing:
            problems.append(f"missing {len(missing)} cells (e.g. {min(missing)})")
        if extra:
            problems.append(f"extra {len(extra)} cells (e.g. {min(extra)})")
        for key in sorted(twin.cells.keys() & self.cells.keys()):
            if self.cells[key] != twin.cells[key]:
                problems.append(f"summary mismatch at {key}")
                break  # one example is enough; the report stays readable
        if self.completeness != twin.completeness:
            problems.append(f"completeness {self.completeness} != twin {twin.completeness}")
        return problems

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
