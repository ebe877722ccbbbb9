"""Brute-force reference engine: query answers from raw observations.

Every existing test compared system components against each other (or
against :func:`~repro.storage.backend.ground_truth_cells`, which shares
the vectorized ``grouped_summaries`` kernel with the production scan
path).  :class:`BruteForceOracle` removes that blind spot: it bins each
record with the *scalar* geohash encoder and the *scalar*
datetime-based time binner, and accumulates statistics with
``math.fsum`` — a from-scratch recomputation sharing no aggregation
code with the system under test.  Slow by design; conformance datasets
are small.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.keys import CellKey
from repro.data.observation import ObservationBatch
from repro.data.statistics import AttributeSummary, SummaryVector
from repro.geo.geohash import encode
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery

#: Value tolerance: production pairwise reductions vs the oracle's fsum.
DEFAULT_REL_TOL = 1e-9


def _summarize(values: list[float]) -> AttributeSummary:
    """Exact scalar summary of a list of raw values.

    ``math.fsum`` is correctly rounded, so the oracle's totals are the
    most trustworthy side of any comparison; the production path's
    pairwise reductions must agree within ``approx_equal`` tolerance.
    """
    return AttributeSummary(
        count=len(values),
        total=math.fsum(values),
        total_sq=math.fsum(v * v for v in values),
        minimum=min(values),
        maximum=max(values),
    )


def reference_merge(
    vectors: list[SummaryVector], attributes: list[str]
) -> SummaryVector:
    """Monoid merge reimplemented from the definition, for metamorphic checks.

    Independent of :meth:`SummaryVector.merge` (and of
    :func:`repro.core.aggregation.merge_summaries`) on purpose: a
    metamorphic relation like parent = merge(children) must not verify a
    corrupted merge with the same corrupted merge.
    """
    summaries: dict[str, AttributeSummary] = {}
    for name in attributes:
        count = 0
        totals: list[float] = []
        totals_sq: list[float] = []
        minimum, maximum = math.inf, -math.inf
        for vec in vectors:
            s = vec[name]
            count += s.count
            totals.append(s.total)
            totals_sq.append(s.total_sq)
            if s.count:
                minimum = min(minimum, s.minimum)
                maximum = max(maximum, s.maximum)
        summaries[name] = AttributeSummary(
            count=count,
            total=math.fsum(totals),
            total_sq=math.fsum(totals_sq),
            minimum=minimum,
            maximum=maximum,
        )
    return SummaryVector(summaries)


class BruteForceOracle:
    """Answers any query by re-scanning the raw dataset record-by-record.

    Per-record bin labels are memoized per (spatial precision, temporal
    resolution) pair — computed once with scalar code, reused by every
    query of a campaign — so a 500-query campaign stays in the seconds
    range without compromising independence.
    """

    def __init__(self, batch: ObservationBatch):
        self.batch = batch
        self._geohashes: dict[int, list[str]] = {}
        self._time_keys: dict[TemporalResolution, list[TimeKey]] = {}

    # -- memoized scalar binning ------------------------------------------

    def _geohash_column(self, precision: int) -> list[str]:
        column = self._geohashes.get(precision)
        if column is None:
            lats = self.batch.lats.tolist()
            lons = self.batch.lons.tolist()
            column = [encode(lat, lon, precision) for lat, lon in zip(lats, lons)]
            self._geohashes[precision] = column
        return column

    def _time_column(self, resolution: TemporalResolution) -> list[TimeKey]:
        column = self._time_keys.get(resolution)
        if column is None:
            column = [
                TimeKey.from_epoch(epoch, resolution)
                for epoch in self.batch.epochs.tolist()
            ]
            self._time_keys[resolution] = column
        return column

    # -- the oracle --------------------------------------------------------

    def answer(self, query: AggregationQuery) -> dict[CellKey, SummaryVector]:
        """The exact answer: non-empty cells over the snapped query extent.

        Mirrors the documented query semantics (cells are aggregates over
        full cell extents, so the request is snapped outward to cell
        boundaries) while sharing no aggregation code with any engine.
        """
        snapped_box = query.snapped_bbox()
        snapped_time = query.snapped_time_range()
        batch = self.batch
        mask = (
            (batch.lats >= snapped_box.south)
            & (batch.lats < snapped_box.north)
            & (batch.lons >= snapped_box.west)
            & (batch.lons < snapped_box.east)
            & (batch.epochs >= snapped_time.start)
            & (batch.epochs < snapped_time.end)
        )
        indices = np.flatnonzero(mask).tolist()
        geohashes = self._geohash_column(query.resolution.spatial)
        time_keys = self._time_column(query.resolution.temporal)
        groups: dict[CellKey, list[int]] = {}
        for i in indices:
            key = CellKey(geohash=geohashes[i], time_key=time_keys[i])
            groups.setdefault(key, []).append(i)

        wanted = (
            batch.attribute_names
            if query.attributes is None
            else list(query.attributes)
        )
        columns = {name: batch.attributes[name].tolist() for name in wanted}
        out: dict[CellKey, SummaryVector] = {}
        for key, idx in groups.items():
            out[key] = SummaryVector(
                {
                    name: _summarize([column[i] for i in idx])
                    for name, column in columns.items()
                }
            )
        if query.polygon is not None:
            footprint = set(query.footprint())
            out = {key: vec for key, vec in out.items() if key in footprint}
        return out

    def total_in(self, query: AggregationQuery) -> int:
        """Observation count inside the snapped extent (sanity probes)."""
        answer = self.answer(query)
        return sum(vec.count for vec in answer.values())
