"""Tests for AggregationQuery and QueryResult."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey, TimeRange
from repro.query.model import AggregationQuery, QueryResult
from tests.reference import box_area, box_contains, global_box, overlap_fraction

DAY_RANGE = TimeKey.of(2013, 2, 2).epoch_range()
RES = Resolution(4, TemporalResolution.DAY)


def q(box=None, time_range=DAY_RANGE, resolution=RES):
    return AggregationQuery(
        bbox=box or BoundingBox(35, 39, -110, -102),
        time_range=time_range,
        resolution=resolution,
    )


class TestFootprint:
    def test_footprint_size_matches_enumeration(self):
        query = q()
        assert query.footprint_size() == len(query.footprint())

    def test_footprint_cells_unique(self):
        cells = q().footprint()
        assert len(cells) == len(set(cells))

    def test_footprint_resolution(self):
        for key in q().footprint():
            assert key.resolution == RES

    def test_footprint_spans_temporal_bins(self):
        week = TimeRange(
            TimeKey.of(2013, 2, 2).epoch_range().start,
            TimeKey.of(2013, 2, 4).epoch_range().end,
        )
        query = q(time_range=week)
        days = {str(k.time_key) for k in query.footprint()}
        assert days == {"2013-02-02", "2013-02-03", "2013-02-04"}

    def test_footprint_guard(self):
        huge = q(
            box=global_box(),
            resolution=Resolution(6, TemporalResolution.DAY),
        )
        with pytest.raises(QueryError):
            huge.footprint()

    def test_snapped_bbox_contains_query(self):
        query = q()
        snapped = query.snapped_bbox()
        assert box_contains(snapped, query.bbox)

    def test_snapped_time_contains_query(self):
        query = q(time_range=TimeRange(DAY_RANGE.start + 100, DAY_RANGE.end - 100))
        snapped = query.snapped_time_range()
        assert snapped.start <= DAY_RANGE.start + 100
        assert snapped.end >= DAY_RANGE.end - 100


class TestNavigation:
    def test_panned_preserves_shape(self):
        query = q()
        moved = query.panned(1.0, -2.0)
        assert moved.bbox.height == pytest.approx(query.bbox.height)
        assert moved.bbox.width == pytest.approx(query.bbox.width)
        assert moved.resolution == query.resolution
        assert moved.query_id != query.query_id

    def test_diced_shrinks_area(self):
        query = q()
        smaller = query.diced(0.8)
        assert box_area(smaller.bbox) == pytest.approx(box_area(query.bbox) * 0.8)

    def test_at_resolution(self):
        query = q()
        finer = query.at_resolution(Resolution(5, TemporalResolution.DAY))
        assert finer.resolution.spatial == 5
        assert finer.bbox == query.bbox

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=30)
    def test_pan_overlap_decreases_with_distance(self, dlat, dlon):
        query = q()
        moved = query.panned(dlat, dlon)
        overlap = overlap_fraction(query.bbox, moved.bbox)
        assert 0.0 <= overlap <= 1.0


class TestQueryResult:
    def _result(self):
        import numpy as np

        from repro.data.statistics import SummaryVector

        query = q()
        keys = query.footprint()[:3]
        cells = {
            key: SummaryVector.from_arrays({"t": np.array([float(i), float(i + 1)])})
            for i, key in enumerate(keys)
        }
        return QueryResult(query=query, cells=cells, latency=0.5)

    def test_total_count(self):
        assert self._result().total_count == 6

    def test_overall_summary(self):
        result = self._result()
        merged = result.overall_summary()
        assert merged.count == 6
        assert merged["t"].minimum == 0.0
        assert merged["t"].maximum == 3.0

    def test_overall_summary_empty_raises(self):
        result = QueryResult(query=q(), cells={})
        with pytest.raises(QueryError):
            result.overall_summary()

    def test_matches(self):
        a, b = self._result(), self._result()
        b.cells = dict(a.cells)
        assert a.matches(b)
        b.cells.popitem()
        assert not a.matches(b)

    def test_to_json_dict(self):
        body = self._result().to_json_dict()
        assert body["latency"] == 0.5
        assert len(body["cells"]) == 3
        first = next(iter(body["cells"].values()))
        assert "t" in first and first["t"]["count"] == 2
