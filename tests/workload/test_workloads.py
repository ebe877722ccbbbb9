"""Tests for the workload generators."""

import numpy as np
import pytest

from repro.data.generator import NAM_DOMAIN
from repro.errors import WorkloadError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.query.model import AggregationQuery
from repro.workload.hotspot import hotspot_workload, zipf_region_workload
from repro.workload.navigation import (
    dicing_sequence,
    pan_cloud,
    pan_sequence,
    zoom_sequence,
)
from repro.workload.queries import (
    QUERY_SIZE_EXTENTS,
    QuerySize,
    random_box,
    random_query,
)
from tests.reference import box_area, box_contains, overlap_fraction


@pytest.fixture()
def rng():
    return np.random.default_rng(11)


def base_query(height=4.0, width=8.0):
    return AggregationQuery(
        bbox=BoundingBox.from_center(38.0, -100.0, height, width),
        time_range=TimeKey.of(2013, 2, 2).epoch_range(),
        resolution=Resolution(4, TemporalResolution.DAY),
    )


class TestQuerySizes:
    @pytest.mark.parametrize("size", list(QuerySize))
    def test_random_box_extents(self, rng, size):
        height, width = QUERY_SIZE_EXTENTS[size]
        for _ in range(10):
            box = random_box(rng, size, NAM_DOMAIN)
            assert box.height == pytest.approx(height)
            assert box.width == pytest.approx(width)
            assert box_contains(NAM_DOMAIN, box)

    def test_extent_exceeding_domain(self, rng):
        tiny = BoundingBox(0, 1, 0, 1)
        with pytest.raises(WorkloadError):
            random_box(rng, QuerySize.COUNTRY, tiny)

    def test_random_query_defaults(self, rng):
        query = random_query(rng, QuerySize.STATE, NAM_DOMAIN)
        assert query.resolution == Resolution(4, TemporalResolution.DAY)
        assert query.time_range == TimeKey.of(2013, 2, 2).epoch_range()

    def test_reproducible(self):
        a = random_query(np.random.default_rng(3), QuerySize.CITY, NAM_DOMAIN)
        b = random_query(np.random.default_rng(3), QuerySize.CITY, NAM_DOMAIN)
        assert a.bbox == b.bbox


class TestPanSequence:
    def test_eight_directions_plus_base(self):
        queries = pan_sequence(base_query(), 0.25)
        assert len(queries) == 9
        assert queries[0].bbox == base_query().bbox

    def test_pan_preserves_extent(self):
        base = base_query()
        for query in pan_sequence(base, 0.2):
            assert query.bbox.height == pytest.approx(base.bbox.height)
            assert query.bbox.width == pytest.approx(base.bbox.width)

    def test_overlap_decreases_with_fraction(self):
        base = base_query()
        small_overlap = min(
            overlap_fraction(base.bbox, q.bbox) for q in pan_sequence(base, 0.25)[1:]
        )
        large_overlap = min(
            overlap_fraction(base.bbox, q.bbox) for q in pan_sequence(base, 0.10)[1:]
        )
        assert large_overlap > small_overlap

    def test_bad_fraction(self):
        with pytest.raises(WorkloadError):
            pan_sequence(base_query(), 0.0)
        with pytest.raises(WorkloadError):
            pan_sequence(base_query(), 0.5, directions=9)


class TestDicingSequence:
    def test_descending_shrinks(self):
        queries = dicing_sequence(base_query(16, 32), steps=5)
        areas = [box_area(q.bbox) for q in queries]
        assert all(a > b for a, b in zip(areas, areas[1:]))
        assert areas[-1] == pytest.approx(areas[0] * 0.8 ** 4)

    def test_paper_final_size(self):
        """Country start, 5 steps of 20% reduction -> ~(5.2, 10.4) area."""
        queries = dicing_sequence(base_query(16, 32), steps=5)
        final = queries[-1].bbox
        # sqrt(0.8^4) shrink per axis: 16 * 0.8^2 = 10.24 -> ~(10.2, 20.5)
        # The paper's (5.2, 10.4) implies per-axis 0.8 reduction; verify
        # monotone 20% area reduction instead of matching their arithmetic.
        assert box_area(final) == pytest.approx(16 * 32 * 0.8 ** 4, rel=1e-6)

    def test_ascending_is_reverse(self):
        desc = dicing_sequence(base_query(), steps=4)
        asc = dicing_sequence(base_query(), steps=4, ascending=True)
        assert [q.bbox for q in asc] == [q.bbox for q in desc[::-1]]

    def test_nested(self):
        queries = dicing_sequence(base_query(), steps=4)
        for bigger, smaller in zip(queries, queries[1:]):
            assert box_contains(bigger.bbox, smaller.bbox)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            dicing_sequence(base_query(), steps=0)
        with pytest.raises(WorkloadError):
            dicing_sequence(base_query(), shrink_factor=1.0)


class TestZoomSequence:
    def test_drill_down(self):
        queries = zoom_sequence(base_query(), 2, 5)
        assert [q.resolution.spatial for q in queries] == [2, 3, 4, 5]
        assert all(q.bbox == base_query().bbox for q in queries)

    def test_roll_up(self):
        queries = zoom_sequence(base_query(), 5, 2)
        assert [q.resolution.spatial for q in queries] == [5, 4, 3, 2]

    def test_same_resolution_rejected(self):
        with pytest.raises(WorkloadError):
            zoom_sequence(base_query(), 3, 3)


class TestPanCloud:
    def test_counts(self, rng):
        queries = pan_cloud(rng, QuerySize.COUNTY, NAM_DOMAIN, 5, 10)
        assert len(queries) == 50

    def test_locality(self, rng):
        """Consecutive queries within one center overlap heavily."""
        queries = pan_cloud(rng, QuerySize.STATE, NAM_DOMAIN, 1, 10, 0.1)
        overlaps = [
            overlap_fraction(a.bbox, b.bbox) for a, b in zip(queries, queries[1:])
        ]
        assert min(overlaps) > 0.7


class TestHotspotWorkloads:
    def test_hotspot_centered(self, rng):
        queries = hotspot_workload(rng, NAM_DOMAIN, 50)
        assert len(queries) == 50
        base = queries[0].bbox
        for query in queries:
            # Random walk stays near the start for county-sized boxes.
            assert abs(query.bbox.center[0] - base.center[0]) < 5.0

    def test_hotspot_validation(self, rng):
        with pytest.raises(WorkloadError):
            hotspot_workload(rng, NAM_DOMAIN, 0)

    def test_zipf_skew(self, rng):
        queries = zipf_region_workload(rng, NAM_DOMAIN, 400, num_regions=8)
        assert len(queries) == 400
        # Bucket queries by nearest region center: top region dominates.
        centers = {}
        for query in queries:
            key = (round(query.bbox.center[0]), round(query.bbox.center[1]))
            centers[key] = centers.get(key, 0) + 1
        counts = sorted(centers.values(), reverse=True)
        assert counts[0] > 400 / 8

    def test_zipf_validation(self, rng):
        with pytest.raises(WorkloadError):
            zipf_region_workload(rng, NAM_DOMAIN, 10, num_regions=0)
        with pytest.raises(WorkloadError):
            zipf_region_workload(rng, NAM_DOMAIN, 10, zipf_s=0)
