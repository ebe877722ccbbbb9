"""query_ring vs neighborhood_ring equivalence on box footprints.

:func:`repro.core.freshness.query_ring` computes the dispersion ring
from box geometry in O(perimeter + cover); it must produce exactly the
same cell set as the general O(cells x 10) reference
(:func:`tests.reference.neighborhood_ring`) for every rectangular query, including the degenerate shapes the query
path actually emits (single-cell covers, single time bins, time ranges
that end exactly on bin boundaries).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.freshness import query_ring
from repro.geo import geohash as gh
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey, TimeRange
from repro.query.model import AggregationQuery
from tests.reference import neighborhood_ring

DAY = TimeKey.of(2013, 2, 2)


def make_query(
    bbox: BoundingBox,
    time_range: TimeRange,
    spatial: int = 3,
    temporal: TemporalResolution = TemporalResolution.DAY,
) -> AggregationQuery:
    return AggregationQuery(
        bbox=bbox,
        time_range=time_range,
        resolution=Resolution(spatial, temporal),
    )


def assert_rings_equivalent(query: AggregationQuery) -> None:
    footprint = query.footprint()
    fast = query_ring(query)
    general = neighborhood_ring(footprint)
    assert set(fast) == set(general)
    # Both forms must also exclude the footprint itself.
    assert set(fast).isdisjoint(footprint)


class TestRingEquivalence:
    def test_multi_cell_multi_day(self):
        time_range = TimeRange(
            DAY.epoch_range().start, DAY.step(2).epoch_range().start
        )
        assert_rings_equivalent(
            make_query(BoundingBox(35, 38, -107, -103), time_range)
        )

    def test_single_cell_footprint(self):
        """A box strictly inside one geohash cell, one time bin: the ring
        is exactly the cell's 8 spatial neighbors x 1 bin + itself in the
        2 adjacent bins."""
        cell_box = gh.bbox("9q8")
        lat = (cell_box.south + cell_box.north) / 2
        lon = (cell_box.west + cell_box.east) / 2
        eps = 1e-4
        query = make_query(
            BoundingBox(lat - eps, lat + eps, lon - eps, lon + eps),
            DAY.epoch_range(),
        )
        assert len(query.footprint()) == 1
        assert_rings_equivalent(query)
        assert len(set(query_ring(query))) == 10

    def test_single_cell_column_through_time(self):
        """One spatial cell, several days: interior time bins' spatial
        neighbors plus the two temporal end caps."""
        cell_box = gh.bbox("9q8")
        lat = (cell_box.south + cell_box.north) / 2
        lon = (cell_box.west + cell_box.east) / 2
        query = make_query(
            BoundingBox(lat - 1e-4, lat + 1e-4, lon - 1e-4, lon + 1e-4),
            TimeRange(DAY.epoch_range().start, DAY.step(3).epoch_range().start),
        )
        assert_rings_equivalent(query)

    def test_time_range_ending_exactly_on_bin_edge(self):
        """end == the exclusive edge of a bin must not pull in an extra
        bin, and the ring must still match the general form."""
        day_range = DAY.epoch_range()
        query = make_query(
            BoundingBox(35, 37, -106, -104),
            TimeRange(day_range.start, day_range.end),
        )
        assert_rings_equivalent(query)

    def test_hour_resolution_across_midnight(self):
        start = DAY.epoch_range().end - 3600.0
        query = make_query(
            BoundingBox(35, 36, -106, -105),
            TimeRange(start, start + 7200.0),
            temporal=TemporalResolution.HOUR,
        )
        assert_rings_equivalent(query)

    def test_first_hour_of_day_edge(self):
        start = DAY.epoch_range().start
        query = make_query(
            BoundingBox(35, 36, -106, -105),
            TimeRange(start, start + 3600.0),
            temporal=TemporalResolution.HOUR,
        )
        assert_rings_equivalent(query)

    def test_coarse_resolution_wide_box(self):
        assert_rings_equivalent(
            make_query(
                BoundingBox(20, 45, -120, -80), DAY.epoch_range(), spatial=2
            )
        )

    @given(
        lat=st.floats(-60.0, 60.0),
        lon=st.floats(-150.0, 150.0),
        dlat=st.floats(0.05, 4.0),
        dlon=st.floats(0.05, 4.0),
        spatial=st.integers(2, 3),
        days=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_boxes(self, lat, lon, dlat, dlon, spatial, days):
        time_range = TimeRange(
            DAY.epoch_range().start, DAY.step(days).epoch_range().start
        )
        query = make_query(
            BoundingBox(lat, lat + dlat, lon, lon + dlon),
            time_range,
            spatial=spatial,
        )
        assert_rings_equivalent(query)
