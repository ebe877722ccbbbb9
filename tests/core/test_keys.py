"""Tests for CellKey: computed hierarchical and lateral edges."""

import pytest
from hypothesis import given, settings

from repro.core.keys import CellKey
from repro.errors import CacheError
from repro.geo import geohash as gh
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from tests.strategies import cell_keys


class TestIdentity:
    def test_str_parse_roundtrip(self):
        key = CellKey("9q8y7", TimeKey.of(2015, 3))
        assert str(key) == "9q8y7@2015-03"
        assert CellKey.parse(str(key)) == key

    def test_parse_invalid(self):
        with pytest.raises(CacheError):
            CellKey.parse("no-separator")

    def test_resolution(self):
        key = CellKey("9q8y7", TimeKey.of(2015, 3))
        assert key.resolution == Resolution(5, TemporalResolution.MONTH)

    def test_bbox_and_time_range(self):
        key = CellKey("9q8y7", TimeKey.of(2015, 3))
        assert key.bbox == gh.bbox("9q8y7")
        assert key.time_range == TimeKey.of(2015, 3).epoch_range()


class TestHierarchicalEdges:
    def test_spatial_children(self):
        key = CellKey("9q8y", TimeKey.of(2015, 3))
        kids = key.spatial_children()
        assert len(kids) == 32
        assert all(k.time_key == key.time_key for k in kids)
        assert CellKey("9q8y7", TimeKey.of(2015, 3)) in kids

    def test_temporal_children(self):
        key = CellKey("9q8y", TimeKey.of(2015, 3))
        kids = key.temporal_children()
        assert len(kids) == 31  # March has 31 days
        assert all(k.geohash == "9q8y" for k in kids)

    def test_temporal_children_at_hour(self):
        key = CellKey("9q8y", TimeKey.of(2015, 3, 14, 7))
        assert key.temporal_children() == []

    def test_both_axis_children(self):
        key = CellKey("9q", TimeKey.of(2015, 3))
        kids = key.children("both")
        assert len(kids) == 32 * 31

    def test_unknown_axis(self):
        with pytest.raises(CacheError):
            CellKey("9q", TimeKey.of(2015)).children("diagonal")

    @given(cell_keys(min_precision=2, max_precision=5))
    @settings(max_examples=50)
    def test_parent_child_duality(self, key):
        # The key appears among the children of each one-step-coarser
        # cell, along the axis that was coarsened.
        coarser_space = key.geohash[:-1]
        assert key in CellKey(coarser_space, key.time_key).spatial_children()
        if key.time_key.resolution != TemporalResolution.YEAR:
            coarser_time = key.time_key.parent()
            assert key in CellKey(key.geohash, coarser_time).temporal_children()
            assert key in CellKey(coarser_space, coarser_time).children("both")

    @given(cell_keys())
    @settings(max_examples=50)
    def test_spatial_children_nest_in_parent(self, key):
        for child in key.spatial_children():
            assert key.bbox.contains_box(child.bbox)
            assert (child.geohash[:-1], child.time_key) == (key.geohash, key.time_key)


class TestLateralEdges:
    def test_paper_example(self):
        key = CellKey("9q8y7", TimeKey.of(2015, 3))
        spatial = {k.geohash for k in key.spatial_neighbors()}
        assert spatial == {
            "9q8yd", "9q8ye", "9q8ys", "9q8yk", "9q8yh", "9q8y5", "9q8y4", "9q8y6",
        }
        temporal = [str(k.time_key) for k in key.temporal_neighbors()]
        assert temporal == ["2015-02", "2015-04"]

    @given(cell_keys())
    @settings(max_examples=30)
    def test_lateral_symmetry(self, key):
        for neighbor in key.lateral_neighbors():
            assert key in neighbor.lateral_neighbors()

    @given(cell_keys())
    @settings(max_examples=30)
    def test_lateral_same_resolution(self, key):
        for neighbor in key.lateral_neighbors():
            assert neighbor.resolution == key.resolution

