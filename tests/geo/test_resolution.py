"""Tests for repro.geo.resolution (STASH level arithmetic)."""

import pytest
from hypothesis import given

from repro.errors import ResolutionError
from repro.geo.resolution import Resolution, ResolutionSpace
from repro.geo.temporal import TemporalResolution
from tests.strategies import spaces


class TestResolution:
    def test_str(self):
        assert str(Resolution(5, TemporalResolution.MONTH)) == "s5/month"

    def test_invalid_spatial(self):
        with pytest.raises(ResolutionError):
            Resolution(0, TemporalResolution.DAY)
        with pytest.raises(ResolutionError):
            Resolution(13, TemporalResolution.DAY)

    def test_three_parent_kinds(self):
        r = Resolution(5, TemporalResolution.DAY)
        parents = r.parents()
        assert Resolution(4, TemporalResolution.DAY) in parents
        assert Resolution(5, TemporalResolution.MONTH) in parents
        assert Resolution(4, TemporalResolution.MONTH) in parents
        assert len(parents) == 3

    def test_parents_at_coarsest(self):
        assert Resolution(1, TemporalResolution.YEAR).parents() == []

    def test_children_at_finest(self):
        assert Resolution(12, TemporalResolution.HOUR).children_resolutions() == []

    def test_parent_child_duality(self):
        r = Resolution(5, TemporalResolution.DAY)
        for p in r.parents():
            assert r in p.children_resolutions()


class TestResolutionSpace:
    def test_counts(self):
        space = ResolutionSpace(2, 6)
        assert space.num_spatial == 5
        assert space.num_temporal == 4
        assert space.num_levels == 20

    def test_invalid_range(self):
        with pytest.raises(ResolutionError):
            ResolutionSpace(5, 3)
        with pytest.raises(ResolutionError):
            ResolutionSpace(0, 3)

    def test_max_spatial_beyond_packed_ids_refused(self):
        """Precision 8 is the finest a 64-bit bin id holds at HOUR
        (8 * 5 + 24 bits); the space refuses anything the scan layer
        could not serve at every temporal resolution."""
        assert ResolutionSpace(1, 8).max_spatial == 8
        with pytest.raises(ResolutionError, match="64-bit bin id"):
            ResolutionSpace(1, 9)

    def test_level_formula(self):
        # level = spatial_idx * n_t + temporal_idx (paper section IV-C)
        space = ResolutionSpace(2, 6)
        assert space.level_of(Resolution(2, TemporalResolution.YEAR)) == 0
        assert space.level_of(Resolution(2, TemporalResolution.HOUR)) == 3
        assert space.level_of(Resolution(3, TemporalResolution.YEAR)) == 4
        assert space.level_of(Resolution(6, TemporalResolution.HOUR)) == 19

    def test_level_outside_space(self):
        space = ResolutionSpace(2, 6)
        with pytest.raises(ResolutionError):
            space.level_of(Resolution(1, TemporalResolution.DAY))
        with pytest.raises(ResolutionError):
            space.resolution_at(20)
        with pytest.raises(ResolutionError):
            space.resolution_at(-1)

    @given(spaces())
    def test_level_bijection(self, space):
        seen = set()
        for level in range(space.num_levels):
            res = space.resolution_at(level)
            assert space.level_of(res) == level
            seen.add(res)
        assert len(seen) == space.num_levels

    @given(spaces())
    def test_all_resolutions_ordered(self, space):
        rs = space.all_resolutions()
        assert len(rs) == space.num_levels
        levels = [space.level_of(r) for r in rs]
        assert levels == sorted(levels)

    def test_parents_within_clips_boundary(self):
        space = ResolutionSpace(2, 6)
        edge = Resolution(2, TemporalResolution.DAY)
        parents = space.parents_within(edge)
        # Spatial parent (precision 1) is outside the space.
        assert all(p.spatial >= 2 for p in parents)
        assert Resolution(2, TemporalResolution.MONTH) in parents

    def test_children_within_clips_boundary(self):
        space = ResolutionSpace(2, 6)
        edge = Resolution(6, TemporalResolution.DAY)
        kids = space.children_within(edge)
        assert all(k.spatial <= 6 for k in kids)
        assert Resolution(6, TemporalResolution.HOUR) in kids

    @given(spaces())
    def test_parents_one_level_or_more_coarser(self, space):
        for res in space.all_resolutions():
            level = space.level_of(res)
            for p in space.parents_within(res):
                assert space.level_of(p) < level
