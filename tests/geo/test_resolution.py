"""Tests for repro.geo.resolution (STASH level arithmetic)."""

import pytest
from hypothesis import given

from repro.errors import ResolutionError
from repro.geo.resolution import Resolution, ResolutionSpace
from repro.geo.temporal import TemporalResolution
from tests.reference import all_resolutions, num_levels, num_spatial, resolution_at
from tests.strategies import spaces


class TestResolution:
    def test_str(self):
        assert str(Resolution(5, TemporalResolution.MONTH)) == "s5/month"

    def test_invalid_spatial(self):
        with pytest.raises(ResolutionError):
            Resolution(0, TemporalResolution.DAY)
        with pytest.raises(ResolutionError):
            Resolution(13, TemporalResolution.DAY)


class TestResolutionSpace:
    def test_counts(self):
        space = ResolutionSpace(2, 6)
        assert num_spatial(space) == 5
        assert space.num_temporal == 4
        assert num_levels(space) == 20

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
            resolution_at(space, 20)
        with pytest.raises(ResolutionError):
            resolution_at(space, -1)

    @given(spaces())
    def test_level_bijection(self, space):
        seen = set()
        for level in range(num_levels(space)):
            res = resolution_at(space, level)
            assert space.level_of(res) == level
            seen.add(res)
        assert len(seen) == num_levels(space)

    @given(spaces())
    def test_all_resolutions_ordered(self, space):
        rs = all_resolutions(space)
        assert len(rs) == num_levels(space)
        levels = [space.level_of(r) for r in rs]
        assert levels == sorted(levels)
