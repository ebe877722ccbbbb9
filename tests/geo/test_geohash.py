"""Unit and property tests for repro.geo.geohash."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeohashError
from repro.geo import geohash as gh
from tests.reference import interleave_reference
from tests.strategies import geohashes, lats, lons, precisions


class TestEncodeDecode:
    def test_known_value(self):
        # Reference value from geohash.org: San Francisco area.
        assert gh.encode(37.7749, -122.4194, 5) == "9q8yy"

    def test_paper_cell(self):
        # The paper's running example is cell 9q8y7 (Fig. 1a).
        box = gh.bbox("9q8y7")
        lat, lon = box.center
        assert gh.encode(lat, lon, 5) == "9q8y7"

    def test_invalid_precision(self):
        with pytest.raises(GeohashError):
            gh.encode(0, 0, 0)
        with pytest.raises(GeohashError):
            gh.encode(0, 0, 13)

    def test_invalid_coordinates(self):
        with pytest.raises(GeohashError):
            gh.encode(91, 0, 5)
        with pytest.raises(GeohashError):
            gh.encode(0, 181, 5)

    def test_invalid_character(self):
        with pytest.raises(GeohashError):
            gh.bbox("9q8ya")  # 'a' is not in the alphabet

    @given(lats, lons, precisions)
    def test_roundtrip_bbox_contains_point(self, lat, lon, precision):
        code = gh.encode(lat, lon, precision)
        box = gh.bbox(code)
        # Top/right globe edges land in the last (closed) cell; points
        # within one float ULP of a bin boundary may round either way.
        eps = 1e-9
        assert box.south - eps <= lat <= box.north + eps
        assert box.west - eps <= lon <= box.east + eps

    @given(lats, lons, precisions)
    def test_decode_center_reencodes(self, lat, lon, precision):
        code = gh.encode(lat, lon, precision)
        clat, clon = gh.decode(code)
        assert gh.encode(clat, clon, precision) == code

    @given(geohashes())
    def test_cell_dimensions_match_bbox(self, code):
        height, width = gh.cell_dimensions(len(code))
        box = gh.bbox(code)
        assert box.height == pytest.approx(height, rel=1e-9)
        assert box.width == pytest.approx(width, rel=1e-6)


class TestHierarchy:
    def test_children_count_and_prefix(self):
        kids = gh.children("9q8y")
        assert len(kids) == 32
        assert all(k.startswith("9q8y") and len(k) == 5 for k in kids)
        assert "9q8y7" in kids

    @given(geohashes(max_precision=6))
    def test_children_tile_parent_exactly(self, code):
        parent_box = gh.bbox(code)
        kid_boxes = [gh.bbox(k) for k in gh.children(code)]
        total = sum(b.area for b in kid_boxes)
        assert total == pytest.approx(parent_box.area, rel=1e-9)
        for b in kid_boxes:
            assert parent_box.south <= b.south and b.north <= parent_box.north + 1e-12
            assert parent_box.west <= b.west and b.east <= parent_box.east + 1e-9


class TestNeighbors:
    def test_paper_example_neighbors(self):
        # Paper Fig. 1a: 9q8y7's 8 spatial neighbors.
        expected = {"9q8yd", "9q8ye", "9q8ys", "9q8yk", "9q8yh", "9q8y5", "9q8y4", "9q8y6"}
        assert set(gh.neighbors("9q8y7")) == expected

    @given(geohashes(min_precision=2, max_precision=6))
    def test_neighbor_symmetry(self, code):
        for nb in gh.neighbors(code):
            assert code in gh.neighbors(nb)

    @given(geohashes(min_precision=2, max_precision=6))
    def test_neighbors_are_adjacent(self, code):
        box = gh.bbox(code)
        for nb in gh.neighbors(code):
            nbox = gh.bbox(nb)
            # Adjacent cells share a boundary or corner: expanded boxes
            # must intersect (handle antimeridian wrap via either side).
            lat_touch = not (nbox.north < box.south - 1e-9 or nbox.south > box.north + 1e-9)
            lon_gap = min(
                abs(nbox.west - box.east),
                abs(box.west - nbox.east),
                abs(nbox.west - box.west),
            )
            assert lat_touch
            assert lon_gap < 360.0  # sanity; wrap handled below
        assert len(gh.neighbors(code)) in (5, 8)

    def test_polar_cell_has_fewer_neighbors(self):
        north_pole_cell = gh.encode(89.9, 0.0, 4)
        assert len(gh.neighbors(north_pole_cell)) == 5

    def test_antimeridian_wrap(self):
        west_edge = gh.encode(0.0, -179.99, 4)
        nbs = gh.neighbors(west_edge)
        # One neighbor must lie on the far east side of the globe.
        assert any(gh.bbox(nb).east == 180.0 for nb in nbs)

    def test_shift(self):
        code = "9q8y7"
        east = gh.shift(code, 0, 1)
        assert east in gh.neighbors(code)
        assert gh.shift(east, 0, -1) == code

    def test_shift_off_pole_returns_none(self):
        top = gh.encode(89.99, 0.0, 3)
        lat_steps = 0
        probe = top
        while probe is not None:
            probe = gh.shift(probe, 1, 0)
            lat_steps += 1
            assert lat_steps < 10_000
        assert lat_steps >= 1


class TestAntipode:
    def test_antipode_is_far(self):
        code = "9q8y7"
        anti = gh.antipode(code)
        lat1, lon1 = gh.decode(code)
        lat2, lon2 = gh.decode(anti)
        assert abs(lat1 + lat2) < 1.0
        assert 179.0 < abs(lon1 - lon2) <= 181.0

    @given(geohashes(min_precision=2, max_precision=7))
    @settings(max_examples=50)
    def test_antipode_involution_within_one_cell(self, code):
        back = gh.antipode(gh.antipode(code))
        assert back == code or back in gh.neighbors(code)

    def test_antipode_preserves_precision(self):
        assert len(gh.antipode("9q8y7x")) == 6


class TestVectorized:
    @given(st.lists(st.tuples(lats, lons), min_size=1, max_size=64), precisions)
    @settings(max_examples=50)
    def test_encode_many_matches_scalar(self, points, precision):
        la = np.array([p[0] for p in points])
        lo = np.array([p[1] for p in points])
        vec = gh.encode_many(la, lo, precision)
        scalar = [gh.encode(p[0], p[1], precision) for p in points]
        assert vec.tolist() == scalar

    def test_encode_many_shape_mismatch(self):
        with pytest.raises(GeohashError):
            gh.encode_many(np.zeros(3), np.zeros(4), 5)

    def test_encode_many_out_of_range(self):
        with pytest.raises(GeohashError):
            gh.encode_many(np.array([95.0]), np.array([0.0]), 5)

    def test_encode_many_empty(self):
        out = gh.encode_many(np.array([]), np.array([]), 5)
        assert out.size == 0

    def test_encode_many_2d(self):
        la = np.array([[0.0, 10.0], [20.0, 30.0]])
        lo = np.array([[0.0, 10.0], [20.0, 30.0]])
        out = gh.encode_many(la, lo, 4)
        assert out.shape == (2, 2)
        assert out[0, 0] == gh.encode(0.0, 0.0, 4)


class TestSpreadTable:
    """The byte-spread table against the per-bit loop it replaced."""

    @staticmethod
    def indices(precision: int, count: int = 200, seed: int = 0):
        """Random (lat, lon) bin indices plus both extremes of each axis."""
        lon_bits, lat_bits = gh._bit_counts(precision)
        rng = np.random.default_rng([seed, precision])
        top_lat, top_lon = (1 << lat_bits) - 1, (1 << lon_bits) - 1
        la = np.append(rng.integers(0, top_lat + 1, count), [0, top_lat, 0, top_lat])
        lo = np.append(rng.integers(0, top_lon + 1, count), [0, top_lon, top_lon, 0])
        return la.astype(np.uint64), lo.astype(np.uint64)

    def test_table_is_the_even_bit_spread(self):
        assert len(gh._SPREAD) == 256
        for byte, spread in enumerate(gh._SPREAD):
            assert spread == int("".join("0" + b for b in f"{byte:08b}"), 2)
            assert gh._COMPACT[spread] == byte
        assert gh._SPREAD_U64.dtype == np.uint64
        assert gh._SPREAD_U64.tolist() == list(gh._SPREAD)

    @pytest.mark.parametrize("precision", range(1, gh.MAX_PRECISION + 1))
    def test_vector_interleave_matches_the_bit_loop(self, precision):
        la, lo = self.indices(precision)
        expected = interleave_reference(la, lo, precision)
        for dtype in (np.uint64, np.intp):
            got = gh._interleave_many(la.astype(dtype), lo.astype(dtype), precision)
            assert got.dtype == np.uint64
            assert got.tolist() == expected.tolist()

    @pytest.mark.parametrize("precision", range(1, gh.MAX_PRECISION + 1))
    def test_scalar_paths_match_the_bit_loop_and_invert(self, precision):
        la, lo = self.indices(precision, count=50, seed=1)
        strings = gh.codes_to_geohashes(
            interleave_reference(la, lo, precision), precision
        ).tolist()
        for row, col, text in zip(la.tolist(), lo.tolist(), strings):
            assert gh._from_indices(row, col, precision) == text
            assert gh._to_indices(text) == (row, col)

    @pytest.mark.parametrize("precision", [1, 3, 4, 6, 7, 12])
    def test_a_column_against_a_row_is_the_grid(self, precision):
        la, lo = self.indices(precision, count=5, seed=2)
        grid = gh._interleave_many(la[:, None], lo, precision)
        rows, cols = np.meshgrid(la, lo, indexing="ij")
        assert grid.shape == (la.size, lo.size)
        assert grid.tolist() == interleave_reference(rows, cols, precision).tolist()


class TestLabelOfCode:
    """One code to one string by the two-character table."""

    def test_table_spells_every_ten_bits(self):
        assert len(gh._PAIRS) == 1024
        for value, pair in enumerate(gh._PAIRS):
            assert pair == gh.GEOHASH_ALPHABET[value >> 5] + gh.GEOHASH_ALPHABET[value & 31]

    @given(st.integers(1, gh.MAX_PRECISION).flatmap(
        lambda p: st.tuples(st.integers(0, 32**p - 1) | st.sampled_from((0, 32**p - 1)), st.just(p))
    ))
    @settings(max_examples=300)
    def test_equals_the_array_form_and_round_trips(self, drawn):
        code, precision = drawn
        label = gh.label_of_code(code, precision)
        assert label == gh.codes_to_geohashes(np.array([code]), precision)[0]
        assert len(label) == precision and gh.geohash_to_code(label) == code

    @pytest.mark.parametrize("precision", (1, 2, 5, 12))
    def test_rejects_a_code_outside_the_precision(self, precision):
        for code in (-1, 32**precision, 1 << 64):
            with pytest.raises(GeohashError, match="bit-code"):
                gh.label_of_code(code, precision)
        for bad in (0, gh.MAX_PRECISION + 1):
            with pytest.raises(GeohashError, match="precision"):
                gh.label_of_code(0, bad)


class TestVectorScalarEdges:
    """``encode_many`` equals ``encode`` point for point on the values
    where clamping and rounding can disagree: the closed top edges, both
    zeros, and the floats just inside each edge."""

    LATS = [-90.0, np.nextafter(-90.0, 0.0), -0.0, 0.0, np.nextafter(90.0, 0.0), 90.0]
    LONS = [-180.0, np.nextafter(-180.0, 0.0), -0.0, 0.0, np.nextafter(180.0, 0.0), 180.0]

    @pytest.mark.parametrize("precision", range(1, gh.MAX_PRECISION + 1))
    def test_edges(self, precision):
        la, lo = (a.ravel() for a in np.meshgrid(self.LATS, self.LONS, indexing="ij"))
        vec = gh.encode_many(la, lo, precision).tolist()
        assert vec == [gh.encode(a, b, precision) for a, b in zip(la.tolist(), lo.tolist())]
        # The closed top edges land in the last row/column, not past it.
        assert gh.encode(90.0, 180.0, precision) == "z" * precision


class TestNonFiniteRejection:
    """NaN comparisons are all-False, so a min/max range check alone lets
    NaN through and ``astype(np.uint64)`` turns it into a garbage code;
    every encoder must reject non-finite coordinates explicitly."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_encode_rejects_non_finite_lat(self, bad):
        with pytest.raises(GeohashError):
            gh.encode(bad, 0.0, 5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_encode_rejects_non_finite_lon(self, bad):
        with pytest.raises(GeohashError):
            gh.encode(0.0, bad, 5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_encode_many_rejects_non_finite(self, bad):
        good = np.array([10.0, 20.0])
        poisoned = np.array([10.0, bad])
        with pytest.raises(GeohashError):
            gh.encode_many(poisoned, good, 5)
        with pytest.raises(GeohashError):
            gh.encode_many(good, poisoned, 5)

    def test_spatial_codes_rejects_non_finite(self):
        with pytest.raises(GeohashError):
            gh.spatial_codes(np.array([float("nan")]), np.array([0.0]), 5)


class TestSpatialCodes:
    @given(st.lists(st.tuples(lats, lons), min_size=1, max_size=64), precisions)
    @settings(max_examples=50)
    def test_codes_roundtrip_to_strings(self, points, precision):
        la = np.array([p[0] for p in points])
        lo = np.array([p[1] for p in points])
        codes = gh.spatial_codes(la, lo, precision)
        assert codes.dtype == np.uint64
        strings = gh.codes_to_geohashes(codes, precision)
        assert strings.tolist() == gh.encode_many(la, lo, precision).tolist()
        for code, text in zip(codes.tolist(), strings.tolist()):
            assert gh.geohash_to_code(text) == code

    @given(st.lists(st.tuples(lats, lons), min_size=2, max_size=64), precisions)
    @settings(max_examples=50)
    def test_code_order_matches_string_order(self, points, precision):
        """The alphabet is ASCII-ascending, so uint64 codes sort exactly
        like same-precision geohash strings — the property that keeps the
        columnar pipeline's group order identical to the string path's."""
        la = np.array([p[0] for p in points])
        lo = np.array([p[1] for p in points])
        codes = gh.spatial_codes(la, lo, precision)
        strings = gh.encode_many(la, lo, precision)
        assert np.argsort(codes, kind="stable").tolist() == np.argsort(
            strings, kind="stable"
        ).tolist()

    def test_geohash_to_code_rejects_bad_character(self):
        with pytest.raises(GeohashError):
            gh.geohash_to_code("9q8ya")
