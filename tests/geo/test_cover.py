"""Tests for repro.geo.cover (query footprints)."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.keys import CellKey
from repro.errors import GeohashError
from repro.geo import cover as cover_module
from repro.geo import geohash as gh
from repro.geo.bbox import BoundingBox
from repro.geo.cover import GridCover, covering_cells, covering_count, expand_ring
from repro.geo.temporal import TimeKey
from tests.reference import (
    box_union,
    boxes_intersect,
    cover_cells_reference,
    cover_codes_reference,
    cover_ring_reference,
    global_box,
    neighborhood_ring,
    spatial_neighbors,
)
from tests.strategies import boxes, grid_covers, small_boxes

#: Precisions at which any box's cover stays small enough to materialize.
coarse = st.integers(1, 3)


class TestCoveringCells:
    def test_single_cell_box(self):
        box = gh.bbox("9q8y7")
        inner = BoundingBox(
            box.south + box.height * 0.25,
            box.north - box.height * 0.25,
            box.west + box.width * 0.25,
            box.east - box.width * 0.25,
        )
        assert covering_cells(inner, 5) == ["9q8y7"]

    def test_exact_cell_box(self):
        box = gh.bbox("9q8y")
        cells = covering_cells(box, 4)
        assert cells == ["9q8y"]

    def test_cell_cover_at_finer_precision_is_children(self):
        box = gh.bbox("9q8y")
        cells = covering_cells(box, 5)
        assert sorted(cells) == sorted(gh.children("9q8y"))

    def test_count_matches_cells(self):
        box = BoundingBox(30, 34, -110, -102)
        assert covering_count(box, 3) == len(covering_cells(box, 3))

    def test_max_cells_guard(self):
        box = global_box()
        with pytest.raises(GeohashError):
            covering_cells(box, 6, max_cells=100)

    def test_global_cover_at_precision_1(self):
        cells = covering_cells(global_box(), 1)
        assert sorted(cells) == sorted(gh.GEOHASH_ALPHABET)

    @given(small_boxes(), st.integers(2, 4))
    @settings(max_examples=60)
    def test_every_cover_cell_intersects_box(self, box, precision):
        for cell in covering_cells(box, precision):
            assert boxes_intersect(gh.bbox(cell), box)

    @given(small_boxes(), st.integers(2, 4))
    @settings(max_examples=60)
    def test_cover_is_complete(self, box, precision):
        """Corners and center of the box are inside some cover cell."""
        cells = set(covering_cells(box, precision))
        eps = 1e-9
        probes = [
            (box.south + eps, box.west + eps),
            (box.south + eps, box.east - eps),
            (box.north - eps, box.west + eps),
            (box.north - eps, box.east - eps),
            box.center,
        ]
        for lat, lon in probes:
            assert gh.encode(lat, lon, precision) in cells

    @given(small_boxes(), st.integers(2, 4))
    @settings(max_examples=40)
    def test_cover_unique(self, box, precision):
        cells = covering_cells(box, precision)
        assert len(cells) == len(set(cells))


class TestExpandRing:
    def test_ring_disjoint_from_cover(self):
        box = BoundingBox(30, 34, -110, -102)
        cover = set(covering_cells(box, 3))
        ring = set(expand_ring(box, 3))
        assert cover.isdisjoint(ring)

    def test_ring_cells_adjacent_to_cover(self):
        box = BoundingBox(30, 34, -110, -102)
        cover = set(covering_cells(box, 3))
        for cell in expand_ring(box, 3):
            assert any(nb in cover for nb in spatial_neighbors(cell))

    def test_ring_size_for_rectangular_cover(self):
        box = BoundingBox(30, 34, -110, -102)
        lat_lo_cells = covering_cells(box, 3)
        n = len(lat_lo_cells)
        ring = expand_ring(box, 3)
        # Perimeter of an a x b grid is 2a + 2b + 4.
        assert len(ring) >= 8
        assert len(ring) < n + 4 * (n ** 0.5 + 2) * 2

    def test_ring_clamps_at_antimeridian_east(self):
        """Regression: the ring used to wrap columns across ±180, seeding
        freshness on far-side cells no query footprint can produce."""
        box = BoundingBox(30, 34, 172, 180)
        cover = set(covering_cells(box, 3))
        for cell in expand_ring(box, 3):
            cell_box = gh.bbox(cell)
            # Nothing from the far (western) side of the seam.
            assert cell_box.east > 0
            assert any(nb in cover for nb in spatial_neighbors(cell))

    def test_ring_clamps_at_antimeridian_west(self):
        box = BoundingBox(30, 34, -180, -172)
        cover = set(covering_cells(box, 3))
        for cell in expand_ring(box, 3):
            cell_box = gh.bbox(cell)
            assert cell_box.west < 0
            assert any(nb in cover for nb in spatial_neighbors(cell))

    def test_ring_cells_reachable_by_some_cover(self):
        """Every ring cell at the seam is producible as a query cover cell
        (consistency between dispersal targets and query footprints)."""
        box = BoundingBox(60, 80, 160, 180)
        wider = BoundingBox(55, 85, 150, 180)
        reachable = set(covering_cells(wider, 2))
        assert set(expand_ring(box, 2)) <= reachable


class TestGridCover:
    """The cover as a value: everything below is read off five integers."""

    @given(boxes(), coarse)
    @settings(max_examples=80)
    def test_cells_are_row_major_cell_centres(self, box, precision):
        cover = GridCover.of(box, precision)
        cells = cover.cells()
        assert cover.count == len(cells) == covering_count(box, precision)
        assert cells == covering_cells(box, precision)
        height, width = gh.cell_dimensions(precision)
        centres = [
            (-90.0 + (row + 0.5) * height, -180.0 + (col + 0.5) * width)
            for row in range(cover.lat_lo, cover.lat_hi + 1)
            for col in range(cover.lon_lo, cover.lon_hi + 1)
        ]
        assert cells == [gh.encode(lat, lon, precision) for lat, lon in centres]
        assert cover_codes_reference(cover).tolist() == [
            gh.geohash_to_code(c) for c in cells
        ]

    @given(grid_covers())
    @settings(max_examples=300)
    def test_cells_and_ring_equal_the_array_twin(self, cover):
        """Every precision; covers flush against a pole or the
        antimeridian; one-cell-wide and one-cell-tall strips."""
        assert cover.cells() == cover_cells_reference(cover)
        assert cover.ring() == cover_ring_reference(cover)

    @given(boxes(), coarse)
    @settings(max_examples=80)
    def test_bounds_are_the_corner_cells_union_bit_for_bit(self, box, precision):
        cover = GridCover.of(box, precision)
        cells = cover.cells()
        expected = box_union(gh.bbox(cells[0]), gh.bbox(cells[-1]))
        got = cover.bounds()
        assert [v.hex() for v in (got.south, got.north, got.west, got.east)] == [
            v.hex()
            for v in (expected.south, expected.north, expected.west, expected.east)
        ]

    @given(boxes(), st.integers(1, 12))
    @settings(max_examples=120)
    def test_snapping_is_idempotent(self, box, precision):
        """``query_ring`` takes the ring of the *unsnapped* box's cover;
        the parent took it of the snapped box's.  Same cover."""
        cover = GridCover.of(box, precision)
        assert GridCover.of(cover.bounds(), precision) == cover

    @given(small_boxes(), st.integers(2, 4))
    @settings(max_examples=40)
    def test_ring_is_the_spatial_neighborhood(self, box, precision):
        day = TimeKey.of(2013, 2, 2)
        cover = GridCover.of(box, precision)
        # The reference's lateral neighbors wrap at the seam; the ring clamps
        # (next test), so compare where no neighbor crosses it.
        assume(0 < cover.lon_lo and cover.lon_hi < (1 << gh._bit_counts(precision)[0]) - 1)
        footprint = [CellKey(cell, day) for cell in cover.cells()]
        expected = {
            key.geohash for key in neighborhood_ring(footprint) if key.time_key == day
        }
        ring = cover.ring()
        assert len(ring) == len(set(ring))
        assert set(ring) == expected
        assert ring == expand_ring(box, precision)

    def test_ring_clamps_at_the_poles_and_the_seam(self):
        """The north-east corner of the grid: the ring is the row below
        and the column to the west, nothing wrapped to the far side."""
        precision = 2
        height, width = gh.cell_dimensions(precision)
        corner = BoundingBox(90 - 2 * height, 90.0, 180 - 3 * width, 180.0)
        cover = GridCover.of(corner, precision)
        lon_bits, lat_bits = gh._bit_counts(precision)
        assert (cover.lat_hi, cover.lon_hi) == ((1 << lat_bits) - 1, (1 << lon_bits) - 1)
        ring = cover.ring()
        assert len(ring) == (3 + 1) + 2
        for cell in ring:
            row, col = gh._to_indices(cell)
            assert row == cover.lat_lo - 1 or col == cover.lon_lo - 1
        south_west = GridCover.of(BoundingBox(-90.0, -89.0, -180.0, -179.0), precision)
        assert [gh._to_indices(c) for c in south_west.ring()] == [(0, 1), (1, 0), (1, 1)]
        assert GridCover.of(global_box(), 1).ring() == []

    def test_guard_raises_before_anything_is_allocated(self, monkeypatch):
        def no_cells(*args):
            raise AssertionError("materialized a guarded cover")

        monkeypatch.setattr(cover_module, "_spread", no_cells)
        monkeypatch.setattr(cover_module, "label_of_code", no_cells)
        globe = global_box()
        with pytest.raises(GeohashError, match="exceeds max_cells=100"):
            covering_cells(globe, 8, max_cells=100)
        cover = GridCover.of(globe, 12)
        assert cover.count == 1 << 60
        with pytest.raises(GeohashError):
            cover.within(2_000_000)
        assert cover.within(None) is cover
        assert cover.bounds() == globe
