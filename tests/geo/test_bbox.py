"""Unit and property tests for repro.geo.bbox, and for the box relations
the other tests use as tools (``tests/reference.py``)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GeohashError
from repro.geo.bbox import BoundingBox
from tests.reference import (
    box_area,
    box_contains,
    box_intersection,
    box_union,
    boxes_intersect,
    global_box,
    overlap_fraction,
)
from tests.strategies import boxes


class TestConstruction:
    def test_valid(self):
        box = BoundingBox(-10, 10, -20, 20)
        assert box.height == 20
        assert box.width == 40
        assert box_area(box) == 800
        assert box.center == (0, 0)

    @pytest.mark.parametrize(
        "args",
        [
            (10, -10, 0, 1),  # south > north
            (0, 0, 0, 1),  # empty lat
            (0, 1, 20, -20),  # west > east
            (-91, 0, 0, 1),  # below globe
            (0, 91, 0, 1),
            (0, 1, -181, 0),
            (0, 1, 0, 181),
        ],
    )
    def test_invalid(self, args):
        with pytest.raises(GeohashError):
            BoundingBox(*args)

    def test_global_box(self):
        g = global_box()
        assert box_area(g) == 180 * 360

    def test_from_center(self):
        box = BoundingBox.from_center(40.0, -105.0, 4.0, 8.0)
        assert box.center == pytest.approx((40.0, -105.0))
        assert box.height == pytest.approx(4.0)
        assert box.width == pytest.approx(8.0)


class TestRelations:
    def test_contains_box(self):
        outer = BoundingBox(0, 10, 0, 10)
        inner = BoundingBox(2, 8, 2, 8)
        assert box_contains(outer, inner)
        assert not box_contains(inner, outer)
        assert box_contains(outer, outer)

    def test_intersection_disjoint(self):
        a = BoundingBox(0, 1, 0, 1)
        b = BoundingBox(5, 6, 5, 6)
        assert not boxes_intersect(a, b)
        assert box_intersection(a, b) is None

    def test_intersection_touching_edges_is_empty(self):
        a = BoundingBox(0, 1, 0, 1)
        b = BoundingBox(1, 2, 0, 1)
        assert not boxes_intersect(a, b)

    def test_intersection_value(self):
        a = BoundingBox(0, 10, 0, 10)
        b = BoundingBox(5, 15, -5, 5)
        inter = box_intersection(a, b)
        assert inter == BoundingBox(5, 10, 0, 5)

    def test_overlap_fraction(self):
        a = BoundingBox(0, 10, 0, 10)
        b = BoundingBox(0, 10, 5, 15)
        assert overlap_fraction(a, b) == pytest.approx(0.5)
        assert overlap_fraction(a, a) == pytest.approx(1.0)

    @given(boxes(), boxes())
    def test_intersection_symmetric(self, a, b):
        assert boxes_intersect(a, b) == boxes_intersect(b, a)
        ia, ib = box_intersection(a, b), box_intersection(b, a)
        assert ia == ib

    @given(boxes(), boxes())
    def test_intersection_contained_in_both(self, a, b):
        inter = box_intersection(a, b)
        if inter is not None:
            assert box_contains(a, inter)
            assert box_contains(b, inter)

    @given(boxes(), boxes())
    def test_union_contains_both(self, a, b):
        u = box_union(a, b)
        assert box_contains(u, a)
        assert box_contains(u, b)


class TestTransforms:
    def test_translate_simple(self):
        box = BoundingBox(0, 1, 0, 1).translated(5, -5)
        assert box == BoundingBox(5, 6, -5, -4)

    def test_translate_clamps_at_pole(self):
        box = BoundingBox(85, 89, 0, 1).translated(10, 0)
        assert box.north == 90
        assert box.height == pytest.approx(4)

    def test_translate_clamps_at_antimeridian(self):
        box = BoundingBox(0, 1, 175, 179).translated(0, 10)
        assert box.east == 180
        assert box.width == pytest.approx(4)

    def test_scaled_area(self):
        box = BoundingBox(10, 20, 10, 30)
        smaller = box.scaled(0.8)
        assert box_area(smaller) == pytest.approx(box_area(box) * 0.8, rel=1e-9)
        assert box_contains(box, smaller)

    def test_scaled_preserves_center(self):
        box = BoundingBox(10, 20, 10, 30)
        smaller = box.scaled(0.5)
        assert smaller.center == pytest.approx(box.center)

    def test_scaled_invalid(self):
        with pytest.raises(GeohashError):
            BoundingBox(0, 1, 0, 1).scaled(0)

    @given(boxes(min_size=0.5), st.floats(0.1, 0.99))
    def test_scaled_down_always_contained(self, box, factor):
        assert box_contains(box, box.scaled(factor))

    @given(boxes(min_size=0.5))
    def test_translate_preserves_area(self, box):
        moved = box.translated(3.0, -7.0)
        assert math.isclose(box_area(moved), box_area(box), rel_tol=1e-9)
