"""Unit tests for planar geometry primitives."""

import math

import pytest

from repro.network.geometry import Point, PolarOffset, Region, displace_xy


class TestPoint:
    def test_distance_is_euclidean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_distance_is_symmetric(self):
        a, b = Point(1.5, -2.0), Point(-4.0, 7.25)
        assert a.distance_to(b) == b.distance_to(a)

    def test_offset_displace_roundtrip(self):
        a = Point(10.0, 20.0)
        b = Point(-3.5, 42.0)
        offset = a.offset_to(b)
        back = displace_xy(a.x, a.y, offset.r, offset.theta)
        assert back == (pytest.approx(b.x), pytest.approx(b.y))

    def test_offset_to_self_is_zero_range(self):
        p = Point(1.0, 1.0)
        assert p.offset_to(p).r == 0.0

    def test_translated(self):
        assert Point(1, 2).translated(3, -1) == Point(4, 1)

    def test_iter_and_tuple(self):
        p = Point(1.0, 2.0)
        assert tuple(p) == (1.0, 2.0)

    def test_points_are_hashable_value_types(self):
        assert Point(1, 2) == Point(1, 2)
        assert len({Point(1, 2), Point(1, 2)}) == 1


class TestPolarOffset:
    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            PolarOffset(r=-1.0, theta=0.0)


class TestRegion:
    def test_square_properties(self):
        r = Region.square(100.0)
        assert r.width == 100.0
        assert r.height == 100.0
        assert r.center == Point(50.0, 50.0)

    def test_contains_includes_boundary(self):
        r = Region.square(10.0)
        assert r.contains(Point(0.0, 0.0))
        assert r.contains(Point(10.0, 10.0))
        assert not r.contains(Point(10.01, 5.0))

    def test_clamp_projects_outside_points(self):
        r = Region.square(10.0)
        assert r.clamp(Point(-5.0, 20.0)) == Point(0.0, 10.0)
        assert r.clamp(Point(5.0, 5.0)) == Point(5.0, 5.0)

    def test_degenerate_region_rejected(self):
        with pytest.raises(ValueError):
            Region(0.0, 0.0, -1.0, 5.0)

    def test_nonpositive_square_rejected(self):
        with pytest.raises(ValueError):
            Region.square(0.0)

    @pytest.mark.parametrize("bounds", [
        (0.0, 0.0, math.nan, 10.0),
        (0.0, math.nan, 10.0, 10.0),
        (0.0, 0.0, math.inf, 10.0),
        (-math.inf, 0.0, 10.0, 10.0),
        (0.0, 0.0, 10.0, math.inf),
        (-1e308, 0.0, 1e308, 10.0),  # finite bounds, infinite side
    ])
    def test_non_finite_side_rejected(self, bounds):
        """A uniform draw over the region checks nothing, so the region
        refuses what rng.uniform used to."""
        with pytest.raises(ValueError, match="finite"):
            Region(*bounds)

    @pytest.mark.parametrize("side", [math.inf, math.nan])
    def test_non_finite_square_rejected(self, side):
        with pytest.raises(ValueError, match="finite"):
            Region.square(side)
