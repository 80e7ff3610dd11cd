"""Property-based tests for geometry primitives."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.network.geometry import Point, Region, displace_xy

coords = st.floats(min_value=-1000.0, max_value=1000.0,
                   allow_nan=False, allow_infinity=False)
points = st.builds(Point, x=coords, y=coords)


@given(a=points, b=points)
def test_distance_symmetry(a, b):
    assert a.distance_to(b) == b.distance_to(a)


@given(a=points, b=points)
def test_distance_nonnegative_and_identity(a, b):
    assert a.distance_to(b) >= 0.0
    assert a.distance_to(a) == 0.0


@given(a=points, b=points, c=points)
def test_triangle_inequality(a, b, c):
    assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9


@given(a=points, b=points)
def test_offset_displace_roundtrip(a, b):
    offset = a.offset_to(b)
    x, y = displace_xy(a.x, a.y, offset.r, offset.theta)
    assert math.isclose(x, b.x, abs_tol=1e-6)
    assert math.isclose(y, b.y, abs_tol=1e-6)


@given(a=points, b=points)
def test_offset_range_equals_distance(a, b):
    assert math.isclose(a.offset_to(b).r, a.distance_to(b), abs_tol=1e-9)


@given(
    p=points,
    r=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    theta=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
def test_displacement_moves_exactly_r(p, r, theta):
    moved = Point(*displace_xy(p.x, p.y, r, theta))
    assert math.isclose(p.distance_to(moved), r, abs_tol=1e-6)


@given(
    p=points,
    side=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
)
def test_clamp_is_idempotent_and_inside(p, side):
    region = Region.square(side)
    clamped = region.clamp(p)
    assert region.contains(clamped)
    assert region.clamp(clamped) == clamped


@given(
    p=points,
    side=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
)
def test_clamp_fixes_interior_points(p, side):
    region = Region.square(side)
    if region.contains(p):
        assert region.clamp(p) == p
