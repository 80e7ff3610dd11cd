"""Planar geometry primitives used throughout the reproduction.

The paper's event reports carry event locations as ``(r, theta)`` relative
to the reporting node (§3.2); the cluster head converts them back to
absolute coordinates using its knowledge of node positions.  This module
provides the :class:`Point` / :class:`PolarOffset` types and the handful
of vector operations the clustering heuristic needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple


class Point(NamedTuple):
    """An immutable point in the 2-D deployment plane.

    A tuple record (see "Records" in ``docs/protocol.md``): one is built
    per claimed event location and per decided cluster centre.

    >>> Point(0.0, 0.0).distance_to(Point(3.0, 4.0))
    5.0
    >>> Point(1.0, 2.0).x = 5.0  # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
        ...
    AttributeError: can't set attribute
    """

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``.

        Computed as ``sqrt(dx*dx + dy*dy)`` rather than ``math.hypot``:
        every step is a single correctly-rounded IEEE-754 operation, and
        the loops that inline the expression on plain floats (the
        spatial grid's disk filter, the decision kernel's gate, LEACH
        affiliation) therefore produce bit-identical distances and
        identical comparison outcomes.  ``math.hypot``'s extra-precise
        algorithm differs from it in the last ulp on some inputs.
        Coordinates are bounded by the deployment region, so the
        overflow resistance ``hypot`` buys is never needed here.
        """
        dx = self.x - other.x
        dy = self.y - other.y
        return math.sqrt(dx * dx + dy * dy)

    def offset_to(self, other: "Point") -> "PolarOffset":
        """Polar offset that :func:`displace_xy` turns back into ``other``."""
        dx = other.x - self.x
        dy = other.y - self.y
        return PolarOffset(math.hypot(dx, dy), math.atan2(dy, dx))

    def translated(self, dx: float, dy: float) -> "Point":
        """Cartesian translation."""
        return Point(self.x + dx, self.y + dy)


def displace_xy(
    x: float, y: float, r: float, theta: float
) -> Tuple[float, float]:
    """Coordinates of the point ``r`` from ``(x, y)`` at bearing ``theta``.

    The inverse of :meth:`Point.offset_to`.  The cluster head resolves
    report offsets into the plain floats of a report row with it,
    without materialising ``Point`` / ``PolarOffset`` objects.
    """
    return (x + r * math.cos(theta), y + r * math.sin(theta))


class _PolarOffsetFields(NamedTuple):
    r: float
    theta: float


class PolarOffset(_PolarOffsetFields):
    """A displacement expressed as range ``r`` and bearing ``theta`` (radians).

    This is the representation sensing nodes use in their event reports:
    the event lies at distance ``r``, bearing ``theta`` from the node.
    A tuple record whose constructor refuses a negative range:

    >>> PolarOffset(r=-1.0, theta=0.0)
    Traceback (most recent call last):
        ...
    ValueError: polar range must be non-negative, got -1.0
    """

    __slots__ = ()

    def __new__(cls, r: float, theta: float) -> "PolarOffset":
        if r < 0:
            raise ValueError(f"polar range must be non-negative, got {r}")
        return tuple.__new__(cls, (r, theta))


@dataclass(frozen=True)
class Region:
    """An axis-aligned rectangular deployment region."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        # A uniform draw over the region is lo + (hi - lo) * u, which
        # checks nothing, so a side that is not finite (a NaN or
        # infinite bound, or one that overflows) is refused here.
        if not (
            math.isfinite(self.x_max - self.x_min)
            and math.isfinite(self.y_max - self.y_min)
        ):
            raise ValueError(f"region sides must be finite: {self}")
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError(f"degenerate region: {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> Point:
        return Point(
            (self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0
        )

    def contains(self, p: Point) -> bool:
        """True when ``p`` lies inside or on the boundary."""
        return (
            self.x_min <= p.x <= self.x_max
            and self.y_min <= p.y <= self.y_max
        )

    def clamp(self, p: Point) -> Point:
        """Nearest point inside the region."""
        return Point(
            min(max(p.x, self.x_min), self.x_max),
            min(max(p.y, self.y_min), self.y_max),
        )

    @classmethod
    def square(cls, side: float) -> "Region":
        """A ``side x side`` region anchored at the origin."""
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        return cls(0.0, 0.0, side, side)
