"""Moving-target trajectories (§3.2's motivating tracking problem).

"One sensor network problem that can be solved through this extension
is where a network is attempting to track a mobile sensor node that is
transmitting a signal as it moves throughout the network."  A
:class:`Trajectory` turns a waypoint path into a position-of-time
function; :class:`TargetTracker` samples it at a fixed period, emitting
one ground-truth event per sample for the sensing layer -- each "event"
is the target's transmission at that instant.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, List, Sequence, Tuple

from repro.network.geometry import Point
from repro.sensors.generator import GroundTruthEvent
from repro.simkernel.simulator import Simulator


class Trajectory:
    """Piecewise-linear motion through waypoints at constant speed.

    Parameters
    ----------
    waypoints:
        At least two distinct points; the target starts at the first at
        ``t = start_time`` and visits them in order.
    speed:
        Constant ground speed (distance per time unit).
    start_time:
        When the target enters the field.
    """

    def __init__(
        self,
        waypoints: Sequence[Point],
        speed: float,
        start_time: float = 0.0,
    ) -> None:
        if len(waypoints) < 2:
            raise ValueError("a trajectory needs at least two waypoints")
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        self.waypoints = list(waypoints)
        self.speed = speed
        self.start_time = start_time
        # Precompute cumulative arrival times at each waypoint.
        self._arrivals: List[float] = [start_time]
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            leg_time = a.distance_to(b) / speed
            self._arrivals.append(self._arrivals[-1] + leg_time)

    @property
    def end_time(self) -> float:
        """When the target reaches the final waypoint."""
        return self._arrivals[-1]

    def position_at(self, t: float) -> Point:
        """Target position at time ``t`` (clamped to the endpoints)."""
        if t <= self.start_time:
            return self.waypoints[0]
        if t >= self.end_time:
            return self.waypoints[-1]
        for i in range(len(self.waypoints) - 1):
            t0, t1 = self._arrivals[i], self._arrivals[i + 1]
            if t0 <= t <= t1:
                if t1 == t0:
                    return self.waypoints[i]
                frac = (t - t0) / (t1 - t0)
                a, b = self.waypoints[i], self.waypoints[i + 1]
                return Point(
                    a.x + (b.x - a.x) * frac, a.y + (b.y - a.y) * frac
                )
        return self.waypoints[-1]

    def sample(self, period: float) -> List[Tuple[float, Point]]:
        """``(t, position)`` samples every ``period`` over the run."""
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        out = []
        t = self.start_time
        while t <= self.end_time:
            out.append((t, self.position_at(t)))
            t += period
        return out


class TargetTracker:
    """Emits the moving target's transmissions as ground-truth events.

    Parameters
    ----------
    trajectory:
        The target's path.
    period:
        Transmission (sampling) period.  §3.3's machinery assumes
        successive events are separable, so pick
        ``period >= T_out`` or keep successive positions at least
        ``r_error`` apart (speed * period >= r_error).
    on_event:
        Callback receiving each :class:`GroundTruthEvent`.

    Each tracker numbers its events from 100,000, clear of an event
    generator's.
    """

    def __init__(
        self,
        trajectory: Trajectory,
        period: float,
        on_event: Callable[[GroundTruthEvent], None],
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.trajectory = trajectory
        self.period = period
        self._on_event = on_event
        self._ids: Iterator[int] = itertools.count(100_000)
        self.emitted: List[GroundTruthEvent] = []

    def start(self, sim: Simulator) -> None:
        """Schedule every transmission on the simulator."""
        for t, position in self.trajectory.sample(self.period):
            when = max(t, sim.now)
            sim.at(when, self._emit, when, position)

    def _emit(self, t: float, position: Point) -> None:
        event = GroundTruthEvent(
            event_id=next(self._ids), time=t, location=position
        )
        self.emitted.append(event)
        self._on_event(event)
