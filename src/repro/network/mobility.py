"""Node mobility (§2).

"The network could be stationary or mobile, as long as it is possible
for the CH to estimate the positions of its cluster nodes during
decision making."  This module provides:

* :class:`RandomWaypointMobility` -- the classic model: each node picks
  a uniform waypoint, moves toward it at a uniform speed, pauses, and
  repeats.  Positions update on a fixed tick driven by the simulator.
* :class:`PositionTracker` -- the CH-side knowledge model: either live
  (the CH always knows true positions, the §2 assumption) or snapshot
  (positions refreshed every ``refresh_interval``, so the CH works from
  stale coordinates between refreshes -- the failure knob the mobility
  ablation turns).

Mobility moves both the *sensing* geometry (who neighbours an event)
and the *decoding* geometry (resolving ``(r, theta)`` reports), so
staleness at the CH injects a position-dependent localisation error on
top of the sensors' own noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.network.geometry import Point, Region
from repro.network.topology import Deployment
from repro.simkernel.simulator import Simulator


@dataclass(frozen=True)
class MobilityConfig:
    """Random-waypoint parameters.

    Attributes
    ----------
    speed_min / speed_max:
        Uniform speed range (distance units per time unit).
    pause_time:
        Dwell time at each waypoint.
    tick:
        Position-update granularity.
    """

    speed_min: float = 0.5
    speed_max: float = 1.5
    pause_time: float = 0.0
    tick: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.speed_min <= self.speed_max:
            raise ValueError(
                f"need 0 < speed_min <= speed_max, got "
                f"{self.speed_min}, {self.speed_max}"
            )
        if self.pause_time < 0:
            raise ValueError("pause_time must be non-negative")
        if self.tick <= 0:
            raise ValueError("tick must be positive")


@dataclass
class _NodeMotion:
    waypoint: Point
    speed: float
    pause_until: float = 0.0


class RandomWaypointMobility:
    """Moves a deployment's nodes by the random-waypoint model.

    Parameters
    ----------
    deployment:
        Mutated in place each tick (shared with sensing logic, so node
        physics always uses true positions).
    region:
        Waypoints are drawn uniformly from this region.
    config:
        Speeds, pauses, tick.
    rng:
        Randomness (use the ``"mobility"`` stream).
    on_move:
        Optional callback ``on_move(node_id, new_position)`` per update.
    """

    def __init__(
        self,
        deployment: Deployment,
        region: Region,
        config: MobilityConfig,
        rng: np.random.Generator,
        on_move: Optional[Callable[[int, Point], None]] = None,
    ) -> None:
        self.deployment = deployment
        self.region = region
        self.config = config
        self._rng = rng
        self._on_move = on_move
        self._motion: Dict[int, _NodeMotion] = {}
        self.ticks = 0
        for node_id in deployment.node_ids():
            self._motion[node_id] = self._new_motion()

    def _new_motion(self) -> _NodeMotion:
        waypoint = Point(
            float(self._rng.uniform(self.region.x_min, self.region.x_max)),
            float(self._rng.uniform(self.region.y_min, self.region.y_max)),
        )
        speed = float(
            self._rng.uniform(self.config.speed_min, self.config.speed_max)
        )
        return _NodeMotion(waypoint=waypoint, speed=speed)

    def start(self, sim: Simulator) -> None:
        """Begin ticking on the simulator."""
        sim.every(self.config.tick, self._tick, sim)

    def _tick(self, sim: Simulator) -> None:
        self.ticks += 1
        for node_id in list(self.deployment.node_ids()):
            self._advance(node_id, sim.now)

    def _advance(self, node_id: int, now: float) -> None:
        motion = self._motion[node_id]
        if now < motion.pause_until:
            return
        here = self.deployment.position_of(node_id)
        step = motion.speed * self.config.tick
        distance = here.distance_to(motion.waypoint)
        if distance <= step:
            new_pos = motion.waypoint
            next_motion = self._new_motion()
            next_motion.pause_until = now + self.config.pause_time
            self._motion[node_id] = next_motion
        else:
            frac = step / distance
            new_pos = Point(
                here.x + (motion.waypoint.x - here.x) * frac,
                here.y + (motion.waypoint.y - here.y) * frac,
            )
        # Deployment.move skips add()'s region validation (waypoints are
        # in-region, the region is convex) and invalidates the spatial
        # index so neighbour queries never see stale coordinates.
        self.deployment.move(node_id, new_pos)
        if self._on_move is not None:
            self._on_move(node_id, new_pos)


class PositionTracker:
    """The CH's knowledge of node positions under mobility.

    Parameters
    ----------
    truth:
        The live (moving) deployment.
    refresh_interval:
        ``None`` models §2's assumption -- the CH can always estimate
        current positions (it reads the truth).  A positive value
        models periodic position updates: between refreshes the CH
        works from the last snapshot.
    """

    def __init__(
        self,
        truth: Deployment,
        refresh_interval: Optional[float] = None,
    ) -> None:
        if refresh_interval is not None and refresh_interval <= 0:
            raise ValueError("refresh_interval must be positive when set")
        self.truth = truth
        self.refresh_interval = refresh_interval
        # The snapshot Deployment object is created once and mutated in
        # place on refresh, so consumers (the CH, its decision engine)
        # can hold a stable reference for the whole run.
        self._snapshot = Deployment(region=truth.region)
        self._copy_truth_into_snapshot()
        self.refreshes = 0

    def _copy_truth_into_snapshot(self) -> None:
        self._snapshot.positions.clear()
        for node_id in self.truth.node_ids():
            self._snapshot.positions[node_id] = self.truth.position_of(
                node_id
            )
        # Mutated positions directly (bulk copy); drop the cached index.
        self._snapshot.invalidate_index()

    def start(self, sim: Simulator) -> None:
        """Begin periodic refreshes (no-op in live mode)."""
        if self.refresh_interval is not None:
            sim.every(self.refresh_interval, self.refresh)

    def refresh(self) -> None:
        """Take a fresh snapshot of every node's position."""
        self._copy_truth_into_snapshot()
        self.refreshes += 1

    @property
    def view(self) -> Deployment:
        """The deployment the CH should decode and vote against."""
        if self.refresh_interval is None:
            return self.truth
        return self._snapshot

    def staleness(self) -> Dict[int, float]:
        """Per-node distance between the CH's view and the truth."""
        view = self.view
        return {
            node_id: view.position_of(node_id).distance_to(
                self.truth.position_of(node_id)
            )
            for node_id in self.truth.node_ids()
            if node_id in view
        }
