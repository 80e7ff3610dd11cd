"""Ground-truth event generation.

§4: "Events are generated at regular time intervals by the *event
generator*, using a uniform random variable to generate X and Y
coordinates uniformly distributed in the network.  The event generator
informs the event neighbors of the event and its location."

For the concurrent-event runs (Fig. 7), batches of simultaneous events
are drawn with a minimum pairwise separation of ``r_error`` -- §3.3's
standing assumption that "concurrent events cannot occur closer than a
distance of r_error".

The generator only draws; the simulation harness schedules the rounds
and informs the event neighbours itself.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, List, NamedTuple, Optional

import numpy as np

from repro.network.geometry import Point, Region


class GroundTruthEvent(NamedTuple):
    """One real event as known to the generator (and to the metrics)."""

    event_id: int
    time: float
    location: Point


class EventGenerator:
    """Draws ground-truth events uniformly over a region.

    Parameters
    ----------
    region:
        The deployment field.
    rng:
        Random generator (use the ``"events"`` stream so event placement
        is decoupled from channel noise and fault draws).
    min_separation:
        Minimum pairwise distance between events of one concurrent
        batch.  ``None`` disables the constraint for single-event runs.
    max_rejections:
        Safety bound on rejection sampling for separated batches.
    """

    def __init__(
        self,
        region: Region,
        rng: np.random.Generator,
        min_separation: Optional[float] = None,
        max_rejections: int = 10_000,
    ) -> None:
        if min_separation is not None and not 0 < min_separation < math.inf:
            raise ValueError(
                f"min_separation must be positive and finite when set, "
                f"got {min_separation}"
            )
        if max_rejections <= 0:
            raise ValueError("max_rejections must be positive")
        self.region = region
        self._rng = rng
        self.min_separation = min_separation
        self.max_rejections = max_rejections
        self._ids: Iterator[int] = itertools.count(1)

    # ------------------------------------------------------------------
    # Draws
    # ------------------------------------------------------------------
    def draw_location(self) -> Point:
        """One uniform location in the region.

        Each axis draws ``lo + (hi - lo) * rng.random()``, numpy's own
        formula for ``rng.uniform(lo, hi)`` without the call's argument
        handling (docs/protocol.md, "Random streams").

        >>> import numpy as np
        >>> region = Region.square(100.0)
        >>> rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        >>> EventGenerator(region, rng).draw_location() == Point(
        ...     twin.uniform(0.0, 100.0), twin.uniform(0.0, 100.0))
        True
        """
        region = self.region
        rng = self._rng
        return Point(
            region.x_min + (region.x_max - region.x_min) * rng.random(),
            region.y_min + (region.y_max - region.y_min) * rng.random(),
        )

    def next_event(self, time: float = 0.0) -> GroundTruthEvent:
        """One event at ``time`` with a fresh id."""
        return GroundTruthEvent(
            event_id=next(self._ids), time=time, location=self.draw_location()
        )

    def next_batch(self, size: int, time: float = 0.0) -> List[GroundTruthEvent]:
        """``size`` simultaneous events, pairwise at least
        ``min_separation`` apart (when configured).

        Raises ``RuntimeError`` if the separation constraint cannot be
        satisfied within ``max_rejections`` draws (region too small for
        the batch).
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        locations: List[Point] = []
        rejections = 0
        while len(locations) < size:
            candidate = self.draw_location()
            if self.min_separation is not None and any(
                candidate.distance_to(p) < self.min_separation
                for p in locations
            ):
                rejections += 1
                if rejections > self.max_rejections:
                    raise RuntimeError(
                        f"could not place {size} events with separation "
                        f">= {self.min_separation} in {self.region}"
                    )
                continue
            locations.append(candidate)
        return [
            GroundTruthEvent(
                event_id=next(self._ids), time=time, location=loc
            )
            for loc in locations
        ]
