"""Concurrent-event separation via ``r_error`` circles (§3.3).

Multiple events may occur within one ``T_out`` of each other (though
never closer together than ``r_error``).  The cluster head therefore
cannot use a single global collection window.  Instead:

1. the first report opens a symbolic circle of radius ``r_error``
   around its location and starts that circle's own ``T_out`` timer;
2. a subsequent report landing inside an existing circle joins it;
   one landing outside every circle opens a new circle (and timer);
3. when a circle's timer expires, its reports are clustered and voted --
   *unless* the circle overlaps others, in which case processing waits
   until every circle in the overlapping group has timed out and the
   union of their reports is clustered together.

Two circles overlap when their centres are closer than ``2 * r_error``.

Each report is one ``(node_id, x, y, time)`` row
(:data:`~repro.core.decision_kernel.Row`): circles collect their rows in
arrival order, and a closed group delivers its rows as one list sorted
by ``(time, node_id)`` (stable, so equal keys keep arrival order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.core.decision_kernel import ROW_ORDER, Row
from repro.network.geometry import Point
from repro.simkernel.simulator import Simulator


@dataclass
class EventCircle:
    """One open collection circle.

    Attributes
    ----------
    center:
        The first report's location -- fixed for the circle's lifetime.
    expires_at:
        Absolute simulation time of this circle's ``T_out`` expiry.
    circle_id:
        The circle's id in its run (``Simulator.circle_ids``), for
        tracing and group order.
    rows:
        The ``(node_id, x, y, time)`` rows collected so far, in arrival
        order.
    """

    center: Point
    expires_at: float
    circle_id: int
    rows: List[Row] = field(default_factory=list)

    def overlaps(self, other: "EventCircle", r_error: float) -> bool:
        """Whether two circles of radius ``r_error`` intersect."""
        return self.center.distance_to(other.center) < 2.0 * r_error


class CircleTracker:
    """Manages open circles and fires a callback per closed circle group.

    Parameters
    ----------
    sim:
        Simulator used for per-circle timers and circle ids.
    r_error:
        Circle radius.
    t_out:
        Per-circle collection window ``T_out``.
    on_group_rows:
        Called as ``on_group_rows(rows)`` with each fully expired
        overlapping circle group, as a list of its rows sorted by
        ``(time, node_id)``.  The caller then clusters and votes (see
        :class:`repro.core.decision_kernel.DecisionKernel`).
    """

    def __init__(
        self,
        sim: Simulator,
        r_error: float,
        t_out: float,
        on_group_rows: Callable[[List[Row]], None],
    ) -> None:
        if not 0 < r_error < math.inf:
            raise ValueError(
                f"r_error must be positive and finite, got {r_error}"
            )
        if not 0 < t_out < math.inf:
            raise ValueError(f"t_out must be positive and finite, got {t_out}")
        self._sim = sim
        self._spans = sim.spans
        self._circle_ids = sim.circle_ids
        self.r_error = r_error
        self.t_out = t_out
        self._on_group_rows = on_group_rows
        # Open circles only, in creation order (a closed circle is
        # deleted, and dict deletion keeps the survivors' order).
        self._circles: Dict[int, EventCircle] = {}

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------
    def on_report_row(self, node_id: int, x: float, y: float) -> None:
        """Route one arriving report, stamped with the current time.

        Scans open-circle centres in creation order and joins the first
        circle whose centre lies within ``r_error`` of the report; a
        report outside every circle opens a new one.
        """
        row = (node_id, x, y, float(self._sim.now))
        r_error = self.r_error
        for circle in self._circles.values():
            cx, cy = circle.center
            dx = cx - x
            dy = cy - y
            if math.sqrt(dx * dx + dy * dy) <= r_error:
                circle.rows.append(row)
                break
        else:
            circle = EventCircle(
                center=Point(x, y),
                expires_at=self._sim.now + self.t_out,
                circle_id=next(self._circle_ids),
            )
            circle.rows.append(row)
            self._register_circle(circle)
        spans = self._spans
        if spans.enabled:
            spans.point(
                "window.report",
                parent=spans.current,
                circle=circle.circle_id,
                node=node_id,
            )

    def flush(self) -> None:
        """Force-close every open circle immediately (end of simulation)."""
        for circle in self._circles.values():
            circle.expires_at = self._sim.now
        # Groups are recomputed from scratch; every circle is now expired.
        while self._circles:
            seed = self._circles[min(self._circles)]
            self._close_group(self._overlap_component(seed))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _register_circle(self, circle: EventCircle) -> None:
        """Circle bookkeeping: dict, timer, span."""
        self._circles[circle.circle_id] = circle
        spans = self._spans
        if spans.enabled:
            # The expiry timer below inherits this context, so the
            # window.close span lands under the first report's delivery.
            spans.point(
                "window.open",
                parent=spans.current,
                circle=circle.circle_id,
                x=circle.center.x,
                y=circle.center.y,
                expires_at=circle.expires_at,
            )
        self._sim.at(circle.expires_at, self._on_expiry, circle.circle_id)

    def _on_expiry(self, circle_id: int) -> None:
        circle = self._circles.get(circle_id)
        if circle is None:
            return  # closed already: flushed, or with its overlap group
        group = self._overlap_component(circle)
        # §3.3 step 4: wait until every overlapping circle has expired.
        if any(c.expires_at > self._sim.now for c in group):
            return
        self._close_group(group)

    def _overlap_component(self, seed: EventCircle) -> List[EventCircle]:
        """Transitive closure of circle overlap containing ``seed``."""
        component = {seed.circle_id: seed}
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            for other in self._circles.values():
                if other.circle_id in component:
                    continue
                if current.overlaps(other, self.r_error):
                    component[other.circle_id] = other
                    frontier.append(other)
        return [component[cid] for cid in sorted(component)]

    def _close_group(self, group: List[EventCircle]) -> None:
        """Close one overlap group, as :meth:`_overlap_component` returns
        it; deliver its rows in delivery order.

        The sort is stable, so rows with equal ``(time, node_id)`` keep
        their concatenation order (circles in id order, rows in arrival
        order).
        """
        rows: List[Row] = []
        for circle in group:
            rows.extend(circle.rows)
            del self._circles[circle.circle_id]
        rows.sort(key=ROW_ORDER)
        spans = self._spans
        if spans.enabled:
            saved = spans.current
            spans.current = spans.point(
                "window.close",
                parent=saved,
                circles=[c.circle_id for c in group],
                reports=len(rows),
            )
            try:
                self._on_group_rows(rows)
            finally:
                spans.current = saved
        else:
            self._on_group_rows(rows)
