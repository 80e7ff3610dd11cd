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

Reports exist only as rows of a
:class:`~repro.core.decision_kernel.ReportBuffer`: circles collect row
indices, and a closed group delivers its rows as one index array sorted
by ``(time, node_id)`` (stable, so equal keys keep arrival order).  The
buffer is reset whenever the last open circle closes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.network.geometry import Point
from repro.simkernel.simulator import Simulator

_circle_ids = itertools.count(1)


def reset_circle_ids(start: int = 1) -> None:
    """Rewind the process-global circle-id stream (test isolation)."""
    global _circle_ids
    _circle_ids = itertools.count(start)


@dataclass
class EventCircle:
    """One open collection circle.

    Attributes
    ----------
    circle_id:
        Unique id for tracing.
    center:
        The first report's location -- fixed for the circle's lifetime.
    expires_at:
        Absolute simulation time of this circle's ``T_out`` expiry.
    rows:
        Indices of the reports collected so far into the tracker's
        :class:`~repro.core.decision_kernel.ReportBuffer`, in arrival
        order.
    """

    center: Point
    expires_at: float
    circle_id: int = field(default_factory=lambda: next(_circle_ids))
    rows: List[int] = field(default_factory=list)

    def overlaps(self, other: "EventCircle", r_error: float) -> bool:
        """Whether two circles of radius ``r_error`` intersect."""
        return self.center.distance_to(other.center) < 2.0 * r_error


class CircleTracker:
    """Manages open circles and fires a callback per closed circle group.

    Parameters
    ----------
    sim:
        Simulator used for per-circle timers.
    r_error:
        Circle radius.
    t_out:
        Per-circle collection window ``T_out``.
    buffer:
        The :class:`~repro.core.decision_kernel.ReportBuffer` that
        :meth:`on_report_row` appends each arriving report to.
    on_group_rows:
        Called as ``on_group_rows(row_indices)`` with each fully expired
        overlapping circle group, as a ``(time, node_id)``-lexsorted
        ``np.intp`` index array into ``buffer``.  The caller then
        clusters and votes (see
        :class:`repro.core.decision_kernel.DecisionKernel`).
    """

    def __init__(
        self,
        sim: Simulator,
        r_error: float,
        t_out: float,
        buffer,
        on_group_rows: Callable[[np.ndarray], None],
    ) -> None:
        if r_error <= 0:
            raise ValueError(f"r_error must be positive, got {r_error}")
        if t_out <= 0:
            raise ValueError(f"t_out must be positive, got {t_out}")
        self._sim = sim
        self._spans = sim.spans
        self.r_error = r_error
        self.t_out = t_out
        self._on_group_rows = on_group_rows
        self._buffer = buffer
        self._circles: Dict[int, EventCircle] = {}
        # Flat per-open-circle centre coordinates, kept parallel to
        # ``_open_ids`` in circle-creation order: ``on_report_row`` runs for
        # every arriving report, so membership is decided on plain
        # floats instead of chasing ``Point`` attributes through the
        # circle objects.  Rebuilt whenever a group closes.
        self._open_ids: List[int] = []
        self._open_x: List[float] = []
        self._open_y: List[float] = []
        self.circles_opened = 0
        self.groups_closed = 0

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------
    def on_report_row(self, node_id: int, x: float, y: float) -> None:
        """Append one arriving report to the buffer and route it.

        Scans open-circle centres in creation order and joins the first
        circle whose centre lies within ``r_error`` of the report; a
        report outside every circle opens a new one.
        """
        row = self._buffer.append(node_id, x, y, self._sim.now)
        r_error = self.r_error
        for pos, circle_id in enumerate(self._open_ids):
            dx = self._open_x[pos] - x
            dy = self._open_y[pos] - y
            if math.sqrt(dx * dx + dy * dy) <= r_error:
                self._circles[circle_id].rows.append(row)
                break
        else:
            circle = EventCircle(
                center=Point(x, y),
                expires_at=self._sim.now + self.t_out,
            )
            circle.rows.append(row)
            self._register_circle(circle)
            circle_id = circle.circle_id
        spans = self._spans
        if spans.enabled:
            spans.point(
                "window.report",
                parent=spans.current,
                circle=circle_id,
                node=node_id,
                row=row,
            )

    def open_circles(self) -> List[EventCircle]:
        """Currently open circles (stable order by id)."""
        return [self._circles[cid] for cid in sorted(self._circles)]

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
        """Circle bookkeeping: dict, flat lists, timer, span."""
        self._circles[circle.circle_id] = circle
        self._open_ids.append(circle.circle_id)
        self._open_x.append(circle.center.x)
        self._open_y.append(circle.center.y)
        self.circles_opened += 1
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

    def _rebuild_open(self) -> None:
        """Refresh the flat centre lists after circles close.

        ``_circles`` holds only open circles (``_close_group`` deletes
        each circle it closes), and dict deletion preserves the
        insertion order of the survivors, so this recovers exactly the
        scan order ``on_report_row`` needs.
        """
        self._open_ids = list(self._circles)
        self._open_x = [c.center.x for c in self._circles.values()]
        self._open_y = [c.center.y for c in self._circles.values()]

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
        it; deliver its sorted buffer rows.

        ``np.lexsort((ids, times))`` sorts by time with node id as the
        tie-breaker and is stable, so equal ``(time, node_id)`` rows
        keep their concatenation order (circles in id order, rows in
        arrival order).  The buffer resets once no circle remains open.
        """
        rows: List[int] = []
        for circle in group:
            rows.extend(circle.rows)
            del self._circles[circle.circle_id]
        self._rebuild_open()
        self.groups_closed += 1
        buffer = self._buffer
        idx = np.asarray(rows, dtype=np.intp)
        order = np.lexsort((buffer.ids[idx], buffer.times[idx]))
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
                self._on_group_rows(idx[order])
            finally:
                spans.current = saved
        else:
            self._on_group_rows(idx[order])
        if not self._circles:
            buffer.reset()
