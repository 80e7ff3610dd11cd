"""The simulation event loop, clock, and timer facilities.

:class:`Simulator` is deliberately minimal: a clock, one ``heapq`` of
scheduled callbacks, named random streams, the run's id streams, and one
observability hook (a span collector).  Protocol entities (nodes,
cluster heads, channels) hold a reference to the simulator and schedule
callbacks on it.

Determinism contract
--------------------
Heap entries are plain ``(time, priority, sequence, callback, args,
ctx)`` tuples, so events fire in the total order ``(time, priority,
sequence)``: earlier first, then lower ``priority`` (default 0), then
insertion order.  ``sequence`` is unique, so ``heapq`` never compares
past it.  Every run is therefore a pure function of the seed set, which
the TIBFIT experiments rely on for reproducibility.  The ids a run
stamps on what it emits come from the simulator too, so they do not
depend on what ran before it in the process.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.obs.spans import NULL_SPANS
from repro.simkernel.errors import SchedulingError
from repro.simkernel.rng import RandomStreams


class Simulator:
    """Single-threaded deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all random streams (see :class:`RandomStreams`).
    spans:
        Optional :class:`~repro.obs.spans.SpanCollector`, the run's event
        log and causal provenance.  Defaults to the disabled
        ``NULL_SPANS``.  Every scheduled event carries the collector's
        causal-context token (``spans.current`` when it was scheduled),
        and the run loop restores it before the callback fires, so
        cross-queue causality survives the trip through the scheduler.

    Attributes
    ----------
    message_ids / circle_ids / relay_ids:
        The run's id streams, each counting from 1: every message a
        sender builds takes ``next(sim.message_ids)``, every collection
        circle a circle id and every multi-hop relay a relay id.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> sim.after(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    5.0
    >>> fired
    [5.0]
    """

    def __init__(self, seed: int = 0, spans=None) -> None:
        self._now = 0.0
        self.spans = spans if spans is not None else NULL_SPANS
        if self.spans.enabled:
            self.spans.attach_clock(lambda: self._now)
        self._heap: list = []
        self._sequence = itertools.count()
        self.streams = RandomStreams(seed)
        self.message_ids = itertools.count(1)
        self.circle_ids = itertools.count(1)
        self.relay_ids = itertools.count(1)
        self._running = False
        self._events_fired = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` at absolute simulation ``time``.

        Scheduling strictly in the past (or at NaN) raises
        :class:`SchedulingError`; scheduling at exactly ``now`` is
        allowed and fires after every event already queued at ``now``
        with the same priority.
        """
        if not time >= self._now:
            raise SchedulingError(
                f"cannot schedule at t={time}: now is {self._now}"
            )
        if not callable(callback):
            raise SchedulingError(f"callback must be callable, got {callback!r}")
        heappush(
            self._heap,
            (time, priority, next(self._sequence), callback, args,
             self.spans.current),
        )

    def after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` a non-negative ``delay`` from now."""
        if not delay >= 0:
            raise SchedulingError(f"delay must be non-negative, got {delay}")
        if not callable(callback):
            raise SchedulingError(f"callback must be callable, got {callback!r}")
        heappush(
            self._heap,
            (self._now + delay, priority, next(self._sequence), callback,
             args, self.spans.current),
        )

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        count: Optional[int] = None,
    ) -> "Timer":
        """Run ``callback(*args)`` every ``interval``, first at ``now +
        interval``, at most ``count`` times (default: unbounded)."""
        if not interval > 0:
            raise SchedulingError(f"interval must be positive, got {interval}")
        if count is not None and count <= 0:
            raise SchedulingError(f"count must be positive, got {count}")
        if not callable(callback):
            raise SchedulingError(f"callback must be callable, got {callback!r}")
        timer = Timer(self, interval, callback, args, count)
        self.after(interval, timer._tick)
        return timer

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events until the heap drains or ``until`` is reached.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, matching ns-2 semantics for
        fixed-duration runs.  Returns the final simulation time.
        """
        if self._running:
            raise SchedulingError("Simulator.run is not reentrant")
        self._running = True
        try:
            heap = self._heap
            spans = self.spans
            spans_on = spans.enabled
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                time, _, _, callback, args, ctx = heappop(heap)
                self._now = time
                self._events_fired += 1
                if spans_on:
                    # Restore the causal-context token stamped at
                    # scheduling time (see repro.obs.spans).
                    spans.current = ctx
                callback(*args)
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self._now}, pending={self.pending}, "
            f"fired={self._events_fired})"
        )


class Timer:
    """A periodic callback created via :meth:`Simulator.every`.

    ``fired`` counts the invocations so far.  Each tick reschedules the
    next one after its callback returns, until ``count`` ticks have
    fired.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        count: Optional[int],
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._args = args
        self._count = count
        self.fired = 0

    def _tick(self) -> None:
        self.fired += 1
        self._callback(*self._args)
        if self._count is None or self.fired < self._count:
            self._sim.after(self._interval, self._tick)
