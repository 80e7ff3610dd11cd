"""The simulation event loop, clock, and timer facilities.

:class:`Simulator` is deliberately minimal: a clock, an event queue, named
random streams, and a trace log.  Protocol entities (nodes, cluster heads,
channels) hold a reference to the simulator and schedule callbacks on it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.spans import NULL_SPANS
from repro.simkernel.errors import SchedulingError, SimulationFinished
from repro.simkernel.events import EventQueue, ScheduledEvent
from repro.simkernel.rng import RandomStreams
from repro.simkernel.trace import TraceLog


class Simulator:
    """Single-threaded deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all random streams (see :class:`RandomStreams`).
    trace:
        Optional pre-built trace log; a fresh enabled one is created by
        default.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` shared by
        every entity holding this simulator (radio channel, cluster
        heads).  Defaults to the disabled ``NULL_REGISTRY``, so
        uninstrumented runs pay nothing; the event loop itself is never
        instrumented per event -- ``events_fired`` / queue depth are
        sampled at run boundaries instead.
    spans:
        Optional :class:`~repro.obs.spans.SpanCollector` for causal
        provenance.  Defaults to the disabled ``NULL_SPANS``.  When
        enabled, the scheduling front-ends stamp the collector's
        causal-context token onto every scheduled event and the run
        loop restores it before the callback fires, so cross-queue
        causality survives the trip through the scheduler.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.after(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(
        self,
        seed: int = 0,
        trace: Optional[TraceLog] = None,
        metrics: Optional[MetricsRegistry] = None,
        spans=None,
    ) -> None:
        self._now = 0.0
        self.spans = spans if spans is not None else NULL_SPANS
        if self.spans.enabled:
            self.spans.attach_clock(lambda: self._now)
        self._queue = EventQueue()
        self.streams = RandomStreams(seed)
        self.trace = trace if trace is not None else TraceLog()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._running = False
        self._stopped = False
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
        """Number of live events still queued."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
        **kwargs: Any,
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulation ``time``.

        Scheduling strictly in the past raises :class:`SchedulingError`;
        scheduling at exactly ``now`` is allowed and fires after all
        currently queued events at ``now`` with lower sequence numbers.
        """
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        event = self._queue.schedule(
            time, priority, callback, args, kwargs if kwargs else None, label
        )
        spans = self.spans
        if spans.enabled:
            event.ctx = spans.current
        return event

    def after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
        **kwargs: Any,
    ) -> ScheduledEvent:
        """Schedule ``callback`` after a non-negative ``delay`` from now."""
        if delay < 0:
            raise SchedulingError(f"delay must be non-negative, got {delay}")
        event = self._queue.schedule(
            self._now + delay,
            priority,
            callback,
            args,
            kwargs if kwargs else None,
            label,
        )
        spans = self.spans
        if spans.enabled:
            event.ctx = spans.current
        return event

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
        count: Optional[int] = None,
        label: str = "",
        **kwargs: Any,
    ) -> "Timer":
        """Run ``callback`` periodically.

        Parameters
        ----------
        interval:
            Positive period between invocations.
        start:
            Absolute time of the first invocation (default: ``now +
            interval``).
        count:
            Stop after this many invocations (default: unbounded).
        """
        if interval <= 0:
            raise SchedulingError(f"interval must be positive, got {interval}")
        if count is not None and count <= 0:
            raise SchedulingError(f"count must be positive, got {count}")
        first = self._now + interval if start is None else start
        timer = Timer(self, interval, callback, args, kwargs, count, label)
        timer._schedule(first)
        return timer

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains or ``until`` is reached.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, matching ns-2 semantics for
        fixed-duration runs.  Returns the final simulation time.
        """
        if self._running:
            raise SchedulingError("Simulator.run is not reentrant")
        self._running = True
        self._stopped = False
        try:
            pop_next = self._queue.pop_next
            spans = self.spans
            spans_on = spans.enabled
            while True:
                event = pop_next(until)
                if event is None:
                    break
                self._now = event.time
                self._events_fired += 1
                if spans_on:
                    # Restore the causal-context token stamped at
                    # scheduling time (see repro.obs.spans).
                    spans.current = event.ctx
                try:
                    event.fire()
                except SimulationFinished:
                    break
                if self._stopped:
                    break
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self._running = False
        return self._now

    def step(self) -> bool:
        """Execute exactly one event.  Returns False when none remain."""
        if not self._queue:
            return False
        event = self._queue.pop()
        self._now = event.time
        self._events_fired += 1
        spans = self.spans
        if spans.enabled:
            spans.current = event.ctx
        try:
            event.fire()
        except SimulationFinished:
            self._stopped = True
        return True

    def stop(self) -> None:
        """Request an orderly stop after the current event completes."""
        self._stopped = True

    def record_kernel_metrics(self) -> None:
        """Sample kernel state into the metrics registry.

        A boundary hook, not a per-event one: callers (the harness, at
        round boundaries and run end) decide the cadence, so the run
        loop stays untouched.  Records the ``des.events_fired`` gauge
        and one ``des.queue_depth`` observation.
        """
        metrics = self.metrics
        if metrics.enabled:
            metrics.gauge("des.events_fired").set(float(self._events_fired))
            metrics.histogram("des.queue_depth").observe(float(self.pending))

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self._now}, pending={self.pending}, "
            f"fired={self._events_fired})"
        )


class Timer:
    """Handle for a periodic callback created via :meth:`Simulator.every`."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        count: Optional[int],
        label: str,
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._args = args
        self._kwargs = kwargs
        self._remaining = count
        self._label = label
        self._handle: Optional[ScheduledEvent] = None
        self._cancelled = False
        self.fired = 0

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` was called or the count was exhausted."""
        return self._cancelled

    def _schedule(self, when: float) -> None:
        self._handle = self._sim.at(
            when, self._tick, label=self._label or "timer"
        )

    def _tick(self) -> None:
        if self._cancelled:
            return
        self.fired += 1
        if self._remaining is not None:
            self._remaining -= 1
        self._callback(*self._args, **self._kwargs)
        if self._cancelled:
            return
        if self._remaining is not None and self._remaining <= 0:
            self._cancelled = True
            return
        self._schedule(self._sim.now + self._interval)

    def cancel(self) -> None:
        """Stop future invocations; a tick in progress completes normally."""
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()
