"""Stable priority queue of scheduled simulation events.

Determinism contract
--------------------
Two events scheduled for the same simulation time fire in a total order
defined by ``(time, priority, sequence)``:

* lower ``priority`` first (default 0),
* ties broken by insertion order (``sequence``).

This makes every run a pure function of the seed set, which the TIBFIT
experiments rely on for reproducibility.

Hot-path notes
--------------
The queue sits under every simulated packet, vote, and timer, so the
representation is tuned for per-event cost:

* heap entries are plain ``(time, priority, sequence, event)`` tuples,
  so ``heapq`` sifts compare precomputed keys in C instead of calling
  back into a Python ``__lt__``;
* :class:`ScheduledEvent` is a ``__slots__`` class built positionally
  (no dataclass keyword machinery, no per-event ``__dict__``);
* the common no-kwargs schedule stores ``kwargs=None`` and
  :meth:`ScheduledEvent.fire` skips the ``**`` unpacking entirely.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.simkernel.errors import SchedulingError


class ScheduledEvent:
    """A single entry in the event queue.

    Ordering is by ``(time, priority, sequence)``; the callback and its
    arguments play no part in comparisons (the key lives in the heap
    tuple, not on the event).
    """

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "callback",
        "args",
        "kwargs",
        "cancelled",
        "label",
        "ctx",
        "_queue",
        "_popped",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[..., Any],
        args: tuple = (),
        kwargs: Optional[dict] = None,
        label: str = "",
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.label = label
        # Causal-context token: the span id in flight when the event was
        # scheduled (see repro.obs.spans).  Stamped by the simulator's
        # scheduling front-ends only when span collection is enabled;
        # 0 means "no context".
        self.ctx = 0
        self._queue = queue
        self._popped = False

    def cancel(self) -> None:
        """Mark this event so the loop skips it when popped.

        Cancellation is O(1); the heap entry is lazily discarded on pop.
        Cancelling twice is a no-op, and cancelling an event that has
        already been popped (fired or about to fire) is also a no-op --
        late cancels must not corrupt the queue's live count.
        """
        if self.cancelled or self._popped:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue.note_cancelled()

    def fire(self) -> Any:
        """Invoke the callback with its stored arguments."""
        if self.kwargs is None:
            return self.callback(*self.args)
        return self.callback(*self.args, **self.kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScheduledEvent(time={self.time}, priority={self.priority}, "
            f"sequence={self.sequence}, label={self.label!r}, "
            f"cancelled={self.cancelled})"
        )


class EventQueue:
    """Min-heap of :class:`ScheduledEvent` with lazy cancellation."""

    def __init__(self) -> None:
        # Heap of (time, priority, sequence, event) key tuples.
        self._heap: list = []
        self._sequence = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        *,
        priority: int = 0,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulation ``time``.

        Returns the :class:`ScheduledEvent` handle, which supports
        :meth:`ScheduledEvent.cancel`.
        """
        return self.schedule(
            time, priority, callback, args, kwargs if kwargs else None, label
        )

    def schedule(
        self,
        time: float,
        priority: int,
        callback: Callable[..., Any],
        args: tuple,
        kwargs: Optional[dict],
        label: str,
    ) -> ScheduledEvent:
        """Positional scheduling core shared with the simulator.

        Same semantics as :meth:`push` without keyword re-marshalling;
        ``kwargs`` must already be ``None`` when empty.
        """
        if not callable(callback):
            raise SchedulingError(f"callback must be callable, got {callback!r}")
        if time != time:  # NaN check
            raise SchedulingError("cannot schedule an event at time NaN")
        sequence = self._sequence
        self._sequence = sequence + 1
        event = ScheduledEvent(
            time,
            priority,
            sequence,
            callback,
            args,
            kwargs,
            label,
            self,
        )
        heapq.heappush(self._heap, (time, priority, sequence, event))
        self._live += 1
        return event

    def pop(self) -> ScheduledEvent:
        """Remove and return the next live event.

        Raises ``IndexError`` when no live events remain.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                continue
            event._popped = True
            self._live -= 1
            return event
        raise IndexError("pop from empty EventQueue")

    def pop_next(self, until: Optional[float] = None) -> Optional[ScheduledEvent]:
        """Pop the next live event in one heap pass.

        Returns ``None`` when the queue is empty or when the next live
        event fires strictly after ``until`` (which is then left queued).
        This is the simulator loop's fused peek+pop: one call and one
        lazy-discard scan per event instead of two.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[3]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if until is not None and head[0] > until:
                return None
            heapq.heappop(heap)
            event._popped = True
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def note_cancelled(self) -> None:
        """Account for an externally cancelled event (bookkeeping only)."""
        if self._live > 0:
            self._live -= 1

    def clear(self) -> None:
        """Drop all queued events, leaving outstanding handles inert.

        Every queued event is marked popped before the heap is dropped,
        so handles still held by caller code can neither cancel their
        way into the fresh queue's bookkeeping (``note_cancelled`` on an
        empty queue used to be reachable this way, driving ``_live``
        negative once new events were pushed) nor be double-cancelled.
        Sequence numbers keep counting: clear is a drain, not a rewind.
        """
        for entry in self._heap:
            entry[3]._popped = True
        self._heap.clear()
        self._live = 0
