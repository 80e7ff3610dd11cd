"""Deterministic discrete-event simulation kernel.

This package is the substrate that replaces ns-2 in the original TIBFIT
evaluation.  It provides:

* :class:`~repro.simkernel.simulator.Simulator` -- the event loop, clock,
  and scheduling primitives (``at``, ``after``, periodic timers).
* :class:`~repro.simkernel.events.EventQueue` -- a stable ``heapq``
  priority queue keyed on (time, priority, sequence) so that same-time
  events fire in a deterministic, insertion-ordered way.
* :class:`~repro.simkernel.rng.RandomStreams` -- named, independently
  seeded random streams so that, e.g., event placement and channel loss
  draw from decoupled sequences and experiments stay reproducible when
  one subsystem changes.
* :class:`~repro.simkernel.trace.TraceLog` -- structured trace recording
  for debugging and for assertions in integration tests.

The kernel is intentionally synchronous and single-threaded: sensor-network
protocol logic is easiest to verify when every interleaving is reproducible
from a seed.
"""

from repro.simkernel.errors import (
    SimulationError,
    SchedulingError,
    SimulationFinished,
)
from repro.simkernel.events import EventQueue, ScheduledEvent
from repro.simkernel.rng import RandomStreams
from repro.simkernel.simulator import Simulator, Timer
from repro.simkernel.trace import TraceLog, TraceRecord, noop_trace

__all__ = [
    "EventQueue",
    "RandomStreams",
    "ScheduledEvent",
    "SchedulingError",
    "SimulationError",
    "SimulationFinished",
    "Simulator",
    "Timer",
    "TraceLog",
    "TraceRecord",
    "noop_trace",
]
