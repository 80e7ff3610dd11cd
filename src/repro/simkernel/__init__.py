"""Deterministic discrete-event simulation kernel.

This package is the substrate that replaces ns-2 in the original TIBFIT
evaluation.  It provides:

* :class:`~repro.simkernel.simulator.Simulator` -- the event loop, clock,
  and scheduling primitives (``at``, ``after``, periodic timers), over
  one ``heapq`` keyed on (time, priority, sequence) so that same-time
  events fire in a deterministic, insertion-ordered way.
* :class:`~repro.simkernel.rng.RandomStreams` -- named, independently
  seeded random streams so that, e.g., event placement and channel loss
  draw from decoupled sequences and experiments stay reproducible when
  one subsystem changes.

The kernel is intentionally synchronous and single-threaded: sensor-network
protocol logic is easiest to verify when every interleaving is reproducible
from a seed.
"""
