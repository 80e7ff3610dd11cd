"""Deterministic chaos campaigns: fault plans, invariants, campaigns.

The package splits into three layers:

* :mod:`repro.chaos.plan` -- the serialisable fault-plan DSL and the
  :class:`~repro.chaos.plan.ChaosController` that applies a plan to a
  live simulation;
* :mod:`repro.chaos.invariants` -- the runtime invariant checker and
  run fingerprints;
* :mod:`repro.chaos.campaign` -- the ``plan x seed`` grid runner
  (import it explicitly as ``repro.chaos.campaign``; it is *not*
  re-exported here because it depends on the experiment harness, which
  itself imports this package).
"""

from repro.chaos.invariants import (
    InvariantChecker,
    InvariantViolationError,
    Violation,
    run_fingerprint,
)
from repro.chaos.plan import (
    EMPTY_PLAN,
    ChannelWindow,
    ChaosController,
    ChCrash,
    FaultPlan,
    NodeOutage,
    PartitionWindow,
    builtin_plans,
)

__all__ = [
    "EMPTY_PLAN",
    "ChannelWindow",
    "ChaosController",
    "ChCrash",
    "FaultPlan",
    "InvariantChecker",
    "InvariantViolationError",
    "NodeOutage",
    "PartitionWindow",
    "Violation",
    "builtin_plans",
    "run_fingerprint",
]
