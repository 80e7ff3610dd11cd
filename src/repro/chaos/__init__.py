"""Deterministic chaos campaigns: fault plans, invariants, campaigns.

The package splits into three layers:

* :mod:`repro.chaos.plan` -- the serialisable fault-plan DSL and the
  :class:`~repro.chaos.plan.ChaosController` that applies a plan to a
  live simulation;
* :mod:`repro.chaos.invariants` -- the runtime invariant checker and
  run fingerprints;
* :mod:`repro.chaos.campaign` -- the ``plan x seed`` grid runner.
"""
