"""TIBFIT core: trust-index bookkeeping and event decision engines.

This package is the paper's primary contribution:

* :mod:`repro.core.trust` -- the trust index (TI) model: per-node fault
  accumulator ``v``, ``TI = exp(-lambda * v)``, reward/penalty updates
  (§3), and serialisable trust tables for cluster-head hand-off.
* :mod:`repro.core.binary` -- cumulative-TI voting over reporters vs.
  non-reporters for binary events (§3.1).
* :mod:`repro.core.clustering` -- the K-means-style heuristic grouping
  location reports into event clusters (§3.2).
* :mod:`repro.core.decision_kernel` -- the location-determination
  decision pipeline built from clustering + CTI voting over report
  rows (§3.2), and :class:`~repro.core.decision_kernel.Verdict`, the
  one verdict record of a binary window or an event cluster.
* :mod:`repro.core.concurrent` -- ``r_error`` circles with per-circle
  timeouts separating concurrent events (§3.3).
* :mod:`repro.core.baseline` -- the stateless majority-voting comparator
  used throughout the evaluation.
* :mod:`repro.core.diagnosis` -- TI-threshold diagnosis and isolation of
  faulty nodes.
"""
