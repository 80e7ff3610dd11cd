"""Cluster control plane: LEACH election, cluster heads, shadows, base station.

§2 adopts "the low energy, adaptive hierarchical clustering protocol
(LEACH) for cluster formation as well as CH election", extended with a
trust-index admission threshold that is *not* part of original LEACH.
§3.4 adds two shadow cluster heads per cluster plus base-station voting
to mask a single faulty CH.

* :mod:`repro.clusterctl.leach`        -- rotating, energy- and TI-aware
  cluster-head election and cluster affiliation.
* :mod:`repro.clusterctl.head`         -- the cluster-head process: report
  collection windows, an embedded trust session that turns each closed
  window into verdicts, trust custody, diagnosis; and the corrupt head
  that inverts its verdicts (§3.4's failing data sink).
* :mod:`repro.clusterctl.shadow`       -- shadow cluster heads: one mirror
  of the CH's computation per head, and the seats that check the CH's
  verdicts against it and escalate disagreements.
* :mod:`repro.clusterctl.base_station` -- the TI registry of record, CH
  candidacy vetoes, and SCH-dispute resolution.

:class:`repro.experiments.harness.SimulationRun` wires them into the
rotating network when given a ``rotation`` policy.
"""
