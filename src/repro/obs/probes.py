"""TI time-series probes: per-node trust trajectories over a run.

TIBFIT's behaviour *is* the evolution of each node's trust index -- how
fast liars decay, when diagnosis crosses the threshold, how much CTI
margin the honest majority keeps.  :class:`TrustProbe` records exactly
that: it snapshots a trust table's TI map at decision boundaries and
exposes the result as per-node trajectory arrays, JSONL records, and
threshold-crossing queries.

Sampling is read-only: the probe copies the table's TI map
(:meth:`TrustTable.tis`) once per CH decision rather than once per
trust update, so an instrumented run observes the same table the
uninstrumented run produces, bit for bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

__all__ = ["TrustProbe"]


class TrustProbe:
    """Samples a trust table's TI map into per-node time series.

    Parameters
    ----------
    table:
        Any object with the trust-table query API (``tis()``), such as
        :class:`~repro.core.trust.TrustTable`.
    registry:
        Optional metrics registry; each sample increments the
        ``probe.samples`` counter when enabled.
    diagnoser:
        Optional :class:`~repro.core.diagnosis.FaultDiagnoser`; its log
        is folded into :meth:`to_records` as ``diagnosis`` entries.
    """

    def __init__(
        self,
        table,
        registry: MetricsRegistry = NULL_REGISTRY,
        diagnoser=None,
    ) -> None:
        self.table = table
        self.registry = registry
        self.diagnoser = diagnoser
        self._times: List[float] = []
        self._snapshots: List[Dict[int, float]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def sample(self, time: float) -> None:
        """Record the table's current TI map at simulation ``time``."""
        self._times.append(float(time))
        self._snapshots.append(self.table.tis())
        registry = self.registry
        if registry.enabled:
            registry.counter("probe.samples").inc()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return len(self._times)

    def times(self) -> np.ndarray:
        """Sample times as an array."""
        return np.asarray(self._times, dtype=np.float64)

    def node_ids(self) -> Tuple[int, ...]:
        """Every node id seen in any sample, sorted."""
        ids: set = set()
        for snap in self._snapshots:
            ids.update(snap)
        return tuple(sorted(ids))

    def trajectory(self, node_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, tis)`` arrays for one node.

        Nodes registered mid-run report ``TI = 1.0`` for samples taken
        before their first appearance (a never-seen node is fully
        trusted, matching ``TrustTable.ti``).
        """
        times = self.times()
        tis = np.asarray(
            [snap.get(node_id, 1.0) for snap in self._snapshots],
            dtype=np.float64,
        )
        return times, tis

    def final_tis(self) -> Dict[int, float]:
        """The last sample's TI map (empty when never sampled)."""
        if not self._snapshots:
            return {}
        return dict(self._snapshots[-1])

    def crossing_time(
        self, node_id: int, ti_threshold: float
    ) -> Optional[float]:
        """First sample time at which the node's TI sat strictly below
        ``ti_threshold`` (the diagnosis convention), or None.
        """
        for time, snap in zip(self._times, self._snapshots):
            if snap.get(node_id, 1.0) < ti_threshold:
                return time
        return None

    def diagnosis_times(self) -> Dict[int, float]:
        """``{node_id: diagnosis time}`` from the attached diagnoser."""
        if self.diagnoser is None:
            return {}
        return {entry.node_id: entry.time for entry in self.diagnoser.log}

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_records(self) -> Iterator[Dict[str, object]]:
        """JSONL records: one ``sample`` per snapshot, then ``diagnosis``
        entries from the attached diagnoser.

        TI values round-trip bit-identically through JSON (``json``
        serialises floats via ``repr``), so the final sample
        reconstructs the table's exact end state.
        """
        for time, snap in zip(self._times, self._snapshots):
            yield {
                "type": "sample",
                "time": time,
                "tis": {str(node): ti for node, ti in sorted(snap.items())},
            }
        if self.diagnoser is not None:
            for entry in self.diagnoser.log:
                yield {
                    "type": "diagnosis",
                    "time": entry.time,
                    "node": entry.node_id,
                    "ti": entry.ti_at_diagnosis,
                    "isolated": entry.isolated,
                }

    def __repr__(self) -> str:
        return (
            f"TrustProbe(samples={self.n_samples}, "
            f"nodes={len(self.node_ids())})"
        )
