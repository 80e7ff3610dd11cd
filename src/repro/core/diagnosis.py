"""Diagnosis and isolation of faulty nodes.

§3.1: "After time, the system can identify a faulty node when its TI
falls below a certain threshold.  It can then be removed from the
network."  :class:`FaultDiagnoser` watches a trust table, records
threshold crossings, and isolates every diagnosed node: the decision
engines drop its reports and its silence, "thus eliminating them from
causing future damage" (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from repro.core.trust import TrustTable


@dataclass(frozen=True)
class DiagnosisEntry:
    """One diagnosis event: a node's TI crossed the isolation threshold."""

    node_id: int
    time: float
    ti_at_diagnosis: float


class FaultDiagnoser:
    """TI-threshold fault diagnosis; a diagnosed node is isolated.

    Parameters
    ----------
    trust:
        The trust table to monitor.
    ti_threshold:
        Nodes whose TI drops strictly below this value are diagnosed;
        :attr:`diagnosed` is the exclusion set the decision engines
        honour.
    """

    def __init__(self, trust: TrustTable, ti_threshold: float) -> None:
        if not 0.0 <= ti_threshold < 1.0:
            raise ValueError(
                f"ti_threshold must be in [0, 1), got {ti_threshold}"
            )
        self.trust = trust
        self.ti_threshold = ti_threshold
        self._diagnosed: Set[int] = set()
        self._diagnosed_sorted: Optional[Tuple[int, ...]] = None
        self.log: List[DiagnosisEntry] = []

    @property
    def diagnosed(self) -> Tuple[int, ...]:
        """Node ids diagnosed (and so isolated) so far, sorted."""
        cached = self._diagnosed_sorted
        if cached is None:
            cached = self._diagnosed_sorted = tuple(sorted(self._diagnosed))
        return cached

    def is_excluded(self, node_id: int) -> bool:
        """Set-membership twin of :attr:`diagnosed` for per-report checks."""
        return node_id in self._diagnosed

    def sweep(self, now: float = 0.0) -> List[DiagnosisEntry]:
        """Check every tracked node once; returns *new* diagnoses only.

        Call after each decision round -- diagnosis is event-driven in
        the protocol, so sweeping per round matches the paper's "after
        time, the system can identify a faulty node".
        """
        fresh: List[DiagnosisEntry] = []
        for node_id in self.trust.below_threshold(self.ti_threshold):
            if node_id in self._diagnosed:
                continue
            self._diagnosed.add(node_id)
            self._diagnosed_sorted = None
            entry = DiagnosisEntry(
                node_id=node_id,
                time=now,
                ti_at_diagnosis=self.trust.ti(node_id),
            )
            self.log.append(entry)
            fresh.append(entry)
        return fresh

    def restore(self, node_ids: Iterable[int]) -> None:
        """Re-mark nodes as already diagnosed (session-state import).

        Unlike :meth:`sweep` this appends no log entries -- the
        diagnoses happened in the exporting session; this just restores
        the resulting exclusion set.
        """
        for node_id in node_ids:
            self._diagnosed.add(int(node_id))
        self._diagnosed_sorted = None
