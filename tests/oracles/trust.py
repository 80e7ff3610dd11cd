"""The derive-on-read trust table: the oracle for :class:`TrustTable`.

:class:`TrustTableReference` is the original implementation of the §3
trust model, kept semantically frozen so the randomized equivalence
suites (``tests/core/test_trust_equivalence.py``,
``tests/property/test_trust_equivalence.py``) can prove
:class:`~repro.core.trust.TrustTable` bit-identical to it.  It stores
only ``v`` per node and derives each TI with ``params.ti_of(v)`` on
read, where the table stores the TI it computed at update time; and it
votes by looping the scalar ``reward`` / ``penalize`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.core.trust import _V_EPSILON, TrustParameters


@dataclass
class TrustEntry:
    """Per-node trust state held at the cluster head.

    Only ``v`` is primary state; the TI is derived on demand.
    """

    v: float = 0.0
    correct_reports: int = 0
    faulty_reports: int = 0

    def __post_init__(self) -> None:
        if self.v < 0:
            raise ValueError(f"v must be non-negative, got {self.v}")


class TrustTableReference:
    """Dict-of-entries trust table with derived TIs: the reference oracle.

    It also implements the vote / batch API (naively, by looping the
    scalar operations exactly as the original ``CtiVoter.decide`` did)
    so either table can back a voter.
    """

    _V_EPSILON = _V_EPSILON

    def __init__(
        self,
        params: TrustParameters,
        node_ids: Iterable[int] = (),
    ) -> None:
        self.params = params
        self._entries: Dict[int, TrustEntry] = {
            node_id: TrustEntry() for node_id in node_ids
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._entries))

    def entry(self, node_id: int) -> TrustEntry:
        """The (auto-created) entry for ``node_id``."""
        found = self._entries.get(node_id)
        if found is None:
            found = TrustEntry()
            self._entries[node_id] = found
        return found

    def ti(self, node_id: int) -> float:
        """Trust index of ``node_id`` (1.0 for never-seen nodes)."""
        found = self._entries.get(node_id)
        if found is None:
            return 1.0
        return self.params.ti_of(found.v)

    def cti(self, node_ids: Iterable[int]) -> float:
        """Cumulative trust index of a group (§3.1), summed left to right
        from 0.0 (``sum()`` of floats is compensated from CPython 3.12)."""
        total = 0.0
        for node_id in node_ids:
            total += self.ti(node_id)
        return total

    def tis(self) -> Dict[int, float]:
        """Snapshot mapping of node id to current TI."""
        return {node_id: self.ti(node_id) for node_id in self._entries}

    def below_threshold(self, ti_threshold: float) -> Tuple[int, ...]:
        """Node ids whose TI has fallen strictly below ``ti_threshold``."""
        return tuple(
            sorted(
                node_id
                for node_id in self._entries
                if self.ti(node_id) < ti_threshold
            )
        )

    # ------------------------------------------------------------------
    # CTI voting (naive reference)
    # ------------------------------------------------------------------
    def cti_vote(
        self,
        reporters: Iterable[int],
        non_reporters: Iterable[int],
        tie_breaks_to_occurred: bool = False,
    ) -> Tuple[bool, tuple, tuple, float, float, bool, tuple, tuple]:
        """One full CTI vote, element by element (the oracle path)."""
        r_set = set(reporters)
        nr_set = set(non_reporters)
        overlap = r_set & nr_set
        if overlap:
            raise ValueError(
                f"nodes {sorted(overlap)} appear as both reporter and "
                "non-reporter"
            )
        r = tuple(sorted(r_set))
        nr = tuple(sorted(nr_set))
        cti_r = self.cti(r)
        cti_nr = self.cti(nr)
        tie = cti_r == cti_nr
        occurred = tie_breaks_to_occurred if tie else cti_r > cti_nr
        winners, losers = (r, nr) if occurred else (nr, r)
        for node_id in winners:
            self.reward(node_id)
        for node_id in losers:
            self.penalize(node_id)
        return occurred, r, nr, cti_r, cti_nr, tie, winners, losers

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def penalize(self, node_id: int) -> float:
        """Charge one faulty report: ``v += 1 - f_r``.  Returns new TI."""
        entry = self.entry(node_id)
        entry.v += self.params.penalty_step
        entry.faulty_reports += 1
        return self.params.ti_of(entry.v)

    def reward(self, node_id: int) -> float:
        """Credit one correct report: ``v = max(0, v - f_r)``.  Returns TI."""
        entry = self.entry(node_id)
        v = entry.v - self.params.reward_step
        entry.v = 0.0 if v < self._V_EPSILON else v
        entry.correct_reports += 1
        return self.params.ti_of(entry.v)

    def penalize_many(self, node_ids: Iterable[int]) -> None:
        """Batch penalty: one :meth:`penalize` per node, TI discarded."""
        for node_id in node_ids:
            self.penalize(node_id)

    def set_v(self, node_id: int, v: float) -> None:
        """Force a node's accumulator (used when restoring transfers)."""
        if v < 0:
            raise ValueError(f"v must be non-negative, got {v}")
        self.entry(node_id).v = v

    # ------------------------------------------------------------------
    # Serialisation / hand-off
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[int, float]:
        """``{node_id: v}`` snapshot for transfer to the base station."""
        return {node_id: entry.v for node_id, entry in self._entries.items()}

    def import_state(self, state: Mapping[int, float]) -> None:
        """Merge a transferred ``{node_id: v}`` snapshot into this table."""
        for node_id, v in state.items():
            self.set_v(node_id, v)

    def __repr__(self) -> str:
        return (
            f"TrustTableReference(lambda={self.params.lam}, "
            f"f_r={self.params.fault_rate}, nodes={len(self._entries)})"
        )
