"""The trust-index (TI) model of §3.

Each node is assigned a trust index maintained at the cluster head.  The
CH keeps, per node, a fault accumulator ``v`` (non-negative real):

* a report the CH deems **faulty** increments ``v`` by ``1 - f_r``;
* a report the CH deems **correct** decrements ``v`` by ``f_r``, floored
  at zero;

and the trust index is the derived quantity ``TI = exp(-lambda * v)``,
so a fresh node starts at ``TI = 1`` and trust decays *exponentially*
with accumulated misbehaviour.  ``f_r`` is the *fault rate* the system
charges against -- the expected natural error rate of a correct node --
so a node erring exactly at rate ``f_r`` has ``E[delta v] = 0`` and its
TI performs a random walk around its current value, while a node erring
more often drifts down and one erring less often recovers toward 1.

``lambda`` controls how sharply trust decays; the paper uses 0.1 for the
binary experiments (Table 1) and 0.25 for the location experiments
(Table 2), and §5 analyses its effect on how fast compromised nodes can
be absorbed (Fig. 11).

:class:`TrustTable` maps each node id to a :class:`TrustEntry` holding
``v`` and its TI.  Every update stores the TI as
``math.exp(-lambda * v)``, the expression :meth:`TrustParameters.ti_of`
evaluates, so reads are attribute loads and a stored TI always has
exactly the bits ``ti_of(v)`` gives.  CTI sums run left to right from
0.0 in explicit loops -- never ``sum()``, whose float association
changed in CPython 3.12 -- so a vote's verdict does not depend on the
interpreter.  The randomized equivalence suites hold the table
bit-identical to the derive-on-read oracle in ``tests/oracles/trust.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.obs.spans import NULL_SPANS

_exp = math.exp


@dataclass(frozen=True)
class TrustParameters:
    """Parameters of the TI update rule.

    Attributes
    ----------
    lam:
        The exponential decay constant ``lambda`` (> 0).
    fault_rate:
        ``f_r``, the tolerated natural error rate (in ``[0, 1)``).  Note
        Table 2 deliberately sets ``f_r = 0.1`` above the correct nodes'
        NER "to compensate for wireless channel model losses".
    """

    lam: float = 0.25
    fault_rate: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.lam < math.inf:
            raise ValueError(
                f"lambda must be positive and finite, got {self.lam}"
            )
        if not 0.0 <= self.fault_rate < 1.0:
            raise ValueError(
                f"fault_rate must be in [0, 1), got {self.fault_rate}"
            )

    @property
    def penalty_step(self) -> float:
        """Increment applied to ``v`` for a faulty report: ``1 - f_r``."""
        return 1.0 - self.fault_rate

    @property
    def reward_step(self) -> float:
        """Decrement applied to ``v`` for a correct report: ``f_r``."""
        return self.fault_rate

    def ti_of(self, v: float) -> float:
        """Trust index corresponding to an accumulator value ``v``."""
        return math.exp(-self.lam * v)


# Accumulated rounding from repeated reward subtractions is bounded
# by ~(recovery horizon) * ulp(1) ~ 1e-11; anything below this snaps
# to zero so a fully repaid penalty restores TI to exactly 1.0.
_V_EPSILON = 1e-9


class TrustEntry:
    """One node's trust state at the cluster head.

    ``v`` is the fault accumulator and ``ti`` its trust index, which the
    table refreshes on every update.
    """

    __slots__ = ("v", "ti")

    def __init__(self) -> None:
        self.v = 0.0
        self.ti = 1.0

    def __repr__(self) -> str:
        return f"TrustEntry(v={self.v}, ti={self.ti})"


class TrustTable:
    """The cluster head's table of trust entries for its member nodes.

    The table is the unit of state handed between cluster-head
    generations via the base station (§2): serialising ``{node: v}``
    preserves every TI, because each is a function of its ``v``.

    Parameters
    ----------
    params:
        TI update-rule parameters.
    node_ids:
        Nodes to pre-register at full trust (``v = 0``).  Unknown nodes
        are also auto-registered on first update, never on a read.
    """

    _V_EPSILON = _V_EPSILON

    #: Span collector, disabled by default; ``ClusterHead.attach``
    #: rebinds it when the run collects spans.
    spans = NULL_SPANS

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
            found = self._entries[node_id] = TrustEntry()
        return found

    def ti(self, node_id: int) -> float:
        """Trust index of ``node_id`` (1.0 for never-seen nodes)."""
        found = self._entries.get(node_id)
        return 1.0 if found is None else found.ti

    def cti(self, node_ids: Iterable[int]) -> float:
        """Cumulative trust index of a group (§3.1).

        Sums left to right in iterable order from 0.0; never-seen nodes
        count 1.0 and are *not* registered.
        """
        get = self._entries.get
        total = 0.0
        for node_id in node_ids:
            found = get(node_id)
            total += 1.0 if found is None else found.ti
        return total

    def tis(self) -> Dict[int, float]:
        """Snapshot mapping of node id to current TI."""
        return {node_id: e.ti for node_id, e in self._entries.items()}

    def below_threshold(self, ti_threshold: float) -> Tuple[int, ...]:
        """Node ids whose TI has fallen strictly below ``ti_threshold``."""
        return tuple(
            sorted(
                node_id
                for node_id, e in self._entries.items()
                if e.ti < ti_threshold
            )
        )

    # ------------------------------------------------------------------
    # CTI voting
    # ------------------------------------------------------------------
    def cti_vote(
        self,
        reporters: Iterable[int],
        non_reporters: Iterable[int],
    ) -> Tuple[bool, tuple, tuple, float, float, bool, tuple, tuple]:
        """One full §3.1 CTI vote: sum both groups, then update both.

        Returns ``(occurred, r, nr, cti_r, cti_nr, tie, winners,
        losers)`` with ``r`` / ``nr`` the sorted groups and the CTIs read
        before any update; :class:`~repro.core.binary.CtiVoter` returns
        ``occurred`` and emits the vote's spans, so the vote itself emits
        none.

        Raises ``ValueError`` if a node is in both groups.
        """
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
        # §3.1 leaves the exact tie open; the §5 analysis needs a strict
        # majority (Z >= floor(N/2) + 1), so a tie fails: no event.
        occurred = cti_r > cti_nr
        tie = cti_r == cti_nr
        winners, losers = (r, nr) if occurred else (nr, r)
        self._reward_all(winners)
        self._penalize_all(losers)
        return occurred, r, nr, cti_r, cti_nr, tie, winners, losers

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _penalize_all(self, node_ids: Iterable[int]) -> None:
        """``v += 1 - f_r``, node by node."""
        entries = self._entries
        step = self.params.penalty_step
        neg_lam = -self.params.lam
        for node_id in node_ids:
            e = entries.get(node_id)
            if e is None:
                e = entries[node_id] = TrustEntry()
            v = e.v + step
            e.v = v
            e.ti = _exp(neg_lam * v)

    def _reward_all(self, node_ids: Iterable[int]) -> None:
        """``v = max(0, v - f_r)``, node by node."""
        entries = self._entries
        step = self.params.reward_step
        neg_lam = -self.params.lam
        for node_id in node_ids:
            e = entries.get(node_id)
            if e is None:
                e = entries[node_id] = TrustEntry()
            v = e.v - step
            if v < _V_EPSILON:
                v = 0.0
            e.v = v
            e.ti = _exp(neg_lam * v)

    def _span(self, category: str, node_ids: Iterable[int]) -> None:
        """One transition span listing the nodes and their new TIs."""
        spans = self.spans
        spans.point(
            category,
            parent=spans.current,
            nodes=list(node_ids),
            ti=[self.ti(n) for n in node_ids],
        )

    def penalize(self, node_id: int) -> float:
        """Charge one faulty report: ``v += 1 - f_r``.  Returns new TI."""
        self._penalize_all((node_id,))
        if self.spans.enabled:
            self._span("trust.penalize", (node_id,))
        return self._entries[node_id].ti

    def reward(self, node_id: int) -> float:
        """Credit one correct report: ``v = max(0, v - f_r)``.  Returns TI."""
        self._reward_all((node_id,))
        if self.spans.enabled:
            self._span("trust.reward", (node_id,))
        return self._entries[node_id].ti

    def penalize_many(self, node_ids: Iterable[int]) -> None:
        """Charge one faulty report to each node (batch, no TI returned)."""
        if not self.spans.enabled:
            self._penalize_all(node_ids)
            return
        node_ids = list(node_ids)
        self._penalize_all(node_ids)
        if node_ids:
            self._span("trust.penalize", node_ids)

    def set_v(self, node_id: int, v: float) -> None:
        """Force a node's accumulator (used when restoring transfers).

        Stores a plain float, and ``-0.0`` as ``0.0`` so a restored
        full-trust node exports exactly like a fresh one.
        """
        if v < 0:
            raise ValueError(f"v must be non-negative, got {v}")
        v = float(v)
        if v == 0.0:
            v = 0.0  # -0.0 compares equal; store the positive zero
        e = self.entry(node_id)
        e.v = v
        e.ti = _exp(-self.params.lam * v)

    # ------------------------------------------------------------------
    # Serialisation / hand-off
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[int, float]:
        """``{node_id: v}`` snapshot for transfer to the base station."""
        return {node_id: e.v for node_id, e in self._entries.items()}

    def import_state(self, state: Mapping[int, float]) -> None:
        """Merge a transferred ``{node_id: v}`` snapshot into this table."""
        for node_id, v in state.items():
            self.set_v(node_id, v)

    def __repr__(self) -> str:
        return (
            f"TrustTable(lambda={self.params.lam}, f_r={self.params.fault_rate}, "
            f"nodes={len(self._entries)})"
        )
