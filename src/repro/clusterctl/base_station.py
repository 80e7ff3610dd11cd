"""The base station: TI registry of record and CH-failure arbiter.

§2: an outgoing CH "sends the aggregate TI information that it has
gathered for all nodes in its cluster to the base station before ending
its leadership", a newly elected CH "requests the base station for TI
information", and the BS cancels a CH bid from any node whose TI sits
below threshold.

§3.4: when shadow cluster heads dissent from a CH verdict, the BS "does
a simple voting to arrive at the right conclusion", prompts re-election
in the cluster, and "reduces the TI of the previous faulty CH".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.trust import TrustParameters, TrustTable
from repro.network.geometry import Point
from repro.network.messages import (
    ChDecisionAnnouncement,
    Message,
    ScHDisagreement,
    TiTableTransfer,
)
from repro.network.node import NetworkNode


@dataclass
class _DisputeState:
    """Votes collected for one disputed CH decision.

    ``sch_votes`` maps each dissenting shadow to its first
    ``(verdict, location)``, in arrival order: a shadow votes once, however
    often its dissent is delivered.
    """

    ch_verdict: Optional[bool] = None
    sch_votes: Dict[int, Tuple[bool, Optional[Point]]] = field(
        default_factory=dict
    )
    resolved: bool = False


@dataclass(frozen=True)
class DisputeResolution:
    """Outcome of one BS arbitration (§3.4).

    ``final_location`` carries the dissenting shadows' computed event
    location (when the dispute was over a located decision): the
    system-level answer after the 2-of-3 vote.
    """

    decision_id: int
    ch_id: int
    final_verdict: bool
    ch_was_wrong: bool
    final_location: Optional[Point] = None


class BaseStation(NetworkNode):
    """The network's root of trust custody and CH arbitration.

    Parameters
    ----------
    node_id / position:
        Network identity; conventionally placed outside the sensing
        field.
    trust_params:
        Parameters of the registry, the BS's copy of the TI tables its
        CHs hand off (and of the penalty for deposed CHs).
    ch_ti_threshold:
        Candidates below this registry TI are vetoed (§2).
    on_reelection:
        Callback ``on_reelection(deposed_ch_id)`` fired when arbitration
        finds the CH faulty, for a caller that re-elects at once; a
        rotating run re-elects at the next leadership instead.
    """

    def __init__(
        self,
        node_id: int,
        position: Point,
        trust_params: Optional[TrustParameters] = None,
        ch_ti_threshold: float = 0.8,
        on_reelection: Optional[Callable[[int], None]] = None,
    ) -> None:
        super().__init__(node_id, position)
        self.trust_params = (
            trust_params if trust_params is not None else TrustParameters()
        )
        if not 0.0 <= ch_ti_threshold <= 1.0:
            raise ValueError(
                f"ch_ti_threshold must be in [0, 1], got {ch_ti_threshold}"
            )
        self.ch_ti_threshold = ch_ti_threshold
        self._on_reelection = on_reelection
        #: The registry: one trust table for every node a CH handed off.
        self.registry = TrustTable(self.trust_params)
        self._disputes: Dict[Tuple[int, int], _DisputeState] = {}
        self._announcements: Dict[Tuple[int, int], ChDecisionAnnouncement] = {}
        self.resolutions: List[DisputeResolution] = []
        self._host_of_ch: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def ti_of(self, node_id: int) -> float:
        """Registry TI of a node (1.0 if the node is unknown)."""
        return self.registry.ti(node_id)

    def approves_candidate(self, node_id: int) -> bool:
        """The §2 admission gate for CH candidacy."""
        return self.ti_of(node_id) >= self.ch_ti_threshold

    def table_for_new_ch(self) -> Dict[int, float]:
        """State a newly elected CH requests at the start of leadership."""
        return self.registry.export_state()

    def bind_ch(self, ch_id: int, host_node_id: Optional[int] = None) -> None:
        """Record the sensing node hosting CH ``ch_id`` (for arbitration).

        ``host_node_id`` names it when the two use distinct addresses;
        deposition penalties land on the host's registry entry so later
        elections see them.
        """
        self._host_of_ch[ch_id] = (
            host_node_id if host_node_id is not None else ch_id
        )

    # ------------------------------------------------------------------
    # Inbound traffic
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        if isinstance(message, TiTableTransfer):
            self.registry.import_state(message.table)
        elif isinstance(message, ChDecisionAnnouncement):
            self._on_announcement(message)
        elif isinstance(message, ScHDisagreement):
            self._on_disagreement(message)

    def _on_announcement(self, message: ChDecisionAnnouncement) -> None:
        key = (message.sender, message.decision_id)
        self._announcements[key] = message
        # If SCH dissent arrived before the announcement, try resolving.
        state = self._disputes.get(key)
        if state is not None:
            state.ch_verdict = message.occurred
            self._try_resolve(key)

    def _on_disagreement(self, message: ScHDisagreement) -> None:
        key = (message.suspected_ch, message.decision_id)
        state = self._disputes.get(key)
        if state is None:
            state = _DisputeState()
            announcement = self._announcements.get(key)
            if announcement is not None:
                state.ch_verdict = announcement.occurred
            self._disputes[key] = state
        elif message.sender in state.sch_votes:
            return  # a repeated dissent: the shadow's first vote counts
        state.sch_votes[message.sender] = (message.occurred, message.location)
        self._try_resolve(key)

    # ------------------------------------------------------------------
    # Arbitration (§3.4)
    # ------------------------------------------------------------------
    def _try_resolve(self, key: Tuple[int, int]) -> None:
        ch_id, decision_id = key
        state = self._disputes[key]
        if state.resolved or state.ch_verdict is None:
            return
        if not state.sch_votes:
            return
        # Simple voting over {CH, dissenting SCHs}.  With two SCHs a
        # single dissenter leaves 1-1 pending; both dissenting (2-1)
        # overrules the CH.  A lone dissent against a silent second SCH
        # never resolves: the CH verdict stands, since a dispute settles
        # only when the dissenters reach a majority of the monitors.
        votes_against_ch = sum(
            1 for v, _ in state.sch_votes.values() if v != state.ch_verdict
        )
        if votes_against_ch < 2:
            return
        state.resolved = True
        final_verdict = not state.ch_verdict
        final_location = next(
            (
                loc
                for v, loc in state.sch_votes.values()
                if v != state.ch_verdict and loc is not None
            ),
            None,
        )
        self._depose(ch_id, decision_id, final_verdict, final_location)

    def _depose(
        self,
        ch_id: int,
        decision_id: int,
        final_verdict: bool,
        final_location: Optional[Point] = None,
    ) -> None:
        resolution = DisputeResolution(
            decision_id=decision_id,
            ch_id=ch_id,
            final_verdict=final_verdict,
            ch_was_wrong=True,
            final_location=final_location,
        )
        self.resolutions.append(resolution)
        # "reduces the TI of the previous faulty CH"
        self.registry.penalize(self._host_of_ch.get(ch_id, ch_id))
        spans = self.sim.spans
        if spans.enabled:
            spans.point(
                "bs.depose",
                parent=spans.current,
                ch=ch_id,
                decision_id=decision_id,
            )
        if self._on_reelection is not None:
            self._on_reelection(ch_id)
