"""Shadow cluster heads (§3.4).

"We assign two additional shadow cluster heads (SCH) to each cluster
such that the SCHs can monitor all input and output traffic associated
with the selected CH. ... The SCHs listen in to the communication going
in and out of the CH and perform all the functions as the CH except
transmitting the aggregated event reports to the base station.  On
perceiving a wrong conclusion being drawn at the CH based on the input
data, the SCHs also send the result of their own computations to the
base station."

A :class:`ShadowClusterHead` wraps its own full :class:`ClusterHead`
decision pipeline (with its own independent trust table) fed from a
radio tap on the CH, and compares its verdicts against the CH's
broadcast announcements.  A mismatch produces a
:class:`~repro.network.messages.ScHDisagreement` to the base station,
which resolves by simple 1-of-3 voting (CH + 2 SCHs).

The mirror records no spans and counts no metrics: its verdicts are
private recomputations, not network decisions.  A dissent is recorded
(``sch.disagree``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from repro.clusterctl.head import ClusterHead, ClusterHeadConfig, DecisionRecord
from repro.network.geometry import Point
from repro.network.messages import (
    ChDecisionAnnouncement,
    EventReportMessage,
    Message,
    ScHDisagreement,
)
from repro.network.node import NetworkNode
from repro.network.topology import Deployment
from repro.obs.registry import NULL_REGISTRY
from repro.obs.spans import NULL_SPANS


class _Unobserved:
    """The simulator as a shadow's mirror sees it: without spans or
    metrics.  The clock and timers it uses per report are direct
    attributes."""

    spans = NULL_SPANS
    metrics = NULL_REGISTRY

    def __init__(self, sim) -> None:
        self._sim = sim
        self.at = sim.at
        self.after = sim.after

    @property
    def now(self) -> float:
        return self._sim.now

    def __getattr__(self, name: str):
        return getattr(self._sim, name)


class ShadowClusterHead(NetworkNode):
    """One of the two SCHs monitoring a cluster head.

    Parameters
    ----------
    node_id / position:
        Network identity; SCHs are "chosen based on the fact that they
        have the highest trust indices among nodes within one hop of the
        CH" -- the election layer makes that choice, this class is the
        running process.
    watched_ch_id:
        The cluster head being monitored.
    deployment / config:
        Same topology knowledge and configuration the CH itself uses, so
        the mirrored computation is exact.
    base_station_id:
        Where disagreements are escalated.
    corrupt:
        Test hook: a corrupt SCH inverts its own verdicts (used to show
        the base station's vote masks a single bad monitor too).
    """

    def __init__(
        self,
        node_id: int,
        position: Point,
        watched_ch_id: int,
        deployment: Deployment,
        config: ClusterHeadConfig,
        base_station_id: Optional[int] = None,
        corrupt: bool = False,
    ) -> None:
        super().__init__(node_id, position)
        self.watched_ch_id = watched_ch_id
        self.base_station_id = base_station_id
        self.corrupt = corrupt
        # The mirror pipeline: a private ClusterHead that never announces
        # and never transmits -- §3.4's "all the functions as the CH
        # except transmitting".
        self._mirror = ClusterHead(
            node_id=node_id,
            position=position,
            deployment=deployment,
            config=replace(config, announce=False, journal=False),
            base_station_id=None,
        )
        self.disagreements: List[ScHDisagreement] = []
        self.agreements = 0
        self._announcements_seen = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, sim, channel) -> None:  # noqa: D102 - see base class
        super().attach(sim, channel)
        # The mirror shares our simulator's clock but not its spans or
        # metrics, and must not transmit; a null channel guard is
        # unnecessary because announce=False and base_station_id=None
        # mean it never sends.
        self._mirror.attach(_Unobserved(sim), channel)

    @property
    def decisions(self) -> List[DecisionRecord]:
        """The SCH's independently computed decisions."""
        return self._mirror.decisions

    @property
    def trust(self):
        """The mirror's own trust table (seeded like the CH's)."""
        return self._mirror.trust

    # ------------------------------------------------------------------
    # Inbound traffic (via the radio tap on the CH plus CH broadcasts)
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        if isinstance(message, EventReportMessage):
            # Mirrored input traffic: run it through our own pipeline.
            self._mirror.on_message(message)
        elif isinstance(message, ChDecisionAnnouncement):
            if message.sender == self.watched_ch_id:
                self._check_announcement(message)

    def _check_announcement(
        self,
        announcement: ChDecisionAnnouncement,
        ordinal: Optional[int] = None,
    ) -> None:
        """Compare the CH's announced verdict with our own computation.

        Matching is by decision order: the k-th CH announcement is
        compared against our k-th decision (decision ids are globally
        unique, not per-CH ordinals).  Timing skew between the CH and
        the mirror is bounded by the propagation delay, which is far
        below ``T_out``, so the order is stable.
        """
        if ordinal is None:
            ordinal = self._announcements_seen
            self._announcements_seen += 1
        ours = self._find_matching_decision(ordinal)
        if ours is None:
            # We have not decided yet (e.g. our timer fires within the
            # next delivery slot); re-check shortly.
            self.sim.after(
                self._mirror.config.t_out / 10.0,
                self._check_announcement,
                announcement,
                ordinal,
            )
            return
        my_verdict = ours.occurred if not self.corrupt else not ours.occurred
        my_location = ours.location
        verdict_matches = my_verdict == announcement.occurred
        location_matches = self._locations_agree(
            my_location, announcement.location
        )
        if verdict_matches and location_matches:
            self.agreements += 1
            return
        dissent = ScHDisagreement(
            sender=self.node_id,
            decision_id=announcement.decision_id,
            occurred=my_verdict,
            location=my_location,
            suspected_ch=self.watched_ch_id,
        )
        self.disagreements.append(dissent)
        spans = self.sim.spans
        if spans.enabled:
            spans.point(
                "sch.disagree",
                parent=spans.current,
                sch=self.node_id,
                ch=self.watched_ch_id,
                decision_id=announcement.decision_id,
            )
        if self.base_station_id is not None:
            self.send(self.base_station_id, dissent)

    def _find_matching_decision(
        self, ordinal: int
    ) -> Optional[DecisionRecord]:
        if 0 <= ordinal < len(self._mirror.decisions):
            return self._mirror.decisions[ordinal]
        return None

    def _locations_agree(
        self, mine: Optional[Point], announced: Optional[Point]
    ) -> bool:
        if mine is None or announced is None:
            return (mine is None) == (announced is None)
        return mine.distance_to(announced) <= self._mirror.config.r_error

    def flush(self) -> None:
        """Close the mirror's open windows (end of run)."""
        self._mirror.flush()
