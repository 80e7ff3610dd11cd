"""Shadow cluster heads (§3.4).

"We assign two additional shadow cluster heads (SCH) to each cluster
such that the SCHs can monitor all input and output traffic associated
with the selected CH. ... The SCHs listen in to the communication going
in and out of the CH and perform all the functions as the CH except
transmitting the aggregated event reports to the base station.  On
perceiving a wrong conclusion being drawn at the CH based on the input
data, the SCHs also send the result of their own computations to the
base station."

Both SCHs of one head compute the same thing: they hear the same tapped
reports, start from the same trust snapshot and run the same
configuration.  So the computation runs once per watched head, in a
:class:`HeadMirror` -- a :class:`ClusterHead` that never announces,
tapped on the head once -- and each :class:`ShadowClusterHead` is a seat
on it that keeps only what belongs to one node: its channel address,
its ``corrupt`` flag, its checks of the CH's broadcast announcements
(agreements and dissents) and its own decision log.
:func:`appoint_shadows` builds a mirror and its seats; see
``docs/protocol.md`` §3.4 for when one mirror would stop serving both.

A seat whose verdict differs from the CH's announcement sends a
:class:`~repro.network.messages.ScHDisagreement` to the base station,
which resolves by simple 2-of-3 voting (CH + 2 SCHs).

The mirror records no spans, and the run's counts leave it out: its
verdicts are private recomputations, not network decisions.  A dissent
is recorded (``sch.disagree``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.clusterctl.head import ClusterHead, DecisionRecord, _decision_ids
from repro.network.geometry import Point
from repro.network.messages import (
    ChDecisionAnnouncement,
    Message,
    ScHDisagreement,
)
from repro.network.node import NetworkNode
from repro.obs.spans import NULL_SPANS
from repro.service.ids import IdAllocator

__all__ = ["HeadMirror", "ShadowClusterHead", "appoint_shadows"]


class _Unobserved:
    """The simulator as a mirror sees it: without spans.  The clock and
    timers it uses per report are direct attributes."""

    spans = NULL_SPANS

    def __init__(self, sim) -> None:
        self._sim = sim
        self.at = sim.at
        self.after = sim.after

    @property
    def now(self) -> float:
        return self._sim.now

    def __getattr__(self, name: str):
        return getattr(self._sim, name)


class HeadMirror(ClusterHead):
    """One watched head's recomputation, shared by its shadow seats.

    §3.4's "all the functions as the CH except transmitting": a
    :class:`ClusterHead` with the watched head's address, deployment and
    configuration that never announces and keeps no journal.  It is
    never registered on the channel; it hears the head's input through
    its tap.  Its own log numbers verdicts from a private allocator.
    After each closed window it hands that window's verdicts to its
    seats in seat order, and each seat mints its own ids from the shared
    DES allocator: the ids a private mirror per seat would mint, since
    each such mirror closed the same window right after the previous
    one.
    """

    def __init__(self, ch: ClusterHead) -> None:
        super().__init__(
            node_id=ch.node_id,
            position=ch.position,
            deployment=ch.deployment,
            config=replace(ch.config, announce=False, journal=False),
            id_allocator=IdAllocator(),
        )
        self.watched_ch_id = ch.node_id
        self.seats: List[ShadowClusterHead] = []
        self._handed = 0

    def _decide_binary(self, reports) -> None:
        super()._decide_binary(reports)
        self._hand_over()

    def _decide_group(self, rows) -> None:
        super()._decide_group(rows)
        self._hand_over()

    def _hand_over(self) -> None:
        """Give every seat, in seat order, the window just decided."""
        verdicts = self.decisions[self._handed:]
        if not verdicts:
            return
        self._handed = len(self.decisions)
        for seat in self.seats:
            seat.adopt(verdicts)

    def dismiss(self) -> None:
        """End the watch: close open windows, untap the head, and take
        the seats off the channel."""
        self.flush()
        channel = self.channel
        channel.remove_tap(self.watched_ch_id, self)
        for seat in self.seats:
            channel.unregister(seat.node_id)


class ShadowClusterHead(NetworkNode):
    """One of the two SCHs monitoring a cluster head: a seat on its mirror.

    Parameters
    ----------
    node_id / position:
        Network identity; SCHs are "chosen based on the fact that they
        have the highest trust indices among nodes within one hop of the
        CH" -- the election layer makes that choice, this class is the
        running process.
    mirror:
        The watched head's recomputation, which this seat shares with
        the head's other SCH.
    base_station_id:
        Where disagreements are escalated.

    Setting ``corrupt`` makes the seat invert its own verdicts, a test
    hook showing that the base station's vote masks a single bad
    monitor too.
    """

    def __init__(
        self,
        node_id: int,
        position: Point,
        mirror: HeadMirror,
        base_station_id: Optional[int] = None,
    ) -> None:
        super().__init__(node_id, position)
        self.mirror = mirror
        self.watched_ch_id = mirror.watched_ch_id
        self.base_station_id = base_station_id
        self.corrupt = False
        self.decisions: List[DecisionRecord] = []
        self.disagreements: List[ScHDisagreement] = []
        self.agreements = 0
        self._announcements_seen = 0

    @property
    def trust(self):
        """The trust table this seat's verdicts come from: its mirror's."""
        return self.mirror.trust

    def adopt(self, verdicts: Sequence[DecisionRecord]) -> None:
        """Log one closed window's verdicts under ids of this seat's own."""
        ids = _decision_ids
        self.decisions.extend(
            verdict._replace(decision_id=next(ids)) for verdict in verdicts
        )

    # ------------------------------------------------------------------
    # Inbound traffic: the CH's broadcast verdicts
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        if (
            isinstance(message, ChDecisionAnnouncement)
            and message.sender == self.watched_ch_id
        ):
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
        if ordinal >= len(self.decisions):
            # We have not decided yet (e.g. the mirror's timer fires
            # within the next delivery slot); re-check shortly.
            self.sim.after(
                self.mirror.config.t_out / 10.0,
                self._check_announcement,
                announcement,
                ordinal,
            )
            return
        ours = self.decisions[ordinal]
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

    def _locations_agree(
        self, mine: Optional[Point], announced: Optional[Point]
    ) -> bool:
        if mine is None or announced is None:
            return (mine is None) == (announced is None)
        return mine.distance_to(announced) <= self.mirror.config.r_error


def appoint_shadows(
    ch: ClusterHead,
    seats: Iterable[Tuple[int, Point]],
    trust: Optional[Mapping[int, float]] = None,
    base_station_id: Optional[int] = None,
) -> HeadMirror:
    """Build ``ch``'s mirror and seat one SCH per ``(node_id, position)``.

    ``ch`` must be registered on its channel already.  The mirror
    imports ``trust`` -- the snapshot the head itself imported; without
    it an honest CH and its shadows would vote with different weights --
    and is tapped on ``ch``.  The seats are registered on ``ch``'s
    channel in the order given, which is also the order in which they
    mint decision ids.  :meth:`HeadMirror.dismiss` undoes the
    appointment.
    """
    channel = ch.channel
    mirror = HeadMirror(ch)
    mirror.attach(_Unobserved(ch.sim), channel)
    if trust is not None:
        mirror.trust.import_state(trust)
    for node_id, position in seats:
        seat = ShadowClusterHead(
            node_id, position, mirror, base_station_id=base_station_id
        )
        channel.register(seat)
        mirror.seats.append(seat)
    channel.add_tap(ch.node_id, mirror)
    return mirror
