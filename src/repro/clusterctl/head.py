"""The cluster-head process.

The CH is the data sink of its cluster (§2): it receives event reports,
collects them over ``T_out`` windows, decides occurrence (and location)
with CTI voting, updates the trust table, broadcasts its verdicts, runs
TI-threshold diagnosis, and hands its trust state to the base station
when its leadership ends.

Two collection modes mirror the paper's two models:

* ``binary``   -- a single window per burst: the first report opens a
  ``T_out`` timer; at expiry all cluster members are the event
  neighbours (§3.1 / Experiment 1's "all nodes are considered event
  neighbors for every randomized event").
* ``location`` -- reports are routed through the concurrent-event
  circle tracker (§3.3) and each closed circle group is clustered and
  voted by the decision kernel (§3.2).

The decision pipeline itself -- trust table, voter, kernel, diagnosis
-- lives in an embedded :class:`~repro.service.session.TrustSession`:
the CH is one client of the service engine, owning only what is
DES-specific (timers, the circle tracker, span emission, and verdict
announcements).  ``self.trust``, ``self.voter``, ``self.diagnoser`` and
``self.decisions`` alias the session's objects, so existing consumers
see the exact structures they always did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.binary import CtiVoter
from repro.core.concurrent import CircleTracker
from repro.core.decision_kernel import Row
from repro.core.trust import TrustParameters
from repro.network.geometry import Point, displace_xy
from repro.network.messages import (
    ChDecisionAnnouncement,
    EventReportMessage,
    Message,
    TiTableTransfer,
)
from repro.network.node import NetworkNode
from repro.network.topology import Deployment
from repro.service.ids import IdAllocator
from repro.service.session import (
    DecisionRecord,
    SessionConfig,
    TrustSession,
)

__all__ = [
    "ClusterHead",
    "ClusterHeadConfig",
    "DecisionRecord",
    "reset_decision_ids",
]


@dataclass(frozen=True)
class ClusterHeadConfig:
    """Behavioural knobs of a cluster head.

    Attributes
    ----------
    mode:
        ``"binary"`` or ``"location"``.
    t_out:
        Report collection window.
    sensing_radius:
        ``r_s`` for event-neighbour determination.
    r_error:
        Localisation bound (location mode only).
    trust:
        TI update parameters; ignored when ``use_trust`` is False.
    use_trust:
        True = TIBFIT (CTI voting), False = stateless majority baseline.
    diagnosis_threshold:
        Isolate nodes whose TI sinks below this; ``None`` disables
        diagnosis (the baseline has no trust to diagnose with).
    announce:
        Broadcast :class:`ChDecisionAnnouncement` after each verdict
        (needed by shadow CHs and by smart adversaries' TI tracking).
    journal:
        Record every closed window's raw inputs in the embedded
        session (differential replay; see ``docs/service.md``).
    """

    mode: str = "location"
    t_out: float = 1.0
    sensing_radius: float = 20.0
    r_error: float = 5.0
    trust: TrustParameters = field(default_factory=TrustParameters)
    use_trust: bool = True
    diagnosis_threshold: Optional[float] = None
    announce: bool = True
    journal: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("binary", "location"):
            raise ValueError(f"mode must be 'binary' or 'location', got {self.mode!r}")
        if self.t_out <= 0:
            raise ValueError(f"t_out must be positive, got {self.t_out}")


#: Global decision-id source: ids stay unique across every cluster head
#: in a process, so multi-cluster scoring can key on them safely.  Bare
#: service sessions default to private allocators instead; reset this
#: one through :func:`reset_decision_ids`, never by rebinding.
_decision_ids = IdAllocator()


def reset_decision_ids(start: int = 1) -> None:
    """Rewind the shared DES decision-id stream (test isolation)."""
    _decision_ids.reset(start)


class ClusterHead(NetworkNode):
    """The active cluster head of one cluster.

    Parameters
    ----------
    node_id / position:
        Network identity (a CH is itself a sensor node, §2).
    deployment:
        Positions of the cluster's nodes ("the node that is chosen to be
        the CH knows the topology of the cluster", §2).
    config:
        See :class:`ClusterHeadConfig`.
    base_station_id:
        Destination for TI hand-off; ``None`` when running standalone.
    id_allocator:
        Decision-id source for the embedded session; defaults to the
        process-shared DES allocator so ids stay unique across heads.
    """

    def __init__(
        self,
        node_id: int,
        position: Point,
        deployment: Deployment,
        config: ClusterHeadConfig,
        base_station_id: Optional[int] = None,
        cluster_id: int = 0,
        id_allocator: Optional[IdAllocator] = None,
    ) -> None:
        super().__init__(node_id, position)
        self.deployment = deployment
        self.config = config
        self.base_station_id = base_station_id
        self.cluster_id = cluster_id

        self.session = TrustSession(
            deployment,
            SessionConfig(
                mode=config.mode,
                sensing_radius=config.sensing_radius,
                r_error=config.r_error,
                trust=config.trust,
                use_trust=config.use_trust,
                diagnosis_threshold=config.diagnosis_threshold,
                owner_id=node_id,
                journal=config.journal,
            ),
            id_allocator=(
                id_allocator if id_allocator is not None else _decision_ids
            ),
        )
        # Aliases into the session: same objects, the names every
        # consumer (harness, shadows, base station, tests) relies on.
        self.trust = self.session.trust
        self.voter = self.session.voter
        self.diagnoser = self.session.diagnoser
        self.decisions: List[DecisionRecord] = self.session.decisions

        self._tracker: Optional[CircleTracker] = None
        # The open binary window: open exactly while it holds a report.
        self._binary_window: List[EventReportMessage] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, sim, channel) -> None:  # noqa: D102 - see base class
        super().attach(sim, channel)
        spans = sim.spans
        if spans.enabled:
            # Rebind the collector down the decision stack (instance
            # attributes overriding the NULL_SPANS class defaults).  A
            # promoted standby CH re-runs attach and rebinds the same
            # way.
            self.trust.spans = spans
            if isinstance(self.voter, CtiVoter):
                self.voter.spans = spans
        if self.config.mode == "location":
            # The session built the kernel.  The tracker is DES-only --
            # its circles ride simulator timers -- so it stays here.
            if spans.enabled:
                self.session.kernel.spans = spans
            self._tracker = CircleTracker(
                sim,
                r_error=self.config.r_error,
                t_out=self.config.t_out,
                on_group_rows=self._decide_group,
            )

    @property
    def members(self) -> Tuple[int, ...]:
        """Cluster membership, held by the embedded session."""
        return self.session.members

    # ------------------------------------------------------------------
    # Inbound traffic
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        if isinstance(message, EventReportMessage):
            self._on_report(message)
        elif isinstance(message, TiTableTransfer):
            # Incoming TI state from the base station for a fresh CH.
            self.trust.import_state(message.table)

    def _on_report(self, message: EventReportMessage) -> None:
        if self.session.is_excluded(message.sender):
            return
        if self.config.mode == "binary":
            self._on_binary_report(message)
        else:
            self._on_location_report(message)

    def _on_binary_report(self, message: EventReportMessage) -> None:
        spans = self.sim.spans
        window = self._binary_window
        if not window:
            if spans.enabled:
                # Binary mode has no circle tracker; circle -1 marks
                # the single whole-cluster window.  Emitted before the
                # timer so T_out expiry inherits this context.
                spans.current = spans.point(
                    "window.open",
                    parent=spans.current,
                    circle=-1,
                    expires_at=self.sim.now + self.config.t_out,
                )
            self.sim.after(self.config.t_out, self._decide_binary, window)
        if spans.enabled:
            spans.point(
                "window.report",
                parent=spans.current,
                circle=-1,
                node=message.sender,
            )
        window.append(message)

    def _on_location_report(self, message: EventReportMessage) -> None:
        if message.offset is None:
            # A location-mode CH cannot place a binary report; drop it
            # (and record a span, because it usually indicates a faulty
            # sender).
            spans = self.sim.spans
            if spans.enabled:
                spans.point(
                    "ch.report.unplaceable",
                    parent=spans.current,
                    sender=message.sender,
                )
            return
        try:
            node_position = self.deployment.position_of(message.sender)
        except KeyError:
            spans = self.sim.spans
            if spans.enabled:
                spans.point(
                    "ch.report.unknown-node",
                    parent=spans.current,
                    sender=message.sender,
                )
            return
        assert self._tracker is not None  # set in attach()
        # Resolve the offset to plain floats: the tracker's row.
        offset = message.offset
        x, y = displace_xy(
            node_position.x, node_position.y, offset.r, offset.theta
        )
        self._tracker.on_report_row(message.sender, x, y)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _decide_binary(self, reports: List[EventReportMessage]) -> None:
        if reports is not self._binary_window:
            # A T_out timer whose window was flushed already: the way a
            # circle's expiry finds its circle gone.
            return
        self._binary_window = []
        if not self.alive:
            # A crashed CH decides nothing: T_out timers scheduled before
            # the crash still fire, but must neither vote (trust updates)
            # nor announce (chaos CH-crash windows).
            return

        spans = self.sim.spans
        if spans.enabled:
            # The T_out timer carries the window.open context; the close
            # span groups the vote and verdict under the whole window.
            spans.current = spans.point(
                "window.close",
                parent=spans.current,
                circles=[-1],
                reports=len(reports),
            )
        vote, reporters, non_reporters = self.session.decide_binary(
            [m.sender for m in reports], now=self.sim.now
        )
        self._record_decision(vote.occurred, None, reporters, non_reporters)

    def _decide_group(self, rows: List[Row]) -> None:
        """Decide one closed circle group, given as its report rows."""
        if not self.alive:
            return  # see _decide_binary: crashed CHs decide nothing
        decisions = self.session.decide_rows(rows, now=self.sim.now)
        for decision in decisions:
            self._record_decision(
                decision.occurred,
                decision.location,
                decision.supporters,
                decision.dissenters,
                span_id=decision.span_id,
            )

    def _record_decision(
        self,
        occurred: bool,
        location: Optional[Point],
        supporters: Tuple[int, ...],
        dissenters: Tuple[int, ...],
        span_id: int = 0,
    ) -> None:
        record = self.session.record(
            occurred, location, supporters, dissenters, now=self.sim.now
        )
        spans = self.sim.spans
        decision_ctx = 0
        if spans.enabled:
            # span_id carries the window.cluster span for location-mode
            # decisions; binary decisions parent under the window.close
            # span left on spans.current by _decide_binary.
            decision_ctx = spans.point(
                "ch.decision",
                parent=span_id or spans.current,
                decision_id=record.decision_id,
                occurred=occurred,
                x=location.x if location is not None else None,
                y=location.y if location is not None else None,
                supporters=list(supporters),
                dissenters=list(dissenters),
            )
        for entry in self.session.sweep(self.sim.now):
            if spans.enabled:
                spans.point(
                    "ch.diagnosis",
                    parent=decision_ctx,
                    node=entry.node_id,
                    ti=entry.ti_at_diagnosis,
                )
        if not self.config.announce:
            return
        announcement = ChDecisionAnnouncement(
            sender=self.node_id,
            decision_id=record.decision_id,
            occurred=occurred,
            location=location,
            reporters=supporters,
            non_reporters=dissenters,
        )
        if spans.enabled:
            # The announcement's radio.transmit spans parent under the
            # decision they announce.
            saved, spans.current = spans.current, decision_ctx
            try:
                self.broadcast(announcement)
            finally:
                spans.current = saved
        else:
            self.broadcast(announcement)

    # ------------------------------------------------------------------
    # Leadership hand-off
    # ------------------------------------------------------------------
    def end_leadership(self, round_number: int = 0) -> None:
        """Ship the aggregate TI table to the base station (§2)."""
        if self.base_station_id is None:
            return
        self.send(
            self.base_station_id,
            TiTableTransfer(
                sender=self.node_id,
                table=self.trust.export_state(),
                cluster_id=self.cluster_id,
                round_number=round_number,
            ),
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Close any open collection windows immediately (end of run)."""
        if self._tracker is not None:
            self._tracker.flush()
        if self._binary_window:
            self._decide_binary(self._binary_window)
