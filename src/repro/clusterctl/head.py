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
-- lives in an embedded :class:`~repro.service.session.TrustSession`
built from the head's :class:`~repro.service.session.SessionConfig`:
the CH is one client of the service engine, owning only what is
DES-specific (the ``t_out`` timers, the circle tracker, span emission,
and verdict announcements): it logs, spans and announces each
:class:`~repro.core.decision_kernel.Verdict` a closed window yields.
``self.trust``, ``self.voter``, ``self.diagnoser`` and
``self.decisions`` alias the session's objects.
:class:`CorruptClusterHead` inverts every verdict it logs (§3.4).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.binary import CtiVoter
from repro.core.concurrent import CircleTracker
from repro.core.decision_kernel import Row, Verdict
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

__all__ = ["ClusterHead", "CorruptClusterHead"]


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
        The embedded session's :class:`SessionConfig`.
    t_out:
        Report collection window (> 0).
    announce:
        Broadcast :class:`ChDecisionAnnouncement` after each verdict
        (needed by shadow CHs and by smart adversaries' TI tracking).
    base_station_id:
        Destination for TI hand-off; ``None`` when running standalone.
    id_allocator:
        Decision-id source for the embedded session; defaults to a
        private one.  A run passes its own to every head it installs,
        so ids stay unique across the run's heads.
    """

    def __init__(
        self,
        node_id: int,
        position: Point,
        deployment: Deployment,
        config: SessionConfig,
        t_out: float = 1.0,
        announce: bool = True,
        base_station_id: Optional[int] = None,
        id_allocator: Optional[IdAllocator] = None,
    ) -> None:
        if not 0 < t_out < math.inf:
            raise ValueError(f"t_out must be positive and finite, got {t_out}")
        super().__init__(node_id, position)
        self.deployment = deployment
        self.config = config
        self.t_out = t_out
        self.announce = announce
        self.base_station_id = base_station_id

        self.session = TrustSession(deployment, config, id_allocator)
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
                t_out=self.t_out,
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
        # A delivered report proves the head is attached, so the
        # simulator is read directly, once, not through the checked
        # ``sim`` property.
        sim = self._sim
        spans = sim.spans
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
                    expires_at=sim.now + self.t_out,
                )
            sim.after(self.t_out, self._decide_binary, window)
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
        senders = [m.sender for m in reports]
        for verdict in self.session.decide_binary(senders, self.sim.now):
            self._record_decision(verdict)

    def _decide_group(self, rows: List[Row]) -> None:
        """Decide one closed circle group, given as its report rows."""
        if not self.alive:
            return  # see _decide_binary: crashed CHs decide nothing
        for verdict in self.session.decide_rows(rows, self.sim.now):
            self._record_decision(verdict)

    def _record_decision(self, verdict: Verdict) -> None:
        """Log one verdict, span it, sweep diagnosis, and announce it."""
        record = self.session.record(verdict, self.sim.now)
        location = record.location
        spans = self.sim.spans
        decision_ctx = 0
        if spans.enabled:
            # span_id carries the window.cluster span for location-mode
            # verdicts; binary verdicts parent under the window.close
            # span left on spans.current by _decide_binary.
            decision_ctx = spans.point(
                "ch.decision",
                parent=verdict.span_id or spans.current,
                decision_id=record.decision_id,
                occurred=record.occurred,
                x=location.x if location is not None else None,
                y=location.y if location is not None else None,
                supporters=list(record.supporters),
                dissenters=list(record.dissenters),
            )
        for entry in self.session.sweep(self.sim.now):
            if spans.enabled:
                spans.point(
                    "ch.diagnosis",
                    parent=decision_ctx,
                    node=entry.node_id,
                    ti=entry.ti_at_diagnosis,
                )
        if not self.announce:
            return
        announcement = ChDecisionAnnouncement(
            sender=self.node_id,
            message_id=next(self._message_ids),
            decision_id=record.decision_id,
            occurred=record.occurred,
            location=location,
            reporters=record.supporters,
            non_reporters=record.dissenters,
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
    def end_leadership(self) -> None:
        """Ship the aggregate TI table to the base station (§2)."""
        if self.base_station_id is None:
            return
        self.send(
            self.base_station_id,
            TiTableTransfer(
                sender=self.node_id,
                message_id=next(self._message_ids),
                table=self.trust.export_state(),
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


class CorruptClusterHead(ClusterHead):
    """A compromised node serving as CH: §3.4's failing data sink.

    It inverts every verdict it logs and announces -- the worst
    arbitrary fault for a decision maker, and the one the shadow CHs
    recompute and dissent from.  Its votes, and so its trust updates,
    are an honest head's.
    """

    def _record_decision(self, verdict: Verdict) -> None:
        super()._record_decision(
            verdict._replace(occurred=not verdict.occurred)
        )
