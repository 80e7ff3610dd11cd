"""The sensing-node process: perception -> behaviour -> report.

A :class:`SensorNode` is a network endpoint wrapping one
:class:`~repro.sensors.faults.NodeBehavior`.  The ground-truth event
generator "informs" it of events within its sensing radius (physics,
not radio); the behaviour decides what, if anything, to claim; the node
transmits the claim to its cluster head, encoded as an ``(r, theta)``
offset when its sensing model places claims (location mode).  A binary
head reads only who reported, so a binary run's sensing model is built
with ``places=False`` and its reports carry no offset.
CH decision announcements received over the radio feed the behaviour's
outcome observer, which is how smart adversaries track their own trust
index.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.network.geometry import Point, Region
from repro.network.messages import (
    ChDecisionAnnouncement,
    EventReportMessage,
    Message,
)
from repro.network.node import NetworkNode
from repro.sensors.faults import Level2Behavior, NodeBehavior
from repro.sensors.generator import GroundTruthEvent
from repro.sensors.sensing import SensingModel


class SensorNode(NetworkNode):
    """One sensing node with a pluggable (possibly malicious) behaviour.

    Parameters
    ----------
    node_id / position:
        Network identity and deployment location.
    behavior:
        Decision object for this node's conduct; swappable at runtime
        (Experiment 3 compromises correct nodes mid-run by replacing
        their behaviour).
    sensing:
        Perception model: the detection radius of the physics gate, and
        the run's ``places`` flag.  A report carries the claim as an
        ``(r, theta)`` offset only when ``sensing.places`` is set; an
        unplaced claim is still drawn on the node's stream, so both
        modes leave the stream in the same state.
    ch_id:
        Current cluster head to report to.
    rng:
        This node's private randomness.
    """

    # A sensor acts only on the announcements that name it.
    hears_unnamed = False

    def __init__(
        self,
        node_id: int,
        position: Point,
        behavior: NodeBehavior,
        sensing: SensingModel,
        ch_id: int,
        rng: np.random.Generator,
        region: Optional[Region] = None,
    ) -> None:
        super().__init__(node_id, position)
        self.behavior = behavior
        self.sensing = sensing
        self.ch_id = ch_id
        self._rng = rng
        self.region = region
        #: Whether CH announcements feed the behaviour's outcome observer.
        #: Under the stateless baseline there is no trust index for a
        #: smart adversary to manage, so the harness disables feedback
        #: there -- smart nodes then lie continuously, matching the
        #: paper's baseline curves (Figs. 5-6).
        self.feedback_enabled = True

    # ------------------------------------------------------------------
    # Behaviour management
    # ------------------------------------------------------------------
    def compromise(self, new_behavior: NodeBehavior) -> None:
        """Replace this node's behaviour (adversarial takeover)."""
        self.behavior = new_behavior

    @property
    def is_faulty(self) -> bool:
        """Whether the current behaviour is a fault model."""
        return self.behavior.is_faulty

    # ------------------------------------------------------------------
    # Stimuli
    # ------------------------------------------------------------------
    def sense_event(self, event: GroundTruthEvent) -> None:
        """React to a ground-truth event (generator-driven physics).

        Events outside the sensing radius are imperceptible -- even a
        malicious node cannot report what it cannot coordinate on, and
        the paper's event generator only informs event neighbours.  This
        is the physics gate for a caller that has not already found the
        event's neighbours.
        """
        if not self.sensing.detects(self.position, event.location):
            return
        message = self.compose_report(event)
        if message is not None:
            self.send(self.ch_id, message)

    def compose_report(self, event: GroundTruthEvent) -> Optional[EventReportMessage]:
        """Build (but do not transmit) this node's report on ``event``.

        The caller has already decided that the node neighbours the
        event: the harness asks only the ids its
        ``Deployment.event_neighbors`` disk query returns, which applies
        the same radius and the same correctly-rounded distance test as
        ``SensingModel.detects``, and :meth:`sense_event` checks
        ``detects`` itself.  This is everything after that gate up to
        the radio -- behaviour consultation (including any draws on
        this node's private stream) and report encoding -- so a caller
        can collect one round's reports and hand them to
        ``RadioChannel.unicast_batch`` in a single call.  Returns
        ``None`` when the node stays silent.
        """
        if not self.alive:
            return None
        if isinstance(self.behavior, Level2Behavior):
            self.behavior.set_event_token(event.event_id)
        claim = self.behavior.on_event(
            self.position, event.location, self._rng
        )
        if claim is None:
            return None
        return self._compose(claim)

    def compose_false_alarm(self) -> Optional[EventReportMessage]:
        """Build (but do not transmit) a quiet-window false alarm, if any."""
        if not self.alive:
            return None
        region = self.region
        if region is None:
            return None
        claim = self.behavior.on_quiet_window(self.position, region, self._rng)
        if claim is None:
            return None
        return self._compose(claim)

    # ------------------------------------------------------------------
    # Radio
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        # Decision observation.  A wide-open broadcast reaches a sensor
        # only when it names the sensor or a tap watches it
        # (hears_unnamed), so this runs about once per reporter and
        # non-reporter of a CH verdict.  The trust update rule is
        # deterministic given the verdict and the node's own role, so
        # the node can replay it exactly: reporters are rewarded iff the
        # event was upheld, non-reporters iff it was rejected.
        if not (self.feedback_enabled and self.behavior.observes_outcomes):
            # Correct and level-0 nodes -- most receivers -- ignore
            # verdicts.  The flag is read from the current behaviour, so
            # a node compromised mid-run observes the next verdict.
            return
        if isinstance(message, ChDecisionAnnouncement):
            node_id = self.node_id
            if node_id in message.reporters:
                self.behavior.observe_outcome(rewarded=message.occurred)
            elif node_id in message.non_reporters:
                self.behavior.observe_outcome(rewarded=not message.occurred)

    def _compose(self, claimed_location: Point) -> EventReportMessage:
        return EventReportMessage(
            sender=self.node_id,
            message_id=next(self._message_ids),
            offset=(
                self.sensing.encode_report(self.position, claimed_location)
                if self.sensing.places
                else None
            ),
        )
