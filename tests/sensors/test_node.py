"""Unit tests for the sensing-node process."""

import math

import numpy as np
import pytest

from repro.core.trust import TrustParameters
from repro.network.geometry import Point, Region, displace_xy
from repro.network.messages import ChDecisionAnnouncement, EventReportMessage
from repro.network.node import NetworkNode
from repro.network.radio import ChannelConfig, RadioChannel
from repro.sensors.faults import (
    CollusionCoordinator,
    CorrectBehavior,
    Level0Behavior,
    Level1Behavior,
    Level2Behavior,
    TrustEstimator,
)
from repro.sensors.generator import GroundTruthEvent
from repro.sensors.node import SensorNode
from repro.sensors.sensing import SensingConfig, SensingModel
from repro.simkernel.simulator import Simulator


class Sink(NetworkNode):
    def __init__(self, node_id=100):
        super().__init__(node_id, Point(50.0, 50.0))
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def make_node(behavior=None, position=Point(45.0, 45.0), seed=1,
              places=True, make_behavior=None):
    """A node reporting to a sink; ``make_behavior(sensing)`` builds its
    behaviour on the node's own sensing model."""
    sim = Simulator(seed=seed)
    channel = RadioChannel(
        sim, ChannelConfig(loss_probability=0.0, propagation_delay=0.001)
    )
    sink = Sink()
    channel.register(sink)
    sensing = SensingModel(
        SensingConfig(sensing_radius=20.0, location_sigma=1.6), places=places
    )
    if make_behavior is not None:
        behavior = make_behavior(sensing)
    elif behavior is None:
        behavior = CorrectBehavior(sensing, miss_rate=0.0)
    node = SensorNode(
        node_id=0,
        position=position,
        behavior=behavior,
        sensing=sensing,
        ch_id=100,
        rng=sim.streams.get("node-0"),
        region=Region.square(100.0),
    )
    channel.register(node)
    return sim, node, sink


def event_at(x, y, event_id=1, t=0.0):
    return GroundTruthEvent(event_id=event_id, time=t, location=Point(x, y))


def assert_unplaced_claims_match(make_behavior, claim, chances=24):
    """A placing node and an unplaced one of one seed, each given the
    same ``chances`` to claim, compose the same reports save the offset,
    and leave every stream they draw on in the same state."""
    runs = {}
    for places in (True, False):
        _sim, node, _sink = make_node(make_behavior=make_behavior,
                                      places=places)
        reports = [claim(node, i) for i in range(1, chances + 1)]
        streams = [node._rng]
        coordinator = getattr(node.behavior, "coordinator", None)
        if coordinator is not None:
            streams.append(coordinator._rng)
        runs[places] = (reports, [s.bit_generator.state for s in streams])
    placed, placed_states = runs[True]
    unplaced, unplaced_states = runs[False]
    assert unplaced_states == placed_states
    assert [m is None for m in unplaced] == [m is None for m in placed]
    sent = [m for m in placed if m is not None]
    assert 0 < len(sent) < chances  # both choices were made
    assert all(m.offset is not None for m in sent)
    assert [m for m in unplaced if m is not None] == [
        m._replace(offset=None) for m in sent
    ]


class TestSensing:
    def test_in_range_event_produces_report(self):
        sim, node, sink = make_node()
        node.sense_event(event_at(50.0, 50.0))
        sim.run()
        assert len(sink.received) == 1
        report = sink.received[0]
        assert isinstance(report, EventReportMessage)
        assert report.sender == 0
        assert report.offset is not None  # this node encodes offsets

    def test_out_of_range_event_is_imperceptible(self):
        sim, node, sink = make_node()
        node.sense_event(event_at(90.0, 90.0))
        sim.run()
        assert sink.received == []
        assert node.channel.sent == 0

    def test_sense_event_gates_at_the_sensing_radius(self):
        """sense_event is the physics gate when no disk query ran: an
        event one ulp beyond r_s is dropped without a draw on the node's
        stream, and one exactly r_s away is sensed."""
        edge = 45.0 + 20.0
        sim, node, sink = make_node()
        before = node._rng.bit_generator.state
        node.sense_event(event_at(math.nextafter(edge, math.inf), 45.0))
        assert node._rng.bit_generator.state == before
        assert node.channel.sent == 0
        node.sense_event(event_at(edge, 45.0, event_id=2))
        sim.run()
        assert [m.sender for m in sink.received] == [0]

    def test_report_offset_resolves_near_event(self):
        sim, node, sink = make_node()
        node.sense_event(event_at(50.0, 50.0))
        sim.run()
        offset = sink.received[0].offset
        resolved = Point(*displace_xy(*node.position, *offset))
        assert resolved.distance_to(Point(50.0, 50.0)) < 10.0

    def test_dead_node_does_not_sense(self):
        sim, node, sink = make_node()
        node.kill()
        node.sense_event(event_at(50.0, 50.0))
        sim.run()
        assert sink.received == []

    def test_counters(self):
        """One sensed event is one report on the radio, nothing more."""
        sim, node, sink = make_node()
        node.sense_event(event_at(50.0, 50.0))
        assert node.channel.sent == 1
        sim.run()
        assert [m.sender for m in sink.received] == [0]

    def test_binary_node_sends_no_offset(self):
        """A node whose sensing model does not place claims still
        reports, and draws its perceived location, exactly as a placing
        node does."""
        assert_unplaced_claims_match(
            lambda sensing: CorrectBehavior(sensing, miss_rate=0.3),
            lambda node, i: node.compose_report(
                event_at(50.0 + i % 3, 48.0, event_id=i)
            ),
        )

    def test_unplaced_fabricated_false_alarm(self):
        """A level-0 false alarm draws its bearing and radius, then
        claims no place."""
        assert_unplaced_claims_match(
            lambda sensing: Level0Behavior(sensing, false_alarm_rate=0.5),
            lambda node, _i: node.compose_false_alarm(),
        )

    def test_unplaced_natural_false_alarm(self):
        """A correct node's natural false alarm makes its two location
        draws, then claims no place."""
        assert_unplaced_claims_match(
            lambda sensing: CorrectBehavior(sensing, false_alarm_rate=0.5),
            lambda node, _i: node.compose_false_alarm(),
        )

    def test_unplaced_colluder(self):
        """A level-2 colluder's shared draws come from its coordinator's
        stream; an unplaced cell leaves that stream where a placing one
        does."""
        def colluder(sensing):
            return Level2Behavior(
                node_id=0,
                coordinator=CollusionCoordinator(
                    sensing, np.random.default_rng(3), silence_rate=0.25
                ),
                honest=CorrectBehavior(sensing),
                estimator=TrustEstimator(
                    TrustParameters(lam=0.25, fault_rate=0.1)
                ),
            )

        assert_unplaced_claims_match(
            colluder,
            lambda node, i: node.compose_report(
                event_at(50.0, 50.0, event_id=i)
            ),
        )


class TestQuietWindow:
    def test_correct_node_is_silent(self):
        _sim, node, _sink = make_node()
        assert node.compose_false_alarm() is None

    def test_false_alarming_node_reports(self):
        sensing = SensingModel(
            SensingConfig(sensing_radius=20.0, location_sigma=1.6)
        )
        behavior = Level0Behavior(sensing, false_alarm_rate=1.0)
        _sim, node, _sink = make_node(behavior=behavior)
        alarm = node.compose_false_alarm()
        assert alarm is not None
        assert alarm.sender == 0 and alarm.offset is not None

    def test_dead_node_quiet_window_noop(self):
        sensing = SensingModel(SensingConfig(sensing_radius=20.0))
        behavior = Level0Behavior(sensing, false_alarm_rate=1.0)
        _sim, node, _sink = make_node(behavior=behavior)
        node.kill()
        assert node.compose_false_alarm() is None


class TestFeedback:
    def make_smart(self):
        sensing = SensingModel(
            SensingConfig(sensing_radius=20.0, location_sigma=1.6)
        )
        params = TrustParameters(lam=0.25, fault_rate=0.1)
        behavior = Level1Behavior(
            lying=Level0Behavior(sensing, drop_rate=1.0),
            honest=CorrectBehavior(sensing),
            estimator=TrustEstimator(params),
        )
        return make_node(behavior=behavior), behavior

    def test_penalty_feedback_lowers_estimate(self):
        (sim, node, _sink), behavior = self.make_smart()
        node.on_message(
            ChDecisionAnnouncement(
                sender=100, decision_id=1, occurred=True,
                reporters=(5,), non_reporters=(0,),
            )
        )
        assert behavior.estimator.ti < 1.0

    def test_reward_feedback_for_matching_report(self):
        (sim, node, _sink), behavior = self.make_smart()
        behavior.estimator.v_est = 2.0
        node.on_message(
            ChDecisionAnnouncement(
                sender=100, decision_id=1, occurred=True,
                reporters=(0,), non_reporters=(5,),
            )
        )
        assert behavior.estimator.v_est < 2.0

    def test_uninvolved_decision_ignored(self):
        (sim, node, _sink), behavior = self.make_smart()
        node.on_message(
            ChDecisionAnnouncement(
                sender=100, decision_id=1, occurred=True,
                reporters=(5,), non_reporters=(6,),
            )
        )
        assert behavior.estimator.ti == 1.0

    def test_feedback_disabled_blocks_updates(self):
        (sim, node, _sink), behavior = self.make_smart()
        node.feedback_enabled = False
        node.on_message(
            ChDecisionAnnouncement(
                sender=100, decision_id=1, occurred=True,
                reporters=(5,), non_reporters=(0,),
            )
        )
        assert behavior.estimator.ti == 1.0


class TestCompromise:
    def test_compromised_node_observes_the_next_verdict(self):
        sim, node, sink = make_node()
        sensing = SensingModel(SensingConfig(sensing_radius=20.0))
        smart = Level1Behavior(
            lying=Level0Behavior(sensing, drop_rate=1.0),
            honest=CorrectBehavior(sensing),
            estimator=TrustEstimator(TrustParameters(lam=0.25, fault_rate=0.1)),
        )
        # Node 0 stayed silent on an upheld event: a verdict that
        # penalises it, ignored while it is correct.
        verdict = dict(occurred=True, reporters=(5,), non_reporters=(0,))
        sink.broadcast(ChDecisionAnnouncement(sender=100, decision_id=1,
                                              **verdict))
        sim.run()
        node.compromise(smart)
        sink.broadcast(ChDecisionAnnouncement(sender=100, decision_id=2,
                                              **verdict))
        sim.run()
        assert smart.estimator.v_est == smart.estimator.params.penalty_step

    def test_compromise_swaps_behavior(self):
        sim, node, sink = make_node()
        assert not node.is_faulty
        sensing = SensingModel(SensingConfig(sensing_radius=20.0))
        node.compromise(Level0Behavior(sensing, drop_rate=1.0))
        assert node.is_faulty
        node.sense_event(event_at(50.0, 50.0))
        sim.run()
        assert sink.received == []  # the new behaviour drops everything
