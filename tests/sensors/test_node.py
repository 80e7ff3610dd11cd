"""Unit tests for the sensing-node process."""

import pytest

from repro.core.trust import TrustParameters
from repro.network.geometry import Point, Region, displace_xy
from repro.network.messages import ChDecisionAnnouncement, EventReportMessage
from repro.network.node import NetworkNode
from repro.network.radio import ChannelConfig, RadioChannel
from repro.sensors.faults import (
    CorrectBehavior,
    Level0Behavior,
    Level1Behavior,
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


def make_node(behavior=None, position=Point(45.0, 45.0), seed=1):
    sim = Simulator(seed=seed)
    channel = RadioChannel(
        sim, ChannelConfig(loss_probability=0.0, propagation_delay=0.001)
    )
    sink = Sink()
    channel.register(sink)
    sensing = SensingModel(
        SensingConfig(sensing_radius=20.0, location_sigma=1.6)
    )
    if behavior is None:
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


class TestSensing:
    def test_in_range_event_produces_report(self):
        sim, node, sink = make_node()
        node.sense_event(event_at(50.0, 50.0))
        sim.run()
        assert len(sink.received) == 1
        report = sink.received[0]
        assert isinstance(report, EventReportMessage)
        assert report.sender == 0
        assert report.event_id == 1

    def test_out_of_range_event_is_imperceptible(self):
        sim, node, sink = make_node()
        node.sense_event(event_at(90.0, 90.0))
        sim.run()
        assert sink.received == []
        assert node.events_sensed == 0

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
        sim, node, _sink = make_node()
        node.sense_event(event_at(50.0, 50.0))
        assert node.events_sensed == 1
        assert node.reports_sent == 1


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
        assert alarm.event_id is None

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
