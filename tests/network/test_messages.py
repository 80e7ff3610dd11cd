"""Unit tests for typed message payloads."""

import pytest

from repro.network.geometry import Point
from repro.network.messages import (
    ChDecisionAnnouncement,
    EventReportMessage,
    ScHDisagreement,
    TiTableTransfer,
)
from repro.network.radio import ChannelConfig, RadioChannel
from repro.sensors.faults import CorrectBehavior
from repro.sensors.generator import GroundTruthEvent
from repro.sensors.node import SensorNode
from repro.sensors.sensing import SensingConfig, SensingModel
from repro.simkernel.simulator import Simulator


class TestEventReport:
    def test_reports_are_frozen(self):
        report = EventReportMessage(sender=1)
        with pytest.raises(Exception):
            report.sender = 2


class TestOtherMessages:
    def test_decision_announcement_carries_partitions(self):
        msg = ChDecisionAnnouncement(
            sender=100,
            decision_id=3,
            occurred=True,
            reporters=(1, 2),
            non_reporters=(3,),
        )
        assert 1 in msg.reporters
        assert 3 in msg.non_reporters

    def test_ti_table_transfer_defaults_empty(self):
        msg = TiTableTransfer(sender=100)
        assert msg.table == {}

    def test_disagreement_identifies_suspect(self):
        msg = ScHDisagreement(sender=7, suspected_ch=100, decision_id=2)
        assert msg.suspected_ch == 100

    def test_message_ids_monotonically_increase(self):
        """A run numbers its sensors' reports from one stream, in the
        order they are built; the next run starts from 1 again."""
        sensing = SensingModel(
            SensingConfig(sensing_radius=20.0, location_sigma=1.6)
        )
        event = GroundTruthEvent(
            event_id=1, time=0.0, location=Point(50.0, 50.0)
        )
        for _ in range(2):
            sim = Simulator(seed=0)
            channel = RadioChannel(sim, ChannelConfig(loss_probability=0.0))
            nodes = []
            for node_id in (0, 1):
                node = SensorNode(
                    node_id=node_id,
                    position=Point(45.0 + node_id, 45.0),
                    behavior=CorrectBehavior(sensing, miss_rate=0.0),
                    sensing=sensing,
                    ch_id=100,
                    rng=sim.streams.get(f"node-{node_id}"),
                )
                channel.register(node)
                nodes.append(node)
            reports = [node.compose_report(event) for node in nodes * 2]
            assert [r.message_id for r in reports] == [1, 2, 3, 4]
