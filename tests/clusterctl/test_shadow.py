"""Unit tests for shadow cluster heads (§3.4)."""

import pytest

from repro.clusterctl.head import ClusterHead, ClusterHeadConfig
from repro.clusterctl.shadow import ShadowClusterHead
from repro.core.trust import TrustParameters
from repro.network.geometry import Point, Region
from repro.network.messages import EventReportMessage, ScHDisagreement
from repro.network.node import NetworkNode
from repro.network.radio import ChannelConfig, RadioChannel
from repro.network.topology import Deployment
from repro.obs.spans import SpanCollector
from repro.simkernel.simulator import Simulator


class Collector(NetworkNode):
    def __init__(self, node_id):
        super().__init__(node_id, Point(0.0, 0.0))
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def build(corrupt_sch=False, spans=None):
    """A 4-node binary cluster with one CH, one SCH and a BS collector."""
    sim = Simulator(seed=1, spans=spans)
    channel = RadioChannel(
        sim, ChannelConfig(loss_probability=0.0, propagation_delay=0.001)
    )
    deployment = Deployment(region=Region.square(100.0))
    for i, pos in enumerate(
        [Point(45.0, 45.0), Point(55.0, 45.0),
         Point(45.0, 55.0), Point(55.0, 55.0)]
    ):
        deployment.add(i, pos)
    config = ClusterHeadConfig(
        mode="binary",
        t_out=1.0,
        sensing_radius=20.0,
        r_error=5.0,
        trust=TrustParameters(lam=0.25, fault_rate=0.1),
    )
    bs = Collector(999)
    channel.register(bs)
    ch = ClusterHead(
        node_id=100, position=Point(50.0, 50.0),
        deployment=deployment, config=config,
    )
    channel.register(ch)
    sch = ShadowClusterHead(
        node_id=101, position=Point(50.0, 52.0),
        watched_ch_id=100, deployment=deployment, config=config,
        base_station_id=999, corrupt=corrupt_sch,
    )
    channel.register(sch)
    channel.add_tap(100, sch)  # SCH snoops CH's inbound traffic
    # Register dummy sensor endpoints so broadcasts have receivers.
    for i in range(4):
        channel.register(Collector(i))
    return sim, channel, ch, sch, bs


def send_reports(channel, ch, senders):
    for s in senders:
        # Reports travel over the channel so the tap mirrors them.
        channel.unicast(channel.node(s), 100, EventReportMessage(sender=s))


class TestMirroring:
    def test_sch_computes_same_decisions_as_ch(self):
        sim, channel, ch, sch, _bs = build()
        send_reports(channel, ch, (0, 1, 2))
        sim.run()
        assert len(ch.decisions) == 1
        assert len(sch.decisions) == 1
        assert sch.decisions[0].occurred == ch.decisions[0].occurred

    def test_honest_ch_produces_no_disagreements(self):
        sim, channel, ch, sch, bs = build()
        for _ in range(3):
            send_reports(channel, ch, (0, 1, 2))
            sim.run()
        assert sch.disagreements == []
        assert sch.agreements == 3
        assert not any(
            isinstance(m, ScHDisagreement) for m in bs.received
        )

    def test_sch_trust_state_mirrors_ch(self):
        sim, channel, ch, sch, _bs = build()
        send_reports(channel, ch, (0, 1, 2))
        sim.run()
        for node_id in range(4):
            assert sch._mirror.trust.ti(node_id) == pytest.approx(
                ch.trust.ti(node_id)
            )


class TestDisagreement:
    def test_corrupt_sch_dissents_against_honest_ch(self):
        """Inverting the SCH's verdict must produce a dissent -- the
        same machinery that catches a corrupt CH from the SCH side."""
        sim, channel, ch, sch, bs = build(corrupt_sch=True)
        send_reports(channel, ch, (0, 1, 2))
        sim.run()
        assert len(sch.disagreements) == 1
        dissent = sch.disagreements[0]
        assert dissent.suspected_ch == 100
        assert dissent.occurred != ch.decisions[0].occurred
        assert any(isinstance(m, ScHDisagreement) for m in bs.received)

    def test_dissent_references_decision_id(self):
        sim, channel, ch, sch, _bs = build(corrupt_sch=True)
        send_reports(channel, ch, (0, 1, 2))
        sim.run()
        assert sch.disagreements[0].decision_id == ch.decisions[0].decision_id

    def test_dissent_emits_a_span(self):
        spans = SpanCollector()
        sim, channel, ch, _sch, _bs = build(corrupt_sch=True, spans=spans)
        send_reports(channel, ch, (0, 1, 2))
        sim.run()
        (disagree,) = spans.spans("sch.disagree")
        assert disagree.args == {
            "sch": 101, "ch": 100, "decision_id": ch.decisions[0].decision_id,
        }
