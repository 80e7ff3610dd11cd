"""Unit tests for the cluster-head process."""

import math

import pytest

from repro.clusterctl.head import ClusterHead, CorruptClusterHead
from repro.core.trust import TrustParameters
from repro.network.geometry import Point, PolarOffset, Region
from repro.network.messages import (
    ChDecisionAnnouncement,
    EventReportMessage,
    TiTableTransfer,
)
from repro.network.node import NetworkNode
from repro.network.radio import ChannelConfig, RadioChannel
from repro.network.topology import Deployment
from repro.obs.spans import SpanCollector
from repro.service.session import SessionConfig
from repro.simkernel.simulator import Simulator


class Listener(NetworkNode):
    def __init__(self, node_id, position=Point(0.0, 0.0)):
        super().__init__(node_id, position)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def make_ch(mode="binary", n=4, use_trust=True, spans=None,
            announce=True, head_class=ClusterHead, **config_kwargs):
    sim = Simulator(seed=1, spans=spans)
    channel = RadioChannel(
        sim, ChannelConfig(loss_probability=0.0, propagation_delay=0.001)
    )
    deployment = Deployment(region=Region.square(100.0))
    positions = [
        Point(45.0, 45.0), Point(55.0, 45.0),
        Point(45.0, 55.0), Point(55.0, 55.0),
        Point(20.0, 20.0), Point(80.0, 80.0),
    ]
    listeners = []
    for i in range(n):
        deployment.add(i, positions[i % len(positions)])
        listener = Listener(i, positions[i % len(positions)])
        channel.register(listener)
        listeners.append(listener)
    ch = head_class(
        node_id=100,
        position=Point(50.0, 50.0),
        deployment=deployment,
        config=SessionConfig(
            mode=mode,
            sensing_radius=20.0,
            r_error=5.0,
            trust=TrustParameters(lam=0.25, fault_rate=0.1),
            use_trust=use_trust,
            **config_kwargs,
        ),
        t_out=1.0,
        announce=announce,
        base_station_id=None,
    )
    channel.register(ch)
    return sim, channel, ch, listeners


def binary_report(sender):
    return EventReportMessage(sender=sender, offset=None)


def location_report(sender, node_pos, event_pos):
    return EventReportMessage(
        sender=sender, offset=node_pos.offset_to(event_pos)
    )


class TestBinaryPipeline:
    def test_majority_reports_yield_occurred(self):
        sim, _channel, ch, _l = make_ch(mode="binary", n=4)
        for sender in (0, 1, 2):
            ch.on_message(binary_report(sender))
        sim.run()
        assert len(ch.decisions) == 1
        d = ch.decisions[0]
        assert d.occurred
        assert d.supporters == (0, 1, 2)
        assert d.dissenters == (3,)

    def test_minority_reports_rejected(self):
        sim, _channel, ch, _l = make_ch(mode="binary", n=4)
        ch.on_message(binary_report(0))
        sim.run()
        assert not ch.decisions[0].occurred

    def test_window_closes_at_t_out(self):
        sim, _channel, ch, _l = make_ch(mode="binary", n=4)
        ch.on_message(binary_report(0))
        sim.run()
        assert ch.decisions[0].time == pytest.approx(1.0)

    def test_duplicate_reports_counted_once(self):
        sim, _channel, ch, _l = make_ch(mode="binary", n=4)
        ch.on_message(binary_report(0))
        ch.on_message(binary_report(0))
        sim.run()
        assert ch.decisions[0].supporters == (0,)

    def test_two_bursts_create_two_windows(self):
        sim, _channel, ch, _l = make_ch(mode="binary", n=4)
        for sender in (0, 1, 2):
            ch.on_message(binary_report(sender))
        sim.run()
        for sender in (0, 1, 2, 3):
            ch.on_message(binary_report(sender))
        sim.run()
        assert len(ch.decisions) == 2
        assert ch.decisions[1].supporters == (0, 1, 2, 3)

    def test_trust_updates_applied(self):
        sim, _channel, ch, _l = make_ch(mode="binary", n=4)
        for sender in (0, 1, 2):
            ch.on_message(binary_report(sender))
        sim.run()
        assert ch.trust.ti(3) < 1.0  # silent dissenter penalised
        assert ch.trust.ti(0) == 1.0  # winner (already at ceiling)

    def test_flushed_window_timer_decides_nothing(self):
        """The T_out timer of a flushed window must not decide again:
        a second, empty window would reward every silent member."""
        sim, _channel, ch, _l = make_ch(mode="binary", n=9)
        for sender in range(6):
            ch.on_message(binary_report(sender))
        sim.run(until=0.5)
        ch.flush()
        sim.run()
        assert [d.time for d in ch.decisions] == [0.5]
        assert ch.decisions[0].supporters == tuple(range(6))

    def test_flushed_window_timer_leaves_next_window_open(self):
        """A window opened after a flush closes on its own T_out timer,
        not on the flushed window's."""
        sim, _channel, ch, _l = make_ch(mode="binary", n=9)
        for sender in range(6):
            ch.on_message(binary_report(sender))
        sim.run(until=0.5)
        ch.flush()
        sim.run(until=0.6)
        for sender in range(6):
            ch.on_message(binary_report(sender))
        sim.run()
        assert [d.time for d in ch.decisions] == [0.5, pytest.approx(1.6)]
        assert [d.supporters for d in ch.decisions] == [tuple(range(6))] * 2

    def test_baseline_mode_keeps_trust_frozen(self):
        sim, _channel, ch, _l = make_ch(mode="binary", n=4, use_trust=False)
        for sender in (0, 1, 2):
            ch.on_message(binary_report(sender))
        sim.run()
        assert ch.decisions[0].occurred
        assert all(ch.trust.ti(i) == 1.0 for i in range(4))


class TestLocationPipeline:
    def test_consensus_reports_locate_the_event(self):
        sim, _channel, ch, _l = make_ch(mode="location", n=4)
        event = Point(50.0, 50.0)
        for i, pos in enumerate(
            [Point(45.0, 45.0), Point(55.0, 45.0), Point(45.0, 55.0)]
        ):
            ch.on_message(location_report(i, pos, event))
        sim.run()
        ch.flush()
        occurred = [d for d in ch.decisions if d.occurred]
        assert len(occurred) == 1
        assert occurred[0].location.distance_to(event) < 0.5

    def test_binary_report_in_location_mode_is_dropped(self):
        spans = SpanCollector()
        sim, _channel, ch, _l = make_ch(mode="location", n=4, spans=spans)
        ch.on_message(binary_report(0))
        sim.run()
        ch.flush()
        assert ch.decisions == []
        dropped = spans.spans("ch.report.unplaceable")
        assert [span.args for span in dropped] == [{"sender": 0}]

    def test_unknown_sender_ignored(self):
        spans = SpanCollector()
        sim, _channel, ch, _l = make_ch(mode="location", n=4, spans=spans)
        ch.on_message(
            EventReportMessage(
                sender=77, offset=PolarOffset(r=1.0, theta=0.0)
            )
        )
        sim.run()
        ch.flush()
        assert ch.decisions == []
        unknown = spans.spans("ch.report.unknown-node")
        assert [span.args for span in unknown] == [{"sender": 77}]


class TestAnnouncements:
    def test_decision_broadcast_to_cluster(self):
        sim, _channel, ch, listeners = make_ch(mode="binary", n=4)
        for sender in (0, 1, 2):
            ch.on_message(binary_report(sender))
        sim.run()
        for listener in listeners:
            announcements = [
                m for m in listener.received
                if isinstance(m, ChDecisionAnnouncement)
            ]
            assert len(announcements) == 1
            assert announcements[0].occurred

    def test_announce_disabled_stays_silent(self):
        sim, _channel, ch, listeners = make_ch(
            mode="binary", n=4, announce=False
        )
        for sender in (0, 1, 2):
            ch.on_message(binary_report(sender))
        sim.run()
        assert all(not l.received for l in listeners)


class TestCorruptClusterHead:
    """§3.4's failing data sink votes, and so updates trust, as an honest
    head does, but logs and announces the opposite verdict."""

    @staticmethod
    def run_head(head_class, mode):
        sim, _channel, ch, listeners = make_ch(
            mode=mode, n=4, head_class=head_class
        )
        event = Point(50.0, 50.0)
        # A unanimous window, a lone reporter out-voted, a majority.
        for senders in ((0, 1, 2, 3), (0,), (0, 1, 2)):
            for sender in senders:
                ch.on_message(
                    binary_report(sender) if mode == "binary"
                    else location_report(
                        sender, ch.deployment.position_of(sender), event
                    )
                )
            sim.run()
            ch.flush()
        announced = {
            message.decision_id: message.occurred
            for listener in listeners
            for message in listener.received
            if isinstance(message, ChDecisionAnnouncement)
        }
        return ch, announced

    @pytest.mark.parametrize("mode", ["binary", "location"])
    def test_inverts_every_verdict_and_keeps_honest_trust(self, mode):
        honest, _ = self.run_head(ClusterHead, mode)
        corrupt, announced = self.run_head(CorruptClusterHead, mode)
        assert [d.occurred for d in honest.decisions] == [True, False, True]
        assert corrupt.trust.export_state() == honest.trust.export_state()
        assert [
            d._replace(occurred=not d.occurred) for d in corrupt.decisions
        ] == honest.decisions
        assert announced == {
            d.decision_id: not d.occurred for d in honest.decisions
        }


class TestDiagnosisIntegration:
    def test_persistent_liar_gets_isolated(self):
        sim, _channel, ch, _l = make_ch(
            mode="binary", n=4, diagnosis_threshold=0.3
        )
        # Node 3 stays silent across many real events.
        for _ in range(6):
            for sender in (0, 1, 2):
                ch.on_message(binary_report(sender))
            sim.run()
        assert 3 in ch.diagnoser.diagnosed
        # Once isolated, node 3's reports are discarded.
        before = len(ch.decisions)
        ch.on_message(binary_report(3))
        sim.run()
        assert len(ch.decisions) == before  # no window was opened


class TestTiHandOff:
    def test_end_leadership_ships_table(self):
        sim, channel, ch, _l = make_ch(mode="binary", n=4)
        bs = Listener(999)
        channel.register(bs)
        ch.base_station_id = 999
        ch.trust.penalize(2)
        ch.end_leadership()
        sim.run()
        transfers = [
            m for m in bs.received if isinstance(m, TiTableTransfer)
        ]
        assert len(transfers) == 1
        assert transfers[0].table[2] > 0.0

    def test_incoming_transfer_merges_state(self):
        sim, _channel, ch, _l = make_ch(mode="binary", n=4)
        ch.on_message(
            TiTableTransfer(sender=999, table={1: 3.0})
        )
        assert ch.trust.ti(1) == pytest.approx(
            ch.trust.params.ti_of(3.0)
        )

    def test_no_base_station_is_noop(self):
        sim, _channel, ch, _l = make_ch(mode="binary", n=4)
        ch.end_leadership()  # must not raise


class TestConfigValidation:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SessionConfig(mode="hybrid")

    def test_invalid_t_out_rejected(self):
        deployment = Deployment(region=Region.square(10.0))
        with pytest.raises(ValueError, match="t_out"):
            ClusterHead(
                100, Point(5.0, 5.0), deployment, SessionConfig(), t_out=0.0
            )

    @pytest.mark.parametrize("t_out", [math.nan, math.inf])
    def test_non_finite_t_out_rejected(self, t_out):
        deployment = Deployment(region=Region.square(10.0))
        with pytest.raises(ValueError, match="t_out"):
            ClusterHead(
                100, Point(5.0, 5.0), deployment, SessionConfig(), t_out=t_out
            )
