"""Unit tests for the lossy radio channel."""

import math

import pytest

from repro.network.geometry import Point
from repro.network.messages import EventReportMessage, Message
from repro.network.node import NetworkNode
from repro.network.radio import ChannelConfig, RadioChannel
from repro.obs.spans import SpanCollector
from repro.simkernel.simulator import Simulator


class Recorder(NetworkNode):
    """Test endpoint that records everything delivered to it."""

    def __init__(self, node_id, position=Point(0.0, 0.0)):
        super().__init__(node_id, position)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def make_net(loss=0.0, delay=0.001, range_limit=None, seed=1, n=3,
             spans=None):
    sim = Simulator(seed=seed, spans=spans)
    channel = RadioChannel(
        sim,
        ChannelConfig(
            loss_probability=loss,
            propagation_delay=delay,
            range_limit=range_limit,
        ),
    )
    nodes = [Recorder(i, Point(float(i * 10), 0.0)) for i in range(n)]
    for node in nodes:
        channel.register(node)
    return sim, channel, nodes


class TestDelivery:
    def test_unicast_delivers_after_delay(self):
        sim, channel, nodes = make_net(delay=0.5)
        msg = EventReportMessage(sender=0)
        outcome = channel.unicast(nodes[0], 1, msg)
        assert outcome.delivered
        assert nodes[1].received == []  # not yet
        sim.run()
        assert nodes[1].received == [msg]
        assert sim.now == pytest.approx(0.5)

    def test_broadcast_reaches_all_other_nodes(self):
        sim, channel, nodes = make_net(n=5)
        started = channel.broadcast(nodes[2], EventReportMessage(sender=2))
        sim.run()
        assert started == 4
        assert nodes[2].received == []
        for i in (0, 1, 3, 4):
            assert len(nodes[i].received) == 1

    def test_unknown_destination_reported(self):
        _sim, channel, nodes = make_net()
        outcome = channel.unicast(nodes[0], 99, EventReportMessage(sender=0))
        assert not outcome.delivered
        assert outcome.reason == "unknown-destination"

    def test_dead_receiver_not_delivered(self):
        sim, channel, nodes = make_net()
        nodes[1].kill()
        outcome = channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        assert not outcome.delivered
        assert outcome.reason == "dead-receiver"

    def test_receiver_dying_in_flight_drops_message(self):
        spans = SpanCollector()
        sim, channel, nodes = make_net(delay=1.0, spans=spans)
        channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        sim.at(0.5, nodes[1].kill)
        sim.run()
        assert nodes[1].received == []
        (transmit,) = spans.spans("radio.transmit")
        (drop,) = spans.spans("radio.drop")
        assert spans.spans("radio.deliver") == []
        assert drop.time == 1.0
        assert drop.parent_id == transmit.span_id
        assert drop.args["reason"] == "died-in-flight"
        assert (drop.args["sender"], drop.args["destination"]) == (0, 1)


class TestLoss:
    def test_zero_loss_delivers_everything(self):
        sim, channel, nodes = make_net(loss=0.0)
        for _ in range(100):
            channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        sim.run()
        assert len(nodes[1].received) == 100

    def test_full_loss_delivers_nothing(self):
        sim, channel, nodes = make_net(loss=1.0)
        for _ in range(20):
            channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        sim.run()
        assert nodes[1].received == []
        assert channel.dropped == 20

    def test_partial_loss_is_statistically_plausible(self):
        sim, channel, nodes = make_net(loss=0.25, seed=3)
        for _ in range(2000):
            channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        sim.run()
        assert 1400 <= len(nodes[1].received) <= 1600  # ~1500

    def test_invalid_loss_probability_rejected(self):
        with pytest.raises(ValueError, match="loss_probability"):
            ChannelConfig(loss_probability=1.5)

    @pytest.mark.parametrize("field, value", [
        ("range_limit", math.nan),
        ("propagation_delay", math.nan),
        ("propagation_delay", math.inf),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChannelConfig(**{field: value})


class TestRange:
    def test_out_of_range_transmission_lost(self):
        _sim, channel, nodes = make_net(range_limit=15.0)
        # node 0 at x=0, node 2 at x=20: out of range.
        outcome = channel.unicast(nodes[0], 2, EventReportMessage(sender=0))
        assert not outcome.delivered
        assert outcome.reason == "out-of-range"

    def test_in_range_transmission_delivered(self):
        sim, channel, nodes = make_net(range_limit=15.0)
        outcome = channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        assert outcome.delivered


class TestTaps:
    def test_tap_receives_copies_of_watched_traffic(self):
        sim, channel, nodes = make_net(n=4)
        channel.add_tap(1, nodes[3])
        msg = EventReportMessage(sender=0)
        channel.unicast(nodes[0], 1, msg)
        sim.run()
        assert nodes[1].received == [msg]
        assert nodes[3].received == [msg]

    def test_tap_does_not_hear_its_own_sends(self):
        sim, channel, nodes = make_net(n=4)
        channel.add_tap(1, nodes[3])
        channel.unicast(nodes[3], 1, EventReportMessage(sender=3))
        sim.run()
        assert len(nodes[1].received) == 1
        assert nodes[3].received == []

    def test_remove_tap(self):
        sim, channel, nodes = make_net(n=4)
        channel.add_tap(1, nodes[3])
        channel.remove_tap(1, nodes[3])
        channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        sim.run()
        assert nodes[3].received == []

    def test_dead_tap_not_delivered(self):
        sim, channel, nodes = make_net(n=4)
        channel.add_tap(1, nodes[3])
        nodes[3].kill()
        channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        sim.run()
        assert nodes[3].received == []


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        sim, channel, nodes = make_net()
        with pytest.raises(ValueError):
            channel.register(Recorder(0))

    def test_unregister_makes_destination_unknown(self):
        _sim, channel, nodes = make_net()
        channel.unregister(1)
        outcome = channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        assert outcome.reason == "unknown-destination"

    def test_counters_track_traffic(self):
        sim, channel, nodes = make_net(loss=1.0)
        channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        assert channel.sent == 1
        assert channel.dropped == 1
        assert channel.delivered == 0


class TestNodeWiring:
    def test_unattached_node_raises_on_send(self):
        node = Recorder(0)
        with pytest.raises(RuntimeError):
            node.send(1, EventReportMessage(sender=0))

    def test_attach_via_register(self):
        sim, channel, nodes = make_net()
        assert nodes[0].sim is sim
        assert nodes[0].channel is channel

    def test_message_ids_are_unique(self):
        """Attaching binds the run's one message-id stream, so the ids
        every endpoint of a run takes are unique, and a second run
        numbers its own from 1."""
        for _ in range(2):
            sim, _channel, nodes = make_net(n=3)
            assert all(node._message_ids is sim.message_ids for node in nodes)
            minted = [next(node._message_ids) for node in nodes * 2]
            assert minted == [1, 2, 3, 4, 5, 6]
