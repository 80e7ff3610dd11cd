"""Differential tests: batched radio delivery vs the per-message oracle.

``RadioChannel.unicast`` is the semantics; ``unicast_batch`` /
``broadcast`` must replay it bit-identically -- same outcomes, same
delivered payload order, same per-reason drop counters, same RNG stream
consumption, same interceptor consultation.  Every test here builds two
identically seeded networks, drives one through the batch path and the
other through a hand-rolled per-message loop, and compares everything
observable.  Span collection is left off: it routes every batch through
the per-message loop, which would make the comparison vacuous.
"""

import pytest

from repro.network.geometry import Point
from repro.network.messages import EventReportMessage
from repro.network.node import NetworkNode
from repro.network.radio import (
    ChannelConfig,
    Intercept,
    RadioChannel,
    _VECTOR_MIN,
)
from repro.simkernel.simulator import Simulator


class Recorder(NetworkNode):
    def __init__(self, node_id, position=Point(0.0, 0.0)):
        super().__init__(node_id, position)
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def make_net(loss=0.0, delay=0.01, range_limit=None, seed=1, n=10):
    sim = Simulator(seed=seed)
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


def oracle_unicast_batch(channel, sender_ids, destination, messages):
    """The per-message loop the batch path must replay exactly."""
    return [
        channel.unicast(channel.node(sender_id), destination, message)
        for sender_id, message in zip(sender_ids, messages)
    ]


def oracle_broadcast(channel, nodes, sender, message):
    """One ``unicast`` to each of ``nodes`` -- the endpoints the test
    registered -- but the sender, in ascending id order."""
    started = 0
    for node_id in sorted(node.node_id for node in nodes):
        if node_id == sender.node_id:
            continue
        if channel.unicast(sender, node_id, message).delivered:
            started += 1
    return started


def received_log(nodes):
    """Per-node sender sequences (message objects differ across nets)."""
    return {n.node_id: [m.sender for m in n.received] for n in nodes}


def channel_state(channel):
    """The channel's tallies, drops by reason."""
    return (channel.sent, channel.delivered, dict(channel.drops))


def assert_equivalent(batch, oracle):
    """Full observable-state comparison of two (sim, channel, nodes)."""
    b_sim, b_chan, b_nodes = batch
    o_sim, o_chan, o_nodes = oracle
    assert received_log(b_nodes) == received_log(o_nodes)
    assert channel_state(b_chan) == channel_state(o_chan)
    for name in ("channel", "chaos"):
        assert (
            b_sim.streams.get(name).bit_generator.state
            == o_sim.streams.get(name).bit_generator.state
        )


class TestUniformBatchDifferential:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("loss", [0.0, 0.3, 1.0])
    def test_batch_matches_oracle(self, seed, loss):
        batch = make_net(loss=loss, seed=seed, n=12)
        oracle = make_net(loss=loss, seed=seed, n=12)
        sender_ids = [i for i in range(1, 12)]
        b_msgs = [EventReportMessage(sender=i) for i in sender_ids]
        o_msgs = [EventReportMessage(sender=i) for i in sender_ids]

        b_out = batch[1].unicast_batch(sender_ids, 0, b_msgs)
        o_out = oracle_unicast_batch(oracle[1], sender_ids, 0, o_msgs)
        assert b_out == o_out
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)

    def test_out_of_range_senders_match(self):
        batch = make_net(range_limit=45.0, seed=2, n=10)
        oracle = make_net(range_limit=45.0, seed=2, n=10)
        sender_ids = list(range(1, 10))  # nodes at x = 10..90; dest at 0
        b_out = batch[1].unicast_batch(
            sender_ids, 0, [EventReportMessage(sender=i) for i in sender_ids]
        )
        o_out = oracle_unicast_batch(
            oracle[1], sender_ids, 0,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        assert b_out == o_out
        assert [o.reason for o in b_out[:4]] == ["ok"] * 4
        assert [o.reason for o in b_out[4:]] == ["out-of-range"] * 5
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)

    def test_dead_receiver_batch_matches(self):
        batch = make_net(seed=3, n=8)
        oracle = make_net(seed=3, n=8)
        batch[2][0].kill()
        oracle[2][0].kill()
        sender_ids = list(range(1, 8))
        b_out = batch[1].unicast_batch(
            sender_ids, 0, [EventReportMessage(sender=i) for i in sender_ids]
        )
        o_out = oracle_unicast_batch(
            oracle[1], sender_ids, 0,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        assert b_out == o_out
        assert all(o.reason == "dead-receiver" for o in b_out)
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)

    def test_unknown_destination_consumes_no_rng(self):
        sim, channel, _nodes = make_net(loss=0.5, seed=9, n=6)
        before = sim.streams.get("channel").bit_generator.state
        out = channel.unicast_batch(
            [1, 2, 3, 4], 99,
            [EventReportMessage(sender=i) for i in (1, 2, 3, 4)],
        )
        assert all(o.reason == "unknown-destination" for o in out)
        assert sim.streams.get("channel").bit_generator.state == before


class TestBroadcastDifferential:
    @pytest.mark.parametrize("seed", [11, 23])
    def test_broadcast_matches_oracle(self, seed):
        batch = make_net(loss=0.25, seed=seed, n=15)
        oracle = make_net(loss=0.25, seed=seed, n=15)
        b_started = batch[1].broadcast(
            batch[2][7], EventReportMessage(sender=7)
        )
        o_started = oracle_broadcast(
            oracle[1], oracle[2], oracle[2][7], EventReportMessage(sender=7)
        )
        assert b_started == o_started
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)

    def test_broadcast_with_dead_and_out_of_range_receivers(self):
        batch = make_net(loss=0.2, range_limit=55.0, seed=4, n=12)
        oracle = make_net(loss=0.2, range_limit=55.0, seed=4, n=12)
        for _, _, nodes in (batch, oracle):
            nodes[2].kill()
            nodes[5].kill()
        batch[1].broadcast(batch[2][0], EventReportMessage(sender=0))
        oracle_broadcast(
            oracle[1], oracle[2], oracle[2][0], EventReportMessage(sender=0)
        )
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)


def chaos_interceptor(sim):
    """Deterministic-chaos interceptor drawing on the "chaos" stream.

    Mirrors the ChaosController contract: random verdicts (drop,
    duplicate, delay, no-opinion) driven entirely by the dedicated
    stream, consulted once per transmission surviving natural checks.
    """
    rng = sim.streams.get("chaos")

    def interceptor(sender_id, receiver_id, now):
        u = rng.random()
        if u < 0.25:
            return Intercept(True)
        if u < 0.45:
            return Intercept(False, (0.0, 0.25))
        if u < 0.65:
            return Intercept(False, (0.5,))
        return None

    return interceptor


class TestInterceptorDifferential:
    @pytest.mark.parametrize("seed", [6, 13, 99])
    def test_chaos_window_batch_matches_oracle(self, seed):
        batch = make_net(loss=0.15, seed=seed, n=14)
        oracle = make_net(loss=0.15, seed=seed, n=14)
        batch[1].set_interceptor(chaos_interceptor(batch[0]))
        oracle[1].set_interceptor(chaos_interceptor(oracle[0]))
        sender_ids = list(range(1, 14))
        b_out = batch[1].unicast_batch(
            sender_ids, 0, [EventReportMessage(sender=i) for i in sender_ids]
        )
        o_out = oracle_unicast_batch(
            oracle[1], sender_ids, 0,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        assert b_out == o_out
        batch[0].run()
        oracle[0].run()
        # assert_equivalent compares the chaos stream end state too, so
        # the batch consulted the interceptor exactly as the oracle did
        # -- same count, same order.
        assert_equivalent(batch, oracle)

    def test_chaos_window_broadcast_matches_oracle(self, seed=31):
        batch = make_net(loss=0.1, seed=seed, n=12)
        oracle = make_net(loss=0.1, seed=seed, n=12)
        batch[1].set_interceptor(chaos_interceptor(batch[0]))
        oracle[1].set_interceptor(chaos_interceptor(oracle[0]))
        batch[1].broadcast(batch[2][3], EventReportMessage(sender=3))
        oracle_broadcast(
            oracle[1], oracle[2], oracle[2][3], EventReportMessage(sender=3)
        )
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)


class TestMidFlightDeath:
    def test_receiver_dying_in_flight_matches_oracle(self):
        batch = make_net(delay=1.0, seed=8, n=8)
        oracle = make_net(delay=1.0, seed=8, n=8)
        for sim, channel, nodes in (batch, oracle):
            sender_ids = list(range(1, 8))
            msgs = [EventReportMessage(sender=i) for i in sender_ids]
            if channel is batch[1]:
                channel.unicast_batch(sender_ids, 0, msgs)
            else:
                oracle_unicast_batch(channel, sender_ids, 0, msgs)
            sim.at(0.5, nodes[0].kill)
            sim.run()
        assert batch[2][0].received == []
        assert_equivalent(batch, oracle)

    def test_fused_delivery_rechecks_liveness_per_message(self):
        # The first delivery of the fused batch kills a later receiver:
        # that receiver's copy must then be dropped, just as consecutive
        # per-message events would drop it (the per-message path records
        # it as a died-in-flight radio.drop span; see test_radio.py).
        sim, channel, nodes = make_net(delay=0.5, seed=10, n=6)
        sender = Recorder(100, Point(0.0, 5.0))
        channel.register(sender)
        # Broadcast fans out to ids 0..5 in sorted order; node 0, the
        # first receiver in the fused batch, kills node 5 on receipt.
        nodes[0].on_message = lambda message: (
            Recorder.on_message(nodes[0], message), nodes[5].kill()
        )
        channel.broadcast(sender, EventReportMessage(sender=100))
        sim.run()
        assert nodes[5].received == []
        assert [len(node.received) for node in nodes[:5]] == [1] * 5


class TestBatchShape:
    def test_empty_batch(self):
        sim, channel, _nodes = make_net()
        before = sim.streams.get("channel").bit_generator.state
        assert channel.unicast_batch([], 0, []) == []
        assert channel.sent == 0
        assert sim.pending == 0
        assert sim.streams.get("channel").bit_generator.state == before

    def test_length_mismatch_rejected(self):
        _sim, channel, _nodes = make_net()
        with pytest.raises(ValueError, match="length mismatch"):
            channel.unicast_batch([1, 2], 0, [EventReportMessage(sender=1)])

    def test_unknown_sender_rejected(self):
        _sim, channel, _nodes = make_net(n=3)
        with pytest.raises(ValueError, match="unknown sender id 77"):
            channel.unicast_batch(
                [77], 0, [EventReportMessage(sender=77)]
            )

    def test_small_batch_takes_oracle_path(self):
        batch = make_net(loss=0.5, seed=12, n=4)
        oracle = make_net(loss=0.5, seed=12, n=4)
        sender_ids = list(range(1, _VECTOR_MIN))
        b_out = batch[1].unicast_batch(
            sender_ids, 0, [EventReportMessage(sender=i) for i in sender_ids]
        )
        o_out = oracle_unicast_batch(
            oracle[1], sender_ids, 0,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        assert b_out == o_out
        batch[0].run()
        oracle[0].run()
        assert_equivalent(batch, oracle)

    def test_lossless_batch_schedules_one_fused_event(self):
        sim, channel, nodes = make_net(loss=0.0, n=10)
        sender_ids = list(range(1, 10))
        channel.unicast_batch(
            sender_ids, 0, [EventReportMessage(sender=i) for i in sender_ids]
        )
        assert sim.pending == 1  # the whole batch rides one heap event
        sim.run()
        assert [m.sender for m in nodes[0].received] == sender_ids


class TestSatellites:
    def test_broadcast_drop_reason_metrics(self):
        sim, channel, nodes = make_net(loss=1.0, n=8)
        nodes[3].kill()
        channel.broadcast(nodes[0], EventReportMessage(sender=0))
        assert channel.sent == 7
        assert channel.dropped == 7
        assert channel.drops == {"dropped": 6, "dead-receiver": 1}
        assert channel.delivered == 0

    def test_unicast_drop_reason_metrics_match_batch(self):
        batch = make_net(loss=1.0, seed=14, n=8)
        oracle = make_net(loss=1.0, seed=14, n=8)
        sender_ids = list(range(1, 8))
        batch[1].unicast_batch(
            sender_ids, 0, [EventReportMessage(sender=i) for i in sender_ids]
        )
        oracle_unicast_batch(
            oracle[1], sender_ids, 0,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        assert channel_state(batch[1]) == channel_state(oracle[1])
        assert batch[1].drops == {"dropped": 7}

    def test_remove_tap_on_unknown_watched_id_is_a_noop(self):
        sim, channel, nodes = make_net(n=4)
        # Pinned behaviour: silently ignored, like removing a tap that
        # was never added -- no exception, no state change.
        channel.remove_tap(999, nodes[3])
        channel.add_tap(1, nodes[3])
        channel.remove_tap(999, nodes[3])
        channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        sim.run()
        assert nodes[3].received != []  # the real tap survived

    def test_removing_the_last_tap_leaves_no_entry(self):
        sim, channel, nodes = make_net(n=4)
        channel.add_tap(1, nodes[3])
        channel.add_tap(1, nodes[2])
        channel.remove_tap(1, nodes[3])
        assert channel._taps == {1: [nodes[2]]}
        channel.remove_tap(1, nodes[2])
        assert channel._taps == {}

    def test_outcomes_are_interned(self):
        sim, channel, nodes = make_net(loss=0.0, n=3)
        first = channel.unicast(nodes[0], 1, EventReportMessage(sender=0))
        second = channel.unicast(nodes[0], 2, EventReportMessage(sender=0))
        assert first is second
        dead_net = make_net(n=3)
        dead_net[2][1].kill()
        a = dead_net[1].unicast(
            dead_net[2][0], 1, EventReportMessage(sender=0)
        )
        b = dead_net[1].unicast(
            dead_net[2][0], 1, EventReportMessage(sender=0)
        )
        assert a is b

    def test_taps_mirror_batched_traffic(self):
        sim, channel, nodes = make_net(n=6)
        channel.add_tap(0, nodes[5])
        sender_ids = [1, 2, 3, 4]
        channel.unicast_batch(
            sender_ids, 0,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        sim.run()
        assert [m.sender for m in nodes[5].received] == sender_ids
