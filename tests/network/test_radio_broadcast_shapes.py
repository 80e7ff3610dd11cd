"""Hypothesis differentials: ``broadcast`` and ``unicast_batch`` vs
the per-message oracle.

A broadcast or report batch of at least ``_VECTOR_MIN`` transmissions
on a channel with no interceptor, no spans and no range limit takes the
channel's wide-open path: one ``"channel"`` draw per live receiver, one
loss mask, one fused delivery event.  These properties drive that path
across cluster sizes, loss probabilities, dead receivers, registered or
unregistered senders and destinations, and taps, and compare everything
observable with ``oracle_broadcast`` / ``oracle_unicast_batch`` (one
``unicast`` per transmission): the started counts or outcomes, each
node's received order, the ``sent``/``delivered`` counters and the
per-reason ``drops``, and the ``"channel"`` stream state.

A wide-open broadcast's fused event reaches only the message's readers
(``RadioChannel.broadcast``): a sensor hears a broadcast only when the
message names it or a tap watches it.  The readers differential mixes
sensors with every other reader kind and checks that no handler a
receiver would act on is skipped.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.geometry import Point
from repro.network.messages import ChDecisionAnnouncement, EventReportMessage
from repro.network.node import NetworkNode
from repro.network.radio import ChannelConfig, RadioChannel, _VECTOR_MIN
from repro.sensors.faults import CorrectBehavior, NodeBehavior
from repro.sensors.node import SensorNode
from repro.sensors.sensing import SensingConfig, SensingModel
from repro.simkernel.simulator import Simulator
from tests.network.test_radio_batch import (
    Recorder,
    assert_equivalent,
    make_net,
    oracle_broadcast,
    oracle_unicast_batch,
)

#: Id of the sender that never registers with the channel.
OUTSIDER = 1000


@st.composite
def broadcast_shapes(draw):
    n = draw(st.integers(5, 120))
    return {
        "n": n,
        "loss": draw(st.sampled_from([0.0, 0.008, 0.3, 1.0])),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "dead": draw(st.sets(st.integers(0, n - 1))),
        # One to three broadcasts in a row, each from a registered node
        # or from the unregistered outsider.
        "senders": draw(st.lists(
            st.integers(0, n - 1) | st.just(OUTSIDER), min_size=1, max_size=3,
        )),
    }


def build(shape):
    sim, channel, nodes = make_net(
        loss=shape["loss"], seed=shape["seed"], n=shape["n"]
    )
    for node_id in shape["dead"]:
        nodes[node_id].kill()
    outsider = Recorder(OUTSIDER, Point(0.0, 5.0))
    return (sim, channel, nodes), outsider


def sender_of(net, outsider, sender_id):
    return outsider if sender_id == OUTSIDER else net[2][sender_id]


@settings(max_examples=150, deadline=None)
@given(broadcast_shapes())
def test_wide_open_broadcast_matches_oracle(shape):
    batch, b_outsider = build(shape)
    oracle, o_outsider = build(shape)
    b_started = [
        batch[1].broadcast(
            sender_of(batch, b_outsider, sender_id),
            EventReportMessage(sender=sender_id),
        )
        for sender_id in shape["senders"]
    ]
    o_started = [
        oracle_broadcast(
            oracle[1],
            oracle[2],
            sender_of(oracle, o_outsider, sender_id),
            EventReportMessage(sender=sender_id),
        )
        for sender_id in shape["senders"]
    ]
    assert b_started == o_started
    batch[0].run()
    oracle[0].run()
    assert_equivalent(batch, oracle)


def test_shapes_take_the_wide_open_path(monkeypatch):
    # The smallest drawn cluster exceeds the crossover even when the
    # sender is not a registered endpoint, so every drawn shape skips
    # the per-message loop.
    sim, channel, nodes = make_net(loss=0.3, seed=3, n=5)
    assert len(nodes) > _VECTOR_MIN

    def forbidden(*args, **kwargs):
        raise AssertionError("left the wide-open path")

    monkeypatch.setattr(channel, "unicast", forbidden)
    started = channel.broadcast(
        Recorder(OUTSIDER), EventReportMessage(sender=OUTSIDER)
    )
    assert started > 1
    assert sim.pending == 1  # the survivors ride one fused event


#: ``unicast_batch`` shapes run on a fixed net: node 0 stays alive,
#: node 1 is killed, and node ``BATCH_NODES - 1`` may tap the destination.
BATCH_NODES = 12
DESTINATIONS = {"live": 0, "dead": 1, "unregistered": OUTSIDER}


@st.composite
def batch_shapes(draw):
    return {
        "loss": draw(st.sampled_from([0.0, 0.008, 0.3, 1.0])),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "tap": draw(st.booleans()),
        # One to three batches in a row, each to one destination from
        # one to forty registered senders (repeats allowed).
        "batches": draw(st.lists(
            st.tuples(
                st.sampled_from(sorted(DESTINATIONS)),
                st.lists(st.integers(0, BATCH_NODES - 1),
                         min_size=1, max_size=40),
            ),
            min_size=1, max_size=3,
        )),
    }


def build_batch_net(shape):
    sim, channel, nodes = make_net(
        loss=shape["loss"], seed=shape["seed"], n=BATCH_NODES
    )
    nodes[DESTINATIONS["dead"]].kill()
    if shape["tap"]:
        for kind in ("live", "dead"):
            channel.add_tap(DESTINATIONS[kind], nodes[-1])
    return sim, channel, nodes


@settings(max_examples=150, deadline=None)
@given(batch_shapes())
def test_unicast_batch_matches_oracle(shape):
    batch = build_batch_net(shape)
    oracle = build_batch_net(shape)
    for kind, sender_ids in shape["batches"]:
        destination = DESTINATIONS[kind]
        b_out = batch[1].unicast_batch(
            sender_ids, destination,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        o_out = oracle_unicast_batch(
            oracle[1], sender_ids, destination,
            [EventReportMessage(sender=i) for i in sender_ids],
        )
        assert b_out == o_out
    batch[0].run()
    oracle[0].run()
    assert_equivalent(batch, oracle)


def test_lossy_report_batch_takes_the_wide_open_path(monkeypatch):
    sim, channel, _nodes = make_net(loss=0.3, seed=3, n=_VECTOR_MIN + 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("left the wide-open path")

    monkeypatch.setattr(channel, "unicast", forbidden)
    sender_ids = list(range(1, _VECTOR_MIN + 2))
    outcomes = channel.unicast_batch(
        sender_ids, 0, [EventReportMessage(sender=i) for i in sender_ids]
    )
    assert {outcome.reason for outcome in outcomes} == {"ok", "dropped"}
    assert sim.pending == 1  # the survivors ride one fused event


# ----------------------------------------------------------------------
# Readers only: sensors hear the broadcasts that name them
# ----------------------------------------------------------------------
#: Id of the unregistered endpoint that taps one receiver.
TAPPER = 2000
#: Stands for the broadcasting node's own id in a drawn name list.
SELF = -1
SENSING = SensingModel(SensingConfig(sensing_radius=20.0, location_sigma=1.6))


class Observer(NodeBehavior):
    """A verdict-observing behaviour that logs ``(node_id, rewarded)``."""

    def __init__(self, node_id, log):
        self.node_id = node_id
        self.log = log

    def on_event(self, node_position, event_location, rng):
        return None

    def observe_outcome(self, rewarded):
        self.log.append((self.node_id, rewarded))


def make_sensor(node_id, behavior):
    return SensorNode(
        node_id=node_id,
        position=Point(float(node_id * 10), 0.0),
        behavior=behavior,
        sensing=SENSING,
        ch_id=-1,
        rng=np.random.default_rng(0),  # never drawn: nothing is sensed
    )


@st.composite
def reader_shapes(draw):
    n = draw(st.integers(5, 60))
    # Ids n..n+3 are never registered.
    names = st.lists(st.integers(0, n + 3) | st.just(SELF), max_size=12)
    announcement = st.tuples(st.booleans(), names, names)
    return {
        "kinds": draw(st.lists(
            st.sampled_from(["observer", "correct", "recorder"]),
            min_size=n, max_size=n,
        )),
        "feedback_off": draw(st.sets(st.integers(0, n - 1))),
        "dead": draw(st.sets(st.integers(0, n - 1))),
        "tap": draw(st.none() | st.integers(0, n - 1)),
        "loss": draw(st.sampled_from([0.0, 0.008, 0.3, 1.0])),
        "seed": draw(st.integers(0, 2**32 - 1)),
        # One to three broadcasts in a row: (sender, None for a plain
        # message or (occurred, reporters, non_reporters)).
        "broadcasts": draw(st.lists(
            st.tuples(
                st.integers(0, n - 1) | st.just(OUTSIDER),
                st.none() | announcement,
            ),
            min_size=1, max_size=3,
        )),
    }


def build_readers(shape):
    sim = Simulator(seed=shape["seed"])
    channel = RadioChannel(
        sim, ChannelConfig(loss_probability=shape["loss"],
                           propagation_delay=0.01),
    )
    log = []
    nodes = []
    for node_id, kind in enumerate(shape["kinds"]):
        if kind == "recorder":
            node = Recorder(node_id, Point(float(node_id * 10), 0.0))
        else:
            node = make_sensor(
                node_id,
                Observer(node_id, log) if kind == "observer"
                else CorrectBehavior(SENSING),
            )
            node.feedback_enabled = node_id not in shape["feedback_off"]
        channel.register(node)
        nodes.append(node)
    for node_id in shape["dead"]:
        nodes[node_id].kill()
    tapper = Recorder(TAPPER)
    if shape["tap"] is not None:
        channel.add_tap(shape["tap"], tapper)
    return sim, channel, nodes, log, tapper, Recorder(OUTSIDER)


def messages_of(shape):
    """The drawn broadcasts' messages, shared by both networks."""
    out = []
    for sender_id, body in shape["broadcasts"]:
        if body is None:
            out.append(EventReportMessage(sender=sender_id))
            continue
        occurred, reporters, non_reporters = body

        def resolve(ids):
            return tuple(sender_id if i == SELF else i for i in ids)

        out.append(ChDecisionAnnouncement(
            sender=sender_id, occurred=occurred,
            reporters=resolve(reporters),
            non_reporters=resolve(non_reporters),
        ))
    return out


def observables(net):
    sim, channel, nodes, log, tapper, _outsider = net
    return {
        "observed": log,
        "received": {
            node.node_id: [m.message_id for m in node.received]
            for node in nodes if isinstance(node, Recorder)
        },
        "tap": [m.message_id for m in tapper.received],
        "counters": (channel.sent, channel.delivered, dict(channel.drops)),
        "channel": sim.streams.get("channel").bit_generator.state,
        "clock": sim.now,
    }


@settings(max_examples=150, deadline=None)
@given(reader_shapes())
def test_readers_only_broadcast_matches_oracle(shape):
    batch = build_readers(shape)
    oracle = build_readers(shape)
    messages = messages_of(shape)
    senders = [sender_id for sender_id, _body in shape["broadcasts"]]

    def sender(net, sender_id):
        return net[5] if sender_id == OUTSIDER else net[2][sender_id]

    b_started = [
        batch[1].broadcast(sender(batch, sender_id), message)
        for sender_id, message in zip(senders, messages)
    ]
    o_started = [
        oracle_broadcast(
            oracle[1], oracle[2], sender(oracle, sender_id), message
        )
        for sender_id, message in zip(senders, messages)
    ]
    assert b_started == o_started
    batch[0].run()
    oracle[0].run()
    assert observables(batch) == observables(oracle)


def sensor_net(delay=0.01):
    """A head (a plain reader, id 99) and 8 correct sensors, lossless."""
    sim = Simulator(seed=5)
    channel = RadioChannel(
        sim, ChannelConfig(loss_probability=0.0, propagation_delay=delay)
    )
    sensors = [make_sensor(i, CorrectBehavior(SENSING)) for i in range(8)]
    for node in sensors:
        channel.register(node)
    head = NetworkNode(99, Point(0.0, 5.0))
    channel.register(head)
    return sim, channel, sensors, head


def verdict(reporters=(), non_reporters=(), occurred=True):
    return ChDecisionAnnouncement(
        sender=99, occurred=occurred,
        reporters=reporters, non_reporters=non_reporters,
    )


class TestReaders:
    def test_a_broadcast_with_no_reader_alive_still_fires_one_event(self):
        sim, channel, sensors, head = sensor_net()
        sensors[1].kill()
        sensors[2].kill()
        sim.at(2.0, channel.broadcast, head, verdict(reporters=(1,),
                                                      non_reporters=(2,)))
        assert sim.run() == 2.0 + 0.01
        # The broadcast itself and its one fused delivery, which has no
        # reader left to deliver to.
        assert sim.events_fired == 2
        assert channel.delivered == 6

    def test_a_plain_message_to_sensors_fires_one_event(self):
        sim, channel, sensors, head = sensor_net()
        assert channel.broadcast(head, EventReportMessage(sender=99)) == 8
        assert sim.pending == 1
        assert sim.run() == 0.01

    def test_named_sensor_compromised_in_flight_observes(self):
        sim, channel, sensors, head = sensor_net(delay=1.0)
        log = []
        channel.broadcast(head, verdict(reporters=(3,), occurred=False))
        sim.at(0.5, sensors[3].compromise, Observer(3, log))
        sim.run()
        assert log == [(3, False)]

    def test_unnamed_sensor_handler_never_runs(self):
        sim, channel, sensors, head = sensor_net()
        calls = []
        for node in sensors:
            node.on_message = lambda message, node=node: calls.append(
                node.node_id
            )
        channel.broadcast(head, verdict(reporters=(2, 6), non_reporters=(4,)))
        channel.broadcast(head, EventReportMessage(sender=99))
        sim.run()
        assert calls == [2, 4, 6]

    def test_tapped_unnamed_sensor_feeds_its_tap(self):
        sim, channel, sensors, head = sensor_net()
        tapper = Recorder(TAPPER)
        channel.add_tap(5, tapper)
        message = verdict(reporters=(1,))
        channel.broadcast(head, message)
        sim.run()
        assert tapper.received == [message]
