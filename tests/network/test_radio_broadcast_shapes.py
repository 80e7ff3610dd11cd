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
node's received order, the metrics snapshot, the
``sent``/``delivered``/``dropped`` counters and the ``"channel"`` stream
state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.geometry import Point
from repro.network.messages import EventReportMessage
from repro.network.radio import _VECTOR_MIN
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
    sim, channel, _nodes = make_net(loss=0.3, seed=3, n=5)
    assert len(channel.known_ids()) > _VECTOR_MIN

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
