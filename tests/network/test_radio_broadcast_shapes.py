"""Hypothesis differential: ``broadcast`` vs the per-message oracle.

A broadcast with no interceptor, no spans and no range limit to more
than ``_VECTOR_MIN`` endpoints takes the channel's wide-open path: one
``"channel"`` draw per live receiver, one loss mask, one fused delivery
event.  These properties drive that path across cluster sizes, loss
probabilities, dead receivers and registered or unregistered senders,
and compare everything observable with ``oracle_broadcast`` (one
``unicast`` per receiver): the started counts, each node's received
order, the metrics snapshot, the ``sent``/``delivered``/``dropped``
counters and the ``"channel"`` stream state.
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
    # the batched core and the per-message loop.
    sim, channel, _nodes = make_net(loss=0.3, seed=3, n=5)
    assert len(channel.known_ids()) > _VECTOR_MIN

    def forbidden(*args, **kwargs):
        raise AssertionError("left the wide-open path")

    monkeypatch.setattr(channel, "_transmit_many", forbidden)
    monkeypatch.setattr(channel, "unicast", forbidden)
    started = channel.broadcast(
        Recorder(OUTSIDER), EventReportMessage(sender=OUTSIDER)
    )
    assert started > 1
    assert sim.pending == 1  # the survivors ride one fused event
