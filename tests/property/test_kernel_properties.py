"""Property-based tests for the DES kernel and radio substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.geometry import Point
from repro.network.messages import EventReportMessage
from repro.network.node import NetworkNode
from repro.network.radio import ChannelConfig, RadioChannel
from repro.simkernel.simulator import Simulator

schedule_entries = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        st.integers(min_value=-3, max_value=3),
    ),
    min_size=1,
    max_size=60,
)


@given(entries=schedule_entries)
@settings(max_examples=100)
def test_simulator_fires_in_total_order(entries):
    """Events fire sorted by (time, priority, insertion order)."""
    sim = Simulator(seed=0)
    fired = []
    for idx, (t, prio) in enumerate(entries):
        sim.at(t, fired.append, (t, prio, idx), priority=prio)
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(entries)


@given(delays=st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1, max_size=40,
))
@settings(max_examples=60)
def test_simulator_clock_is_monotone(delays):
    sim = Simulator(seed=0)
    observed = []
    for d in delays:
        sim.after(d, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


class _Counter(NetworkNode):
    def __init__(self, node_id):
        super().__init__(node_id, Point(0.0, 0.0))
        self.count = 0

    def on_message(self, message):
        self.count += 1


@given(
    loss=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    sends=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_radio_conservation(loss, sends, seed):
    """Every transmission is accounted for: sent == delivered + dropped,
    and the receiver sees exactly the delivered count."""
    sim = Simulator(seed=seed)
    channel = RadioChannel(
        sim, ChannelConfig(loss_probability=loss, propagation_delay=0.001)
    )
    a = _Counter(0)
    b = _Counter(1)
    channel.register(a)
    channel.register(b)
    for _ in range(sends):
        channel.unicast(a, 1, EventReportMessage(sender=0))
    sim.run()
    assert channel.sent == sends
    assert channel.sent == channel.delivered + channel.dropped
    assert b.count == channel.delivered
