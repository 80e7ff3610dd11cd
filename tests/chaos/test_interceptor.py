"""Interceptor semantics on the radio transmit path."""

from typing import NamedTuple

import pytest

from repro.chaos.plan import (
    ChannelWindow,
    ChaosController,
    FaultPlan,
    NodeOutage,
    PartitionWindow,
)
from repro.network.geometry import Point
from repro.network.node import NetworkNode
from repro.network.radio import ChannelConfig, Intercept, RadioChannel
from repro.obs.spans import SpanCollector
from repro.simkernel.simulator import Simulator


class Recorder(NetworkNode):
    def __init__(self, node_id):
        super().__init__(node_id, Point(float(node_id), 0.0))
        self.received = []

    def on_message(self, message):
        self.received.append((self.sim.now, message))


class Ping(NamedTuple):
    """The smallest message: the two fields the radio reads."""

    sender: int
    message_id: int = 0


def make_net(n=3, seed=1, spans=None):
    sim = Simulator(seed=seed, spans=spans)
    channel = RadioChannel(
        sim, ChannelConfig(loss_probability=0.0, propagation_delay=0.01)
    )
    nodes = [Recorder(i) for i in range(n)]
    for node in nodes:
        channel.register(node)
    return sim, channel, nodes


class TestInterceptorHook:
    def test_only_one_interceptor_may_be_installed(self):
        _, channel, _ = make_net()
        channel.set_interceptor(lambda s, r, t: None)
        with pytest.raises(ValueError, match="already installed"):
            channel.set_interceptor(lambda s, r, t: None)
        channel.set_interceptor(None)  # uninstall
        channel.set_interceptor(lambda s, r, t: None)

    def test_none_verdict_is_a_plain_delivery(self):
        sim, channel, nodes = make_net()
        channel.set_interceptor(lambda s, r, t: None)
        channel.unicast(nodes[0], 1, Ping(sender=0))
        sim.run()
        assert len(nodes[1].received) == 1
        assert channel.delivered == 1

    def test_drop_verdict_discards_with_chaos_reason(self):
        sim, channel, nodes = make_net()
        channel.set_interceptor(lambda s, r, t: Intercept(True))
        outcome = channel.unicast(nodes[0], 1, Ping(sender=0))
        sim.run()
        assert not outcome.delivered
        assert outcome.reason == "chaos"
        assert nodes[1].received == []
        assert channel.dropped == 1

    def test_extra_delays_duplicate_and_defer(self):
        sim, channel, nodes = make_net()
        channel.set_interceptor(lambda s, r, t: Intercept(False, (0.0, 0.5)))
        channel.unicast(nodes[0], 1, Ping(sender=0))
        sim.run()
        times = [t for t, _ in nodes[1].received]
        assert times == [0.01, 0.51]
        # Channel counters see one transmission, not two.
        assert channel.sent == 1 and channel.delivered == 1


class TestChaosController:
    def run_with_plan(self, plan, n=4, seed=1, sends=None):
        sim, channel, nodes = make_net(n=n, seed=seed)
        controller = ChaosController(plan, sim, channel).install()
        for at, (src, dst) in sends or []:
            sim.at(
                at,
                lambda s=src, d=dst: channel.unicast(
                    nodes[s], d, Ping(sender=s)
                ),
            )
        sim.run()
        return sim, channel, nodes, controller

    def test_burst_loss_window_drops_inside_only(self):
        plan = FaultPlan(windows=(
            ChannelWindow(start=10.0, end=20.0, loss_probability=1.0),
        ))
        _, channel, nodes, _ = self.run_with_plan(
            plan, sends=[(5.0, (0, 1)), (15.0, (0, 1)), (25.0, (0, 1))]
        )
        assert len(nodes[1].received) == 2
        assert channel.dropped == 1

    def test_delay_spike_defers_delivery(self):
        plan = FaultPlan(windows=(
            ChannelWindow(start=10.0, end=20.0, extra_delay=0.4),
        ))
        _, _, nodes, _ = self.run_with_plan(
            plan, sends=[(5.0, (0, 1)), (15.0, (0, 1))]
        )
        times = [t for t, _ in nodes[1].received]
        assert times == [5.01, 15.41]

    def test_duplicate_window_delivers_two_copies(self):
        plan = FaultPlan(windows=(
            ChannelWindow(start=10.0, end=20.0, duplicate_probability=1.0),
        ))
        _, channel, nodes, _ = self.run_with_plan(
            plan, sends=[(15.0, (0, 1))]
        )
        assert len(nodes[1].received) == 2
        assert channel.sent == 1

    def test_partition_cuts_cross_group_traffic_only(self):
        plan = FaultPlan(partitions=(
            PartitionWindow(start=10.0, end=20.0, groups=((0, 1), (2,))),
        ))
        _, channel, nodes, _ = self.run_with_plan(
            plan,
            sends=[
                (15.0, (0, 1)),   # same group: passes
                (15.0, (0, 2)),   # cross group: cut
                (15.0, (3, 2)),   # node 3 unlisted: bridges
                (25.0, (0, 2)),   # window over: passes
            ],
        )
        assert len(nodes[1].received) == 1
        assert len(nodes[2].received) == 2
        assert channel.dropped == 1

    def test_outage_kills_and_revives_node(self):
        plan = FaultPlan(outages=(NodeOutage(node_id=1, start=10.0, end=20.0),))
        _, _, nodes, _ = self.run_with_plan(
            plan, sends=[(15.0, (0, 1)), (25.0, (0, 1))]
        )
        assert nodes[1].alive
        assert len(nodes[1].received) == 1  # only the post-recovery send

    def test_outage_lifecycle_emits_spans(self):
        spans = SpanCollector()
        sim, channel, _nodes = make_net(spans=spans)
        plan = FaultPlan(outages=(NodeOutage(node_id=1, start=10.0, end=20.0),))
        ChaosController(plan, sim, channel).install()
        sim.run()
        assert [
            (span.category, span.time, span.args) for span in spans
        ] == [
            ("chaos.crash", 10.0, {"node": 1}),
            ("chaos.recover", 20.0, {"node": 1}),
        ]

    def test_empty_plan_installs_no_interceptor(self):
        sim, channel, _ = make_net()
        ChaosController(FaultPlan(), sim, channel).install()
        assert channel._interceptor is None
        sim.run()
        assert sim.events_fired == 0  # no lifecycle events scheduled

    def test_install_twice_is_an_error(self):
        sim, channel, _ = make_net()
        controller = ChaosController(FaultPlan(), sim, channel).install()
        with pytest.raises(RuntimeError, match="already installed"):
            controller.install()

    def test_ch_crash_without_callback_is_an_error(self):
        from repro.chaos.plan import ChCrash

        sim, channel, _ = make_net()
        plan = FaultPlan(ch_crashes=(ChCrash(start=5.0),))
        with pytest.raises(ValueError, match="ch_crash"):
            ChaosController(plan, sim, channel).install()

    def test_interceptor_draws_nothing_outside_active_spans(self):
        # The chaos stream must stay untouched while no window is
        # active, or empty stretches would still perturb replay state.
        plan = FaultPlan(windows=(
            ChannelWindow(start=10.0, end=20.0, loss_probability=0.5),
        ))
        sim, channel, nodes = make_net(seed=9)
        ChaosController(plan, sim, channel).install()
        probe_rng = Simulator(seed=9).streams.get("chaos")
        channel.unicast(nodes[0], 1, Ping(sender=0))  # t=0: inactive
        sim.run()
        # Same next draw as a virgin stream -> nothing was consumed.
        assert sim.streams.get("chaos").random() == probe_rng.random()
