"""Unit tests for multi-hop reliable dissemination (§3.4 extension)."""

import pytest

from repro.network.geometry import Point, Region
from repro.network.messages import EventReportMessage
from repro.network.multihop import (
    RelayAck,
    RelayedMessage,
    ReliableRelay,
    RoutingTable,
)
from repro.network.radio import ChannelConfig, Intercept, RadioChannel
from repro.network.topology import Deployment
from repro.obs.spans import SpanCollector
from repro.simkernel.simulator import Simulator


def line_deployment(n, spacing=10.0):
    """Nodes 0..n-1 on a line, `spacing` apart."""
    deployment = Deployment(region=Region(0.0, 0.0, 1000.0, 100.0))
    for i in range(n):
        deployment.add(i, Point(float(i) * spacing, 50.0))
    return deployment


def build_chain(n=5, loss=0.0, radio_range=12.0, byzantine=(), seed=1,
                max_retries=3):
    """A chain network where each node reaches only its neighbours."""
    sim = Simulator(seed=seed, spans=SpanCollector())
    channel = RadioChannel(
        sim,
        ChannelConfig(
            loss_probability=loss,
            propagation_delay=0.001,
            range_limit=radio_range,
        ),
    )
    deployment = line_deployment(n)
    routing = RoutingTable(deployment, radio_range=radio_range)
    delivered = []
    relays = []
    for i in range(n):
        relay = ReliableRelay(
            node_id=i,
            position=deployment.position_of(i),
            routing=routing,
            ack_timeout=0.05,
            max_retries=max_retries,
            deliver_local=(delivered.append if i == n - 1 else None),
            drop_everything=(i in byzantine),
        )
        channel.register(relay)
        relays.append(relay)
    return sim, channel, relays, delivered


class TestRoutingTable:
    def test_neighbors_respect_radio_range(self):
        routing = RoutingTable(line_deployment(5), radio_range=12.0)
        assert routing.neighbors(2) == [1, 3]
        assert routing.neighbors(0) == [1]

    def test_next_hop_moves_toward_destination(self):
        routing = RoutingTable(line_deployment(5), radio_range=12.0)
        assert routing.next_hop(0, 4) == 1
        assert routing.next_hop(3, 4) == 4

    def test_route_spans_the_chain(self):
        routing = RoutingTable(line_deployment(6), radio_range=12.0)
        assert routing.route(0, 5) == [0, 1, 2, 3, 4, 5]

    def test_route_with_exclusions_fails_on_a_chain(self):
        routing = RoutingTable(line_deployment(5), radio_range=12.0)
        # Excluding the only middle relay severs the chain.
        assert routing.route(0, 4, exclude=(2,)) is None

    def test_wider_range_allows_detours(self):
        routing = RoutingTable(line_deployment(5), radio_range=25.0)
        path = routing.route(0, 4, exclude=(1,))
        assert path is not None
        assert 1 not in path

    def test_external_endpoint(self):
        routing = RoutingTable(line_deployment(3), radio_range=12.0)
        routing.add_endpoint(99, Point(30.0, 50.0))
        assert routing.next_hop(2, 99) == 99
        assert routing.route(0, 99) is not None

    def test_disconnected_pair(self):
        deployment = line_deployment(2, spacing=100.0)
        routing = RoutingTable(deployment, radio_range=12.0)
        assert routing.next_hop(0, 1) is None
        assert routing.route(0, 1) is None

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            RoutingTable(line_deployment(2), radio_range=0.0)


class TestReliableDelivery:
    def test_end_to_end_over_lossless_chain(self):
        sim, _channel, relays, delivered = build_chain(n=5)
        payload = EventReportMessage(sender=0)
        relays[0].originate(payload, destination=4)
        sim.run()
        assert delivered == [payload]
        (record,) = sim.spans.spans("relay.delivered")
        assert record.args == {"node": 4, "origin": 0, "hops": 4}

    def test_origin_that_is_its_destination_delivers_without_sending(self):
        sim, channel, relays, delivered = build_chain(n=3)
        payload = EventReportMessage(sender=2)
        relay_id = relays[2].originate(payload, destination=2)
        sim.run()
        assert relay_id == 1
        assert delivered == [payload]
        assert channel.sent == 0
        (record,) = sim.spans.spans("relay.delivered")
        assert record.args == {"node": 2, "origin": 2, "hops": 0}
        # Nothing was built for the zero-hop relay, so the run's first
        # message id is still unused.
        assert next(sim.message_ids) == 1

    def test_hop_count_recorded(self):
        sim, _channel, relays, _delivered = build_chain(n=4)
        relays[0].originate(EventReportMessage(sender=0), destination=3)
        sim.run()
        (record,) = sim.spans.spans("relay.delivered")
        assert record.args == {"node": 3, "origin": 0, "hops": 3}

    def test_survives_heavy_link_loss(self):
        """30% per-transmission loss: retransmission still delivers."""
        sim, _channel, relays, delivered = build_chain(
            n=4, loss=0.3, seed=5, max_retries=8
        )
        for _ in range(20):
            relays[0].originate(
                EventReportMessage(sender=0), destination=3
            )
        sim.run()
        assert len(delivered) >= 18  # at-least-once nearly always wins

    def test_no_duplicate_deliveries(self):
        """Lost ACKs cause retransmits; duplicate suppression keeps
        delivery effectively-once."""
        sim, _channel, relays, delivered = build_chain(
            n=3, loss=0.25, seed=9, max_retries=10
        )
        payload = EventReportMessage(sender=0)
        relays[0].originate(payload, destination=2)
        sim.run()
        assert delivered.count(payload) <= 1

    def test_gives_up_after_max_retries_when_link_dead(self):
        sim, channel, relays, delivered = build_chain(n=3, max_retries=2)
        channel.set_interceptor(
            lambda sender, receiver, _now: (
                Intercept(True) if (sender, receiver) == (0, 1) else None
            )
        )
        relays[0].originate(EventReportMessage(sender=0), destination=2)
        sim.run()
        assert delivered == []
        assert relays[0].dropped_after_retries == 1
        (gave_up,) = sim.spans.spans("relay.gave-up")
        assert (gave_up.args["node"], gave_up.args["next_hop"]) == (0, 1)

    def test_byzantine_relay_blackholes_but_is_traced(self):
        sim, _channel, relays, delivered = build_chain(
            n=4, byzantine=(1,)
        )
        relays[0].originate(EventReportMessage(sender=0), destination=3)
        sim.run()
        assert delivered == []
        (drop,) = sim.spans.spans("relay.byzantine-drop")
        assert drop.args["node"] == 1

    def test_unroutable_traced(self):
        sim, _channel, relays, _delivered = build_chain(n=2)
        relays[0].originate(EventReportMessage(sender=0), destination=77)
        sim.run()
        (unroutable,) = sim.spans.spans("relay.unroutable")
        assert unroutable.args == {"node": 0, "destination": 77}

    def test_validation(self):
        routing = RoutingTable(line_deployment(2), radio_range=12.0)
        with pytest.raises(ValueError):
            ReliableRelay(0, Point(0, 0), routing, ack_timeout=0.0)
        with pytest.raises(ValueError):
            ReliableRelay(0, Point(0, 0), routing, max_retries=-1)

    def test_forwarding_counters(self):
        sim, _channel, relays, _delivered = build_chain(n=4)
        relays[0].originate(EventReportMessage(sender=0), destination=3)
        sim.run()
        # The origin's transmission, then one forward by each of the
        # two relays between it and the destination.
        assert [
            span.args["sender"]
            for span in sim.spans.spans("radio.transmit")
            if span.args["message"] == "RelayedMessage"
        ] == [0, 1, 2]
        (record,) = sim.spans.spans("relay.delivered")
        assert record.args["hops"] == 3
