#!/usr/bin/env python
"""Multi-hop TIBFIT: sensors several hops from the data sink (§3.4).

The paper notes TIBFIT extends beyond one-hop clusters if a "reliable
data dissemination primitive" carries reports to the sink unaltered.
This example builds exactly that stack: a 7x7 field whose radio range
only reaches adjacent grid neighbours, a data sink in the corner, and
greedy-geographic routing with hop-by-hop acknowledgements carrying
every report.  A third of the sensors are compromised; one relay on a
popular route is Byzantine and silently blackholes traffic.

Shown:
  * reports crossing up to ~9 hops with per-link loss, still delivered
    (at-least-once + duplicate suppression),
  * the blackhole relay's damage bounded by route diversity and
    retransmission,
  * TIBFIT's decision quality unchanged by the transport: the CH's
    trust table still separates liars from honest nodes.

Run:
    python examples/multihop_watch.py
"""

import numpy as np

from repro.clusterctl.head import ClusterHead
from repro.core.trust import TrustParameters
from repro.network.geometry import Point, Region
from repro.network.messages import EventReportMessage
from repro.network.multihop import ReliableRelay, RoutingTable
from repro.network.radio import ChannelConfig, RadioChannel
from repro.network.topology import grid_deployment
from repro.sensors.generator import EventGenerator
from repro.sensors.sensing import SensingConfig, SensingModel
from repro.sensors.specs import CorrectSpec, FaultSpec, make_correct_behavior, make_faulty_behavior
from repro.experiments.metrics import score_run
from repro.experiments.reporting import render_table
from repro.obs.spans import SpanCollector
from repro.service.session import SessionConfig
from repro.simkernel.simulator import Simulator

N_NODES = 49
FIELD = 70.0
RADIO_RANGE = 15.0       # only adjacent grid cells (10 apart) connect
SINK_ID = 500
EVENTS = 60
SEED = 13
COMPROMISED = 16
BLACKHOLE = 8            # a relay one hop from the sink's corner


def main() -> None:
    spans = SpanCollector()
    sim = Simulator(seed=SEED, spans=spans)
    channel = RadioChannel(
        sim,
        ChannelConfig(
            loss_probability=0.02,
            propagation_delay=0.002,
            range_limit=RADIO_RANGE,
        ),
    )
    region = Region.square(FIELD)
    deployment = grid_deployment(N_NODES, region)
    sink_position = Point(5.0, 5.0)  # co-located with corner node 0

    routing = RoutingTable(deployment, radio_range=RADIO_RANGE)
    routing.add_endpoint(SINK_ID, sink_position)

    trust_params = TrustParameters(lam=0.25, fault_rate=0.1)
    ch = ClusterHead(
        node_id=SINK_ID + 1,  # decision logic lives behind the sink relay
        position=sink_position,
        deployment=deployment,
        config=SessionConfig(
            mode="location",
            sensing_radius=20.0,
            r_error=5.0,
            trust=trust_params,
        ),
        t_out=1.5,
        announce=False,
    )
    channel.register(ch)

    sink_relay = ReliableRelay(
        node_id=SINK_ID,
        position=sink_position,
        routing=routing,
        ack_timeout=0.05,
        max_retries=5,
        deliver_local=ch.on_message,
    )
    channel.register(sink_relay)

    relays = {}
    for node_id in deployment.node_ids():
        relay = ReliableRelay(
            node_id=node_id,
            position=deployment.position_of(node_id),
            routing=routing,
            ack_timeout=0.05,
            max_retries=5,
            drop_everything=(node_id == BLACKHOLE),
        )
        channel.register(relay)
        relays[node_id] = relay

    sensing = SensingModel(
        SensingConfig(sensing_radius=20.0, location_sigma=1.6)
    )
    rng = np.random.default_rng(SEED)
    captured = set(
        int(x) for x in rng.choice(N_NODES, size=COMPROMISED, replace=False)
    )
    captured.discard(BLACKHOLE)
    behaviors = {}
    for node_id in deployment.node_ids():
        if node_id in captured:
            behaviors[node_id] = make_faulty_behavior(
                FaultSpec(level=0, drop_rate=0.25, sigma=4.25),
                sensing, node_id, trust_params,
            )
        else:
            behaviors[node_id] = make_correct_behavior(
                CorrectSpec(sigma=1.6), sensing
            )

    generator = EventGenerator(region, sim.streams.get("events"))
    events = []
    node_rngs = {
        node_id: sim.streams.get(f"node-{node_id}")
        for node_id in deployment.node_ids()
    }

    def fire_event() -> None:
        event = generator.next_event(time=sim.now)
        events.append(event)
        for node_id in deployment.node_ids():
            position = deployment.position_of(node_id)
            if not sensing.detects(position, event.location):
                continue
            claim = behaviors[node_id].on_event(
                position, event.location, node_rngs[node_id]
            )
            if claim is None:
                continue
            report = EventReportMessage(
                sender=node_id,
                message_id=next(sim.message_ids),
                offset=sensing.encode_report(position, claim),
            )
            relays[node_id].originate(report, destination=SINK_ID)

    for k in range(EVENTS):
        sim.at((k + 1) * 10.0, fire_event, priority=-1)
    sim.run()
    ch.flush()
    sim.run()

    outcomes, _fps = score_run(
        events, ch.decisions, round_interval=10.0, r_error=5.0
    )
    detected = sum(o.detected for o in outcomes)
    hops = [
        span.args["hops"]
        for span in spans.spans("relay.delivered")
        if span.args["hops"] > 0
    ]
    blackholed = len(spans.spans("relay.byzantine-drop"))
    gave_up = sum(r.dropped_after_retries for r in relays.values())

    print(f"Multi-hop TIBFIT: {N_NODES} sensors, radio range "
          f"{RADIO_RANGE:g} on a {FIELD:g}x{FIELD:g} field, sink in the "
          f"corner\n")
    print(render_table(
        ["metric", "value"],
        [
            ("events", str(len(events))),
            ("events located within r_error",
             f"{detected} ({detected / len(events):.1%})"),
            ("max hops travelled", str(max(hops))),
            ("mean hops", f"{sum(hops) / len(hops):.1f}"),
            ("reports blackholed by Byzantine relay", str(blackholed)),
            ("hops abandoned after retries", str(gave_up)),
        ],
    ))

    trust = ch.trust.tis()
    honest = [ti for n, ti in trust.items() if n not in captured]
    lying = [ti for n, ti in trust.items() if n in captured]
    print("\nTrust table at the sink (transport did not blur the signal):")
    print(render_table(
        ["population", "mean TI"],
        [
            ("honest", f"{np.mean(honest):.3f}"),
            ("compromised", f"{np.mean(lying):.3f}"),
        ],
    ))


if __name__ == "__main__":
    main()
