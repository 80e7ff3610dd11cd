#!/usr/bin/env python
"""Tracking a mobile target through a partially compromised field.

§3.2's motivating problem: "a network is attempting to track a mobile
sensor node that is transmitting a signal as it moves throughout the
network."  A target crosses a 100x100 field along a dog-leg path,
transmitting every few time units; each transmission is located by the
cluster head from the (noisy, partly malicious) reports of the sensors
in range.  A third of the sensors are compromised naive liars.

The output reconstructs the track sample by sample: true position,
TIBFIT's estimate, and the localisation error.

Run:
    python examples/target_tracking.py
"""

import numpy as np

from repro.clusterctl.head import ClusterHead
from repro.core.trust import TrustParameters
from repro.network.geometry import Point, Region
from repro.network.radio import ChannelConfig, RadioChannel
from repro.network.topology import grid_deployment
from repro.sensors.node import SensorNode
from repro.sensors.sensing import SensingConfig, SensingModel
from repro.sensors.specs import (
    CorrectSpec,
    FaultSpec,
    make_correct_behavior,
    make_faulty_behavior,
)
from repro.sensors.trajectory import TargetTracker, Trajectory
from repro.experiments.reporting import render_table
from repro.service.session import SessionConfig
from repro.simkernel.simulator import Simulator

N_NODES = 100
FIELD = 100.0
COMPROMISED = 35
SEED = 29
CH_ID = 10_000
SAMPLE_PERIOD = 8.0


def main() -> None:
    sim = Simulator(seed=SEED)
    channel = RadioChannel(sim, ChannelConfig(loss_probability=0.008))
    region = Region.square(FIELD)
    deployment = grid_deployment(N_NODES, region)
    trust_params = TrustParameters(lam=0.25, fault_rate=0.1)
    sensing = SensingModel(
        SensingConfig(sensing_radius=20.0, location_sigma=1.6)
    )

    ch = ClusterHead(
        node_id=CH_ID,
        position=region.center,
        deployment=deployment,
        config=SessionConfig(
            mode="location",
            sensing_radius=20.0,
            r_error=5.0,
            trust=trust_params,
        ),
        t_out=1.0,
    )
    channel.register(ch)

    rng = np.random.default_rng(SEED)
    captured = set(
        int(x) for x in rng.choice(N_NODES, size=COMPROMISED, replace=False)
    )
    nodes = {}
    for node_id in deployment.node_ids():
        if node_id in captured:
            behavior = make_faulty_behavior(
                FaultSpec(level=0, drop_rate=0.25, sigma=4.25),
                sensing, node_id, trust_params,
            )
        else:
            behavior = make_correct_behavior(CorrectSpec(sigma=1.6), sensing)
        node = SensorNode(
            node_id=node_id,
            position=deployment.position_of(node_id),
            behavior=behavior,
            sensing=sensing,
            ch_id=CH_ID,
            rng=sim.streams.get(f"node-{node_id}"),
            region=region,
        )
        nodes[node_id] = node
        channel.register(node)

    trajectory = Trajectory(
        waypoints=[
            Point(5.0, 10.0),
            Point(60.0, 35.0),
            Point(40.0, 75.0),
            Point(95.0, 90.0),
        ],
        speed=3.0,
        start_time=10.0,
    )

    def on_transmission(event) -> None:
        for node in nodes.values():
            node.sense_event(event)

    tracker = TargetTracker(
        trajectory, period=SAMPLE_PERIOD, on_event=on_transmission
    )
    tracker.start(sim)
    sim.run()
    ch.flush()
    sim.run()

    print(f"Target tracking: {N_NODES} sensors ({COMPROMISED}% "
          f"compromised), target at speed {trajectory.speed:g}\n")

    rows = []
    located = 0
    errors = []
    for event in tracker.emitted:
        best = None
        for d in ch.decisions:
            if not d.occurred or d.location is None:
                continue
            if not event.time <= d.time < event.time + SAMPLE_PERIOD:
                continue
            err = d.location.distance_to(event.location)
            if best is None or err < best[0]:
                best = (err, d.location)
        if best is not None and best[0] <= 5.0:
            located += 1
            errors.append(best[0])
            rows.append(
                (f"{event.time:.0f}",
                 f"({event.location.x:5.1f},{event.location.y:5.1f})",
                 f"({best[1].x:5.1f},{best[1].y:5.1f})",
                 f"{best[0]:.2f}"))
        else:
            rows.append(
                (f"{event.time:.0f}",
                 f"({event.location.x:5.1f},{event.location.y:5.1f})",
                 "lost", "-"))
    print(render_table(
        ["t", "true position", "estimated", "error"], rows
    ))

    total = len(tracker.emitted)
    print(f"\nTrack samples located: {located}/{total} "
          f"({located / total:.0%}); mean error "
          f"{sum(errors) / len(errors):.2f} units")
    print("The trust index keeps the track locked even though a third "
          "of the field lies.")


if __name__ == "__main__":
    main()
