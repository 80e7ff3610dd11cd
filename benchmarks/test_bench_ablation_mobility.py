"""Extension bench: mobility and the CH's position knowledge (§2).

§2 allows mobile networks "as long as it is possible for the CH to
estimate the positions of its cluster nodes during decision making".
This bench makes that proviso quantitative.  Nodes move by random
waypoint; the CH decodes ``(r, theta)`` reports against either

* live truth (the §2 assumption),
* a snapshot refreshed every 10 time units (mild staleness), or
* a snapshot refreshed every 100 time units (positions drift several
  units between refreshes -- comparable to r_error).

Expected: live knowledge keeps accuracy near the stationary level;
mild staleness costs little; heavy staleness degrades localisation
because decoded report positions inherit the CH's position error.
"""

import numpy as np

from repro.clusterctl.head import ClusterHead
from repro.core.trust import TrustParameters
from repro.network.geometry import Region
from repro.network.mobility import (
    MobilityConfig,
    PositionTracker,
    RandomWaypointMobility,
)
from repro.network.radio import ChannelConfig, RadioChannel
from repro.network.topology import grid_deployment
from repro.sensors.generator import EventGenerator
from repro.sensors.node import SensorNode
from repro.sensors.sensing import SensingConfig, SensingModel
from repro.sensors.specs import CorrectSpec, make_correct_behavior
from repro.experiments.metrics import score_run
from repro.experiments.reporting import render_table
from repro.service.session import SessionConfig
from repro.simkernel.simulator import Simulator
from benchmarks._shared import run_once

N_NODES = 100
EVENTS = 60
SEED = 59
CH_ID = 10_000


def run_mobile(refresh_interval):
    sim = Simulator(seed=SEED)
    channel = RadioChannel(sim, ChannelConfig(loss_probability=0.0))
    region = Region.square(100.0)
    truth = grid_deployment(N_NODES, region)
    tracker = PositionTracker(truth, refresh_interval=refresh_interval)
    sensing = SensingModel(
        SensingConfig(sensing_radius=20.0, location_sigma=1.6)
    )
    trust_params = TrustParameters(lam=0.25, fault_rate=0.1)

    ch = ClusterHead(
        node_id=CH_ID,
        position=region.center,
        deployment=tracker.view,  # the CH's (possibly stale) knowledge
        config=SessionConfig(
            mode="location",
            sensing_radius=20.0,
            r_error=5.0,
            trust=trust_params,
        ),
        t_out=1.0,
    )
    channel.register(ch)

    nodes = {}
    for node_id in truth.node_ids():
        node = SensorNode(
            node_id=node_id,
            position=truth.position_of(node_id),
            behavior=make_correct_behavior(CorrectSpec(sigma=1.6), sensing),
            sensing=sensing,
            ch_id=CH_ID,
            rng=sim.streams.get(f"node-{node_id}"),
            region=region,
        )
        nodes[node_id] = node
        channel.register(node)

    mobility = RandomWaypointMobility(
        truth,
        region,
        MobilityConfig(speed_min=0.3, speed_max=0.8, tick=1.0),
        sim.streams.get("mobility"),
        on_move=lambda node_id, pos: setattr(
            nodes[node_id], "position", pos
        ),
    )
    mobility.start(sim)
    tracker.start(sim)

    generator = EventGenerator(region, sim.streams.get("events"))
    events = []

    def fire():
        event = generator.next_event(time=sim.now)
        events.append(event)
        for node in nodes.values():
            node.sense_event(event)

    for k in range(EVENTS):
        sim.at((k + 1) * 10.0, fire, priority=-1)
    # The mobility (and refresh) timers are perpetual: run to a bound
    # rather than draining the queue.
    horizon = (EVENTS + 1) * 10.0
    sim.run(until=horizon)
    ch.flush()
    sim.run(until=horizon + 5.0)

    outcomes, _ = score_run(
        events, ch.decisions, round_interval=10.0, r_error=5.0
    )
    detected = [o for o in outcomes if o.detected]
    mean_err = (
        sum(o.localisation_error for o in detected) / len(detected)
        if detected
        else None
    )
    staleness = tracker.staleness()
    return {
        "accuracy": len(detected) / len(outcomes),
        "mean_error": mean_err,
        "max_staleness": max(staleness.values()),
    }


def test_ablation_mobility_position_knowledge(benchmark):
    def workload():
        return {
            "live positions (§2 assumption)": run_mobile(None),
            "snapshot every 10": run_mobile(10.0),
            "snapshot every 100": run_mobile(100.0),
        }

    results = run_once(benchmark, workload)
    print()
    print(render_table(
        ["CH position knowledge", "accuracy", "mean loc. error",
         "max position staleness"],
        [
            (name, f"{r['accuracy']:.3f}",
             f"{r['mean_error']:.2f}" if r["mean_error"] else "-",
             f"{r['max_staleness']:.2f}")
            for name, r in results.items()
        ],
    ))

    live = results["live positions (§2 assumption)"]
    mild = results["snapshot every 10"]
    heavy = results["snapshot every 100"]

    # Live knowledge keeps a mobile, honest network near-perfect.
    assert live["accuracy"] >= 0.95
    # Mild staleness costs little.
    assert mild["accuracy"] >= live["accuracy"] - 0.10
    # Heavy staleness visibly degrades detection/localisation.
    assert heavy["accuracy"] <= mild["accuracy"]
    assert heavy["max_staleness"] > mild["max_staleness"]
