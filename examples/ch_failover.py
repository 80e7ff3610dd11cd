#!/usr/bin/env python
"""Cluster-head failover: shadow CHs catch a lying cluster head (§3.4).

No node is immune -- not even the data sink.  This example compromises
the *cluster head itself*: it inverts every event verdict before
announcing it.  Two shadow cluster heads (the two highest-trust nodes
within one hop, per §3.4) mirror the CH's computation from tapped
traffic, detect the wrong conclusions, and escalate to the base
station, which votes 2-vs-1, penalises the CH's trust, and triggers a
LEACH re-election in which the deposed CH's trust deficit bars it from
standing again.

Run:
    python examples/ch_failover.py
"""

import numpy as np

from repro.clusterctl.base_station import BaseStation
from repro.clusterctl.head import CorruptClusterHead
from repro.clusterctl.leach import EnergyModel, LeachConfig, LeachElection
from repro.clusterctl.shadow import appoint_shadows
from repro.core.trust import TrustParameters
from repro.network.geometry import Point, Region
from repro.network.messages import EventReportMessage
from repro.network.radio import ChannelConfig, RadioChannel
from repro.network.topology import grid_deployment
from repro.service.session import SessionConfig
from repro.simkernel.simulator import Simulator

N_SENSORS = 9
CH_ID = 100
SCH_IDS = (101, 102)
BS_ID = 999


def main() -> None:
    sim = Simulator(seed=11)
    channel = RadioChannel(
        sim, ChannelConfig(loss_probability=0.0, propagation_delay=0.001)
    )
    region = Region.square(60.0)
    deployment = grid_deployment(N_SENSORS, region)

    trust_params = TrustParameters(lam=0.25, fault_rate=0.05)
    ch_config = SessionConfig(
        mode="binary", sensing_radius=100.0, trust=trust_params
    )

    reelections = []
    bs = BaseStation(
        node_id=BS_ID,
        position=Point(-10.0, -10.0),
        trust_params=trust_params,
        ch_ti_threshold=0.8,
        on_reelection=reelections.append,
    )
    channel.register(bs)

    ch = CorruptClusterHead(
        node_id=CH_ID,
        position=region.center,
        deployment=deployment,
        config=ch_config,
        t_out=1.0,
        base_station_id=BS_ID,
    )
    channel.register(ch)
    bs.bind_ch(CH_ID)

    # §3.4: both SCHs snoop the CH's traffic through one shared mirror
    # of its computation, and each checks the CH's verdicts against it.
    shadows = appoint_shadows(
        ch,
        [
            (sch_id, region.center.translated(2.0, float(sch_id - 100)))
            for sch_id in SCH_IDS
        ],
        base_station_id=BS_ID,
    ).seats

    # Plain sensor endpoints that report honestly.
    from repro.network.node import NetworkNode

    class Sensor(NetworkNode):
        pass

    sensors = []
    for node_id in deployment.node_ids():
        sensor = Sensor(node_id, deployment.position_of(node_id))
        channel.register(sensor)
        sensors.append(sensor)

    print("Cluster-head failover demo: 9 honest sensors, 1 corrupt CH, "
          "2 shadow CHs\n")

    # Five real events: every sensor reports; the corrupt CH announces
    # "no event" each time; the SCHs disagree and escalate.
    for round_index in range(5):
        for sensor in sensors:
            sensor.send(CH_ID, EventReportMessage(
                sender=sensor.node_id, message_id=next(sim.message_ids)
            ))
        sim.run()

    dissents = sum(len(s.disagreements) for s in shadows)
    print(f"CH verdicts announced:    {len(ch.decisions)} (all inverted)")
    print(f"SCH disagreements raised: {dissents}")
    print(f"BS arbitrations:          {len(bs.resolutions)} "
          f"(CH overruled {sum(r.ch_was_wrong for r in bs.resolutions)} "
          "times)")
    print(f"Re-elections triggered:   {len(reelections)}")
    ch_trust = bs.ti_of(CH_ID)
    print(f"Deposed CH trust at BS:   {ch_trust:.3f}")

    # The LEACH election the BS would now run: the deposed CH cannot
    # stand (its registry TI is below the 0.8 admission threshold).
    election = LeachElection(
        deployment=deployment,
        config=LeachConfig(ch_fraction=0.2, ti_threshold=0.8),
        energy=EnergyModel(deployment.node_ids()),
        rng=np.random.default_rng(3),
        ti_lookup=bs.ti_of,
    )
    result = election.run_round()
    print(f"\nLEACH re-election result: new CH(s) {result.cluster_heads}")
    assert bs.approves_candidate(result.cluster_heads[0])
    assert not bs.approves_candidate(CH_ID)
    print("The corrupt CH is barred from leadership by its trust "
          "deficit; a trusted node takes over the cluster.")


if __name__ == "__main__":
    main()
