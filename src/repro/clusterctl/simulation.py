"""Full multi-cluster TIBFIT deployment with rotating cluster heads.

The headline experiments run a single static CH (as Experiment 1 does
explicitly).  The paper's *system model*, however, is richer (§2):
clusters form around LEACH-elected heads, the heads rotate on
energy/TI grounds, an outgoing CH ships its trust table to the base
station, the incoming CH requests it back, under-trusted candidates
are vetoed, and two shadow cluster heads per cluster watch the active
head.  :class:`RotatingClusterSimulation` wires all of that together
on the DES substrate:

* each *leadership round* runs a LEACH election (gated on the BS trust
  registry), appoints every elected node as that round's CH, and
  appoints the two highest-trust members of each cluster as SCHs with
  radio taps on their CH;
* sensing nodes report to their current CH; each CH runs the location
  pipeline over its own members;
* at the end of the round every CH transfers ``{node: v}`` to the BS,
  which merges it into the cluster-agnostic registry the next round's
  CHs (and candidacy vetoes) read.

Trust is keyed by node id at the base station, so state accumulated
under one head survives rotation -- the property that lets a rotating
network still build the long-term state TIBFIT depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.clusterctl.base_station import BaseStation
from repro.clusterctl.head import ClusterHead, ClusterHeadConfig, DecisionRecord
from repro.clusterctl.leach import EnergyModel, LeachConfig, LeachElection
from repro.clusterctl.shadow import ShadowClusterHead
from repro.core.trust import TrustParameters
from repro.network.geometry import Point, Region
from repro.network.radio import ChannelConfig, RadioChannel
from repro.network.topology import Deployment, shared_grid_deployment
from repro.sensors.faults import CollusionCoordinator, NodeBehavior
from repro.sensors.generator import EventGenerator, GroundTruthEvent
from repro.sensors.node import SensorNode
from repro.sensors.sensing import SensingConfig, SensingModel
from repro.sensors.specs import (
    CollusionCellPool,
    CorrectSpec,
    FaultSpec,
    make_correct_behavior,
    make_faulty_behavior,
)
from repro.simkernel.simulator import Simulator
from repro.experiments.metrics import RunMetrics, score_run


@dataclass
class LeadershipRound:
    """Book-keeping for one leadership round."""

    round_number: int
    cluster_heads: Tuple[int, ...]
    membership: Dict[int, List[int]]
    shadows: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    vetoed: Tuple[int, ...] = ()
    corrupt_heads: Tuple[int, ...] = ()


class _CorruptClusterHead(ClusterHead):
    """A compromised node serving as CH: §3.4's failing data sink.

    The corruption model is verdict inversion -- the worst arbitrary
    fault for a decision maker, and the one the shadow CHs are built to
    catch (they recompute from the same inputs and dissent).
    """

    def _record_decision(
        self, occurred, location, supporters, dissenters, span_id=0
    ):
        super()._record_decision(
            not occurred, location, supporters, dissenters, span_id=span_id
        )


class RotatingClusterSimulation:
    """A TIBFIT network with LEACH-rotated cluster heads.

    Parameters
    ----------
    n_nodes / field_side:
        Deployment (grid, as in Experiment 2).
    sensing_radius / r_error:
        Sensing and localisation bounds.
    lam / fault_rate:
        Trust model parameters (shared by CHs and the BS registry).
    correct_spec / fault_spec / faulty_ids:
        Population behaviour, as in the single-CH harness.
    leach:
        Election parameters; ``ti_threshold`` doubles as the §2 veto.
    events_per_leadership:
        Event rounds served by one set of CHs before rotation.
    n_shadows:
        Shadow CHs per cluster (the paper uses two).
    use_trust:
        False runs the baseline voters in every CH (trust tables still
        exist for election/registry mechanics but never influence
        votes).
    corrupt_elected_faulty:
        §3.4's failing data sink: when True, a *compromised* node that
        wins an election serves as a verdict-inverting CH for its
        round.  The shadow CHs catch the wrong conclusions and the base
        station's 2-of-3 vote penalises the head's registry trust,
        which the TI admission gate then holds against it in later
        elections.  Default False (compromise affects sensing only, as
        in the headline experiments).
    transfer_trust:
        False disables the §2 base-station hand-off: each new CH starts
        from a blank trust table ("amnesia" ablation).  The registry
        still records outgoing tables so diagnosis metrics remain
        available.
    """

    BS_ID = 99_999

    def __init__(
        self,
        n_nodes: int = 100,
        field_side: float = 100.0,
        sensing_radius: float = 20.0,
        r_error: float = 5.0,
        lam: float = 0.25,
        fault_rate: float = 0.1,
        use_trust: bool = True,
        correct_spec: CorrectSpec = CorrectSpec(sigma=1.6),
        fault_spec: FaultSpec = FaultSpec(level=0, drop_rate=0.25, sigma=4.25),
        faulty_ids: Sequence[int] = (),
        leach: LeachConfig = LeachConfig(ch_fraction=0.05, ti_threshold=0.5),
        events_per_leadership: int = 10,
        n_shadows: int = 2,
        channel_loss: float = 0.008,
        t_out: float = 1.0,
        round_interval: float = 10.0,
        transfer_trust: bool = True,
        corrupt_elected_faulty: bool = False,
        seed: int = 0,
    ) -> None:
        if events_per_leadership <= 0:
            raise ValueError("events_per_leadership must be positive")
        if n_shadows < 0:
            raise ValueError("n_shadows must be non-negative")
        unknown = set(faulty_ids) - set(range(n_nodes))
        if unknown:
            raise ValueError(f"faulty_ids outside deployment: {sorted(unknown)}")

        self.n_nodes = n_nodes
        self.region = Region.square(field_side)
        self.sensing_radius = sensing_radius
        self.r_error = r_error
        self.trust_params = TrustParameters(lam=lam, fault_rate=fault_rate)
        self.use_trust = use_trust
        self.correct_spec = correct_spec
        self.fault_spec = fault_spec
        self.faulty_ids = tuple(sorted(set(faulty_ids)))
        self.leach_config = leach
        self.events_per_leadership = events_per_leadership
        self.n_shadows = n_shadows
        self.channel_loss = channel_loss
        self.t_out = t_out
        self.round_interval = round_interval
        self.transfer_trust = transfer_trust
        self.corrupt_elected_faulty = corrupt_elected_faulty
        self.seed = seed

        self.sim = Simulator(seed=seed)
        self.channel = RadioChannel(
            self.sim, ChannelConfig(loss_probability=channel_loss)
        )
        self.deployment = shared_grid_deployment(
            n_nodes, self.region, index_cell=sensing_radius
        )
        self.energy = EnergyModel(self.deployment.node_ids())
        self.bs = BaseStation(
            node_id=self.BS_ID,
            position=Point(-10.0, -10.0),
            trust_params=self.trust_params,
            ch_ti_threshold=leach.ti_threshold,
        )
        self.channel.register(self.bs)
        self.election = LeachElection(
            deployment=self.deployment,
            config=leach,
            energy=self.energy,
            rng=self.sim.streams.get("leach"),
            ti_lookup=lambda n: self.bs.ti_of(0, n),
        )
        self.generator = EventGenerator(
            self.region, self.sim.streams.get("events")
        )

        self.sensing = SensingModel(
            SensingConfig(
                sensing_radius=sensing_radius,
                location_sigma=correct_spec.sigma,
            )
        )
        self.nodes: Dict[int, SensorNode] = {}
        self._build_sensors()

        self.rounds: List[LeadershipRound] = []
        self.events: List[GroundTruthEvent] = []
        self.decisions: List[DecisionRecord] = []
        self._active_chs: Dict[int, ClusterHead] = {}
        self._active_shadows: List[ShadowClusterHead] = []
        self.rotations = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_sensors(self) -> None:
        pool: Optional[CollusionCellPool] = None
        if self.fault_spec.level == 2 and self.faulty_ids:
            pool = CollusionCellPool(
                self.fault_spec, self.sensing,
                self.sim.streams.get("collusion"),
            )

        faulty = set(self.faulty_ids)
        for node_id in self.deployment.node_ids():
            if node_id in faulty:
                behavior = make_faulty_behavior(
                    self.fault_spec,
                    self.sensing,
                    node_id,
                    self.trust_params,
                    correct_spec=self.correct_spec,
                    coordinator=pool.assign() if pool else None,
                )
            else:
                behavior = make_correct_behavior(
                    self.correct_spec, self.sensing
                )
            node = SensorNode(
                node_id=node_id,
                position=self.deployment.position_of(node_id),
                behavior=behavior,
                sensing=self.sensing,
                ch_id=-1,  # assigned per leadership round
                rng=self.sim.streams.get(f"node-{node_id}"),
                region=self.region,
            )
            node.feedback_enabled = self.use_trust
            self.nodes[node_id] = node
            self.channel.register(node)

    # ------------------------------------------------------------------
    # Leadership rounds
    # ------------------------------------------------------------------
    def _ch_endpoint_id(self, node_id: int) -> int:
        """Channel address of the CH process hosted on ``node_id``.

        The CH role runs alongside the node's sensing role; giving the
        role its own address keeps both registered simultaneously.
        """
        return 10_000 + node_id

    def _start_round(self) -> LeadershipRound:
        result = self.election.run_round()
        record = LeadershipRound(
            round_number=result.round_number,
            cluster_heads=result.cluster_heads,
            membership={
                ch: list(members)
                for ch, members in result.membership.items()
            },
            vetoed=result.vetoed,
        )

        ch_config = ClusterHeadConfig(
            mode="location",
            t_out=self.t_out,
            sensing_radius=self.sensing_radius,
            r_error=self.r_error,
            trust=self.trust_params,
            use_trust=self.use_trust,
        )
        faulty_set = set(self.faulty_ids)
        corrupt_heads = []
        for ch_node in result.cluster_heads:
            members = result.membership[ch_node]
            cluster_deployment = Deployment(region=self.region)
            for member in members:
                cluster_deployment.add(
                    member, self.deployment.position_of(member)
                )
            endpoint_id = self._ch_endpoint_id(ch_node)
            is_corrupt = (
                self.corrupt_elected_faulty and ch_node in faulty_set
            )
            head_class = _CorruptClusterHead if is_corrupt else ClusterHead
            if is_corrupt:
                corrupt_heads.append(ch_node)
            ch = head_class(
                node_id=endpoint_id,
                position=self.deployment.position_of(ch_node),
                deployment=cluster_deployment,
                config=ch_config,
                base_station_id=self.BS_ID,
                cluster_id=0,
            )
            self.channel.register(ch)
            self.bs.bind_ch(endpoint_id, 0, host_node_id=ch_node)
            if self.transfer_trust:
                # New CH requests the registry state (§2).
                ch.trust.import_state(
                    {
                        node: v
                        for node, v in self.bs.table_for_new_ch(0).items()
                        if node in set(members)
                    }
                )
            self._active_chs[ch_node] = ch

            # Members report to this CH for the round.
            for member in members:
                self.nodes[member].ch_id = endpoint_id
            # The CH's own node stays silent while it leads.
            self.nodes[ch_node].ch_id = endpoint_id

            shadows = self._appoint_shadows(ch_node, members, ch_config)
            record.shadows[ch_node] = tuple(s.node_id for s in shadows)

        record.corrupt_heads = tuple(corrupt_heads)
        self.rounds.append(record)
        return record

    def _appoint_shadows(
        self,
        ch_node: int,
        members: List[int],
        ch_config: ClusterHeadConfig,
    ) -> List[ShadowClusterHead]:
        """The ``n_shadows`` highest-registry-TI members become SCHs.

        Each SCH's mirror starts from the same base-station trust
        snapshot the incoming CH requested -- without that, an honest
        CH and its shadows would vote with different weights and the
        shadows would dissent spuriously.
        """
        ranked = sorted(
            members,
            key=lambda n: (-self.bs.ti_of(0, n), n),
        )
        member_set = set(members)
        trust_snapshot = {
            node: v
            for node, v in self.bs.table_for_new_ch(0).items()
            if node in member_set
        }
        shadows = []
        for host in ranked[: self.n_shadows]:
            cluster_deployment = self._active_chs[ch_node].deployment
            sch = ShadowClusterHead(
                node_id=20_000 + host,
                position=self.deployment.position_of(host),
                watched_ch_id=self._ch_endpoint_id(ch_node),
                deployment=cluster_deployment,
                config=ch_config,
                base_station_id=self.BS_ID,
            )
            if self.transfer_trust:
                sch._mirror.trust.import_state(trust_snapshot)
            self.channel.register(sch)
            self.channel.add_tap(self._ch_endpoint_id(ch_node), sch)
            shadows.append(sch)
        self._active_shadows.extend(shadows)
        return shadows

    def _end_round(self) -> None:
        for ch_node, ch in self._active_chs.items():
            ch.flush()
        self.sim.run()
        for ch_node, ch in self._active_chs.items():
            self.decisions.extend(ch.decisions)
            ch.end_leadership(round_number=self.election.round_number)
            endpoint = self._ch_endpoint_id(ch_node)
            self.channel.unregister(endpoint)
        self.sim.run()  # deliver the TI transfers
        for sch in self._active_shadows:
            sch.flush()
            self.channel.remove_tap(sch.watched_ch_id, sch)
            self.channel.unregister(sch.node_id)
        self._active_chs.clear()
        self._active_shadows.clear()

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self, leadership_rounds: int) -> "RotatingClusterSimulation":
        """Run the network through ``leadership_rounds`` rotations."""
        if leadership_rounds <= 0:
            raise ValueError("leadership_rounds must be positive")
        for _ in range(leadership_rounds):
            self._start_round()
            self.rotations += 1
            for _ in range(self.events_per_leadership):
                event_time = self.sim.now + self.round_interval
                self.sim.at(
                    event_time, self._fire_event, priority=-1,
                    label="mc-event",
                )
                self.sim.run(until=event_time + self.round_interval - 0.001)
            self._end_round()
        return self

    def _fire_event(self) -> None:
        event = self.generator.next_event(time=self.sim.now)
        self.events.append(event)
        nodes = self.nodes
        active = self._active_chs
        # Event neighbours only: sense_event's detects gate uses the
        # same radius and the same correctly-rounded distance expression
        # as the spatial index, and ids come back sorted ascending (the
        # node-dict insertion order), so send order over the channel
        # stream is identical to the full sweep.
        for node_id in self.deployment.event_neighbors(
            event.location, self.sensing_radius
        ):
            if node_id in active:
                continue  # the leading node's radio serves its CH role
            node = nodes.get(node_id)
            if node is not None:
                node.sense_event(event)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def metrics(self) -> RunMetrics:
        """Score the *system-level* verdicts against ground truth.

        §3.4: when shadow CHs overruled a cluster head, the base
        station's 2-of-3 vote is the network's answer, so resolved
        decisions are scored with the corrected verdict and the
        dissenters' location.
        """
        corrections = {
            r.decision_id: r for r in self.bs.resolutions
        }
        effective = []
        for d in sorted(
            self.decisions, key=lambda d: (d.time, d.decision_id)
        ):
            fix = corrections.get(d.decision_id)
            if fix is None:
                effective.append(d)
            else:
                effective.append(
                    DecisionRecord(
                        decision_id=d.decision_id,
                        time=d.time,
                        occurred=fix.final_verdict,
                        location=(
                            fix.final_location
                            if fix.final_location is not None
                            else d.location
                        ),
                        supporters=d.supporters,
                        dissenters=d.dissenters,
                    )
                )
        outcomes, false_positives = score_run(
            self.events,
            effective,
            round_interval=self.round_interval,
            r_error=self.r_error,
        )
        return RunMetrics(
            outcomes=outcomes,
            false_positive_decisions=false_positives,
            quiet_windows=0,
            decisions_total=len(self.decisions),
            diagnosed_nodes=self.bs.registry_for(0).below_threshold(0.3),
            truly_faulty_nodes=self.faulty_ids,
        )

    def registry_snapshot(self) -> Dict[int, float]:
        """The base station's view of every node's trust."""
        registry = self.bs.registry_for(0)
        return {node_id: registry.ti(node_id) for node_id in registry}

    def leadership_counts(self) -> Dict[int, int]:
        """How many rounds each node led (rotation evidence)."""
        counts: Dict[int, int] = {}
        for record in self.rounds:
            for ch in record.cluster_heads:
                counts[ch] = counts.get(ch, 0) + 1
        return counts
