"""One fully assembled TIBFIT simulation: build, run, score.

:class:`SimulationRun` wires every substrate together the way §4
describes the ns-2 setup: a deployment of sensing nodes with assigned
behaviours, a lossy radio channel, cluster heads running either the
binary or the location pipeline, a ground-truth event generator firing
rounds at a regular interval, and quiet windows in between in which
faulty nodes may raise false alarms.  After the run it scores the
heads' decision logs against ground truth.

Leadership is a policy: one fixed CH (Experiments 1-3), or the paper's
rotating system model (§2, §3.4; Experiment 4).  With a
:class:`Rotation`, each leadership holds a LEACH election gated on the
base station's (BS) trust registry, every elected node leads its
cluster with two shadow CHs watching it, and at the leadership's end
each head ships its trust table to the BS for the next heads to read.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.chaos.plan import ChaosController, ChCrash, FaultPlan
from repro.clusterctl.base_station import BaseStation
from repro.clusterctl.head import ClusterHead, CorruptClusterHead
from repro.clusterctl.leach import EnergyModel, LeachConfig, LeachElection
from repro.clusterctl.shadow import HeadMirror, appoint_shadows
from repro.core.trust import TrustParameters
from repro.network.geometry import Point, Region
from repro.network.radio import ChannelConfig, RadioChannel
from repro.network.topology import Deployment, shared_grid_deployment
from repro.sensors.faults import NodeBehavior
from repro.sensors.generator import EventGenerator, GroundTruthEvent
from repro.sensors.specs import (
    CollusionCellPool,
    CorrectSpec,
    FaultSpec,
    make_correct_behavior,
    make_faulty_behavior,
)
from repro.sensors.node import SensorNode
from repro.sensors.sensing import SensingConfig, SensingModel
from repro.obs.export import (
    build_manifest,
    metrics_records,
    write_chrome_trace,
    write_json,
    write_jsonl,
)
from repro.obs.provenance import ProvenanceIndex
from repro.obs.spans import NULL_SPANS, SpanCollector
from repro.service.ids import IdAllocator
from repro.service.session import DecisionRecord, SessionConfig
from repro.simkernel.simulator import Simulator
from repro.experiments.metrics import RunMetrics, score_run

__all__ = ["CompromiseOrder", "LeadershipRound", "Rotation", "SimulationRun"]

#: Shadow CHs watching each rotating head: §3.4's "two additional
#: shadow cluster heads (SCH) to each cluster".
N_SHADOWS = 2

#: Registry TI below which a rotating run counts a node as diagnosed.
REGISTRY_DIAGNOSIS_TI = 0.3


@dataclass(frozen=True)
class CompromiseOrder:
    """A scheduled behaviour takeover (Experiment 3's decay)."""

    round_index: int
    node_ids: Tuple[int, ...]
    spec: FaultSpec


@dataclass(frozen=True)
class Rotation:
    """The rotating-leadership policy of a :class:`SimulationRun`.

    Attributes
    ----------
    leach:
        Election parameters; ``ti_threshold`` doubles as the §2 veto.
    events_per_leadership:
        Event rounds served by one set of CHs before the next election.
    transfer_trust:
        False disables the §2 BS hand-off: each new CH starts from a
        blank table (the "amnesia" ablation); the registry still records
        outgoing tables.
    corrupt_elected_faulty:
        §3.4's failing data sink: a compromised node that wins an
        election leads as a verdict-inverting CH, which its shadows and
        the BS's 2-of-3 vote overrule.
    """

    leach: LeachConfig = LeachConfig(ch_fraction=0.05, ti_threshold=0.5)
    events_per_leadership: int = 10
    transfer_trust: bool = True
    corrupt_elected_faulty: bool = False

    def __post_init__(self) -> None:
        if self.events_per_leadership <= 0:
            raise ValueError("events_per_leadership must be positive")


@dataclass(frozen=True)
class LeadershipRound:
    """Book-keeping for one leadership of a rotating run."""

    round_number: int
    cluster_heads: Tuple[int, ...]
    membership: Dict[int, List[int]]
    shadows: Dict[int, Tuple[int, ...]]
    vetoed: Tuple[int, ...]
    corrupt_heads: Tuple[int, ...]


class HeadLog(NamedTuple):
    """What scoring, replay and the run's counts keep of a CH: its logs
    and its CTI vote count, not the whole head with its trust table and
    circle tracker."""

    decisions: List[DecisionRecord]
    journal: List[Dict[str, object]]
    diagnosed: Tuple[int, ...]
    votes: int


def _merged_decisions(heads: List[HeadLog]) -> List[DecisionRecord]:
    """One head's log as is (no copy), or several merged in time order."""
    if len(heads) == 1:
        return heads[0].decisions
    merged = [record for head in heads for record in head.decisions]
    merged.sort(key=lambda record: (record.time, record.decision_id))
    return merged


class SimulationRun:
    """Build and execute one simulation, then score it.

    Parameters
    ----------
    mode:
        ``"binary"`` (Experiment 1) or ``"location"`` (Experiments 2-3).
    n_nodes:
        Sensing nodes (the CH is an additional entity, per Table 1's
        "10 sensing nodes, 1 CH").
    field_side:
        Side of the square deployment region; the nodes sit on a
        cell-centred grid over it (Experiment 2's 100 on 100x100).
    sensing_radius / r_error:
        ``r_s`` and the localisation bound.  Binary runs that want every
        node to neighbour every event should pass a radius covering the
        field (e.g. ``field_side * 1.5``).
    lam / fault_rate:
        Trust model parameters.
    use_trust:
        True = TIBFIT, False = majority-voting baseline.
    correct_spec / fault_spec:
        Behaviour parameters for the two populations.
    faulty_ids:
        Initially compromised node ids.
    channel_loss:
        The ns-2 stand-in's natural drop probability.
    t_out / round_interval:
        Collection window and spacing of event rounds.  Quiet windows
        (false-alarm opportunities) run at ``round + round_interval/2``.
    quiet_windows:
        Disable to skip false-alarm opportunities entirely.
    diagnosis_threshold:
        Enable CH-side isolation of nodes below this TI.
    concurrent_batch:
        Events per round (>1 exercises §3.3's concurrent machinery, with
        batch members kept at least ``r_error`` apart).
    seed:
        Master seed; every stream derives from it.
    spans:
        Enable causal span collection (:mod:`repro.obs.spans`): every
        sensed event, report, radio delivery/drop, collection window,
        vote, trust transition, and CH verdict emits a span linked to
        the span that caused it, and :meth:`export_artifacts` writes
        ``spans.jsonl`` / ``provenance.jsonl`` / ``spans_chrome.json``.
        Span collection reads state but never mutates it and never
        touches an RNG, so a spanned run stays bit-identical to an
        unspanned one (asserted by
        ``tests/experiments/test_observability.py``).
    journal:
        Record every decided window's raw inputs (see
        :meth:`session_journal`); replaying them through a fresh
        :class:`~repro.service.session.TrustSession` yields the run's
        TI history, decision by decision.
    chaos_plan:
        Optional :class:`~repro.chaos.plan.FaultPlan` of injected
        failures (channel degradation windows, node crash/recover
        churn, partitions, CH crashes with standby failover).  The plan
        is applied through the radio channel's transmit interceptor and
        lifecycle events scheduled at build time; its randomness lives
        on the dedicated ``"chaos"`` stream, so a run with the *empty*
        plan is bit-identical to a run with no plan at all (asserted by
        ``tests/chaos/test_differential.py``).
    rotation:
        Optional :class:`Rotation`: LEACH-elected heads replace the fixed
        CH.  ``run(n)`` still counts event rounds, and may be called
        again to continue.  Scoring takes the BS's dispute resolutions
        over the heads' verdicts; ``diagnosed_nodes`` is the BS registry
        below TI 0.3.  Location mode only, without quiet windows or a
        ``chaos_plan``.
    """

    #: Channel addresses.  Sensing node ``n`` hosts a rotating head at
    #: ``CH_ID_OFFSET + n`` and a shadow CH at ``SHADOW_ID_OFFSET + n``.
    CH_ID_OFFSET = 10_000
    SHADOW_ID_OFFSET = 20_000
    BS_ID = 99_999

    def __init__(
        self,
        mode: str = "location",
        n_nodes: int = 100,
        field_side: float = 100.0,
        sensing_radius: float = 20.0,
        r_error: float = 5.0,
        lam: float = 0.25,
        fault_rate: float = 0.1,
        use_trust: bool = True,
        correct_spec: CorrectSpec = CorrectSpec(),
        fault_spec: FaultSpec = FaultSpec(),
        faulty_ids: Sequence[int] = (),
        channel_loss: float = 0.008,
        t_out: float = 1.0,
        round_interval: float = 10.0,
        quiet_windows: bool = True,
        diagnosis_threshold: Optional[float] = None,
        concurrent_batch: int = 1,
        seed: int = 0,
        spans: bool = False,
        journal: bool = False,
        chaos_plan: Optional[FaultPlan] = None,
        rotation: Optional[Rotation] = None,
    ) -> None:
        if mode not in ("binary", "location"):
            raise ValueError(f"mode must be 'binary' or 'location', got {mode!r}")
        if rotation is not None and (
            mode == "binary" or quiet_windows or chaos_plan is not None
        ):
            raise ValueError(
                "rotation runs location mode without quiet_windows "
                "or a chaos_plan"
            )
        if not 0 < t_out < math.inf:
            raise ValueError(f"t_out must be positive and finite, got {t_out}")
        if not 2 * t_out < round_interval < math.inf:
            raise ValueError(
                "round_interval must be finite and exceed 2*t_out so "
                "windows never span rounds"
            )
        unknown_faulty = set(faulty_ids) - set(range(n_nodes))
        if unknown_faulty:
            raise ValueError(f"faulty_ids outside deployment: {sorted(unknown_faulty)}")

        self.mode = mode
        self.n_nodes = n_nodes
        self.field_side = field_side
        self.sensing_radius = sensing_radius
        self.r_error = r_error
        self.trust_params = TrustParameters(lam=lam, fault_rate=fault_rate)
        self.use_trust = use_trust
        self.correct_spec = correct_spec
        self.fault_spec = fault_spec
        self.initial_faulty = tuple(sorted(set(faulty_ids)))
        self.channel_loss = channel_loss
        self.t_out = t_out
        self.round_interval = round_interval
        self.quiet_windows = quiet_windows
        self.diagnosis_threshold = diagnosis_threshold
        self.concurrent_batch = concurrent_batch
        self.seed = seed
        self.journal = journal
        self.chaos_plan = chaos_plan
        self.rotation = rotation
        self.chaos: Optional[ChaosController] = None
        # Every head the run installs numbers its decisions from here.
        self._decision_ids = IdAllocator()
        self._retired: List[HeadLog] = []
        self.spans = SpanCollector() if spans else NULL_SPANS
        self.timings: Dict[str, float] = {}

        self._compromises: List[CompromiseOrder] = []
        self.events: List[GroundTruthEvent] = []
        self._built = False

        # Populated by build():
        self.sim: Optional[Simulator] = None
        self.channel: Optional[RadioChannel] = None
        self.deployment: Optional[Deployment] = None
        self.nodes: Dict[int, SensorNode] = {}
        self.ch: Optional[ClusterHead] = None  # the fixed head
        self.generator: Optional[EventGenerator] = None
        self._coordinator: Optional[CollusionCellPool] = None
        self._ever_faulty: set = set(self.initial_faulty)

        # Rotation state; the leading heads are keyed by host node id.
        self.bs: Optional[BaseStation] = None
        self.election: Optional[LeachElection] = None
        self.rounds: List[LeadershipRound] = []
        self._heads: Dict[int, ClusterHead] = {}
        self._mirrors: List[HeadMirror] = []
        self._rounds_run = 0

    # ------------------------------------------------------------------
    # Pre-run configuration
    # ------------------------------------------------------------------
    def schedule_compromise(
        self, round_index: int, node_ids: Sequence[int], spec: Optional[FaultSpec] = None
    ) -> None:
        """Convert ``node_ids`` to faulty at the start of ``round_index``.

        This is Experiment 3's decay driver ("after every 50 events 5%
        more of the network is compromised").
        """
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        self._compromises.append(
            CompromiseOrder(
                round_index=round_index,
                node_ids=tuple(sorted(set(node_ids))),
                spec=spec if spec is not None else self.fault_spec,
            )
        )

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self) -> "SimulationRun":
        """Assemble simulator, channel, deployment, behaviours, CH or BS."""
        if self._built:
            raise RuntimeError("build() may only be called once per run")
        self._built = True
        build_start = perf_counter()

        region = Region.square(self.field_side)
        self.sim = Simulator(
            seed=self.seed, spans=self.spans if self.spans.enabled else None
        )
        self.channel = RadioChannel(
            self.sim, ChannelConfig(loss_probability=self.channel_loss)
        )
        # Grid geometry is RNG-free, so all trials of a sweep point
        # share one memoised template (positions copied, spatial index
        # snapshot shared) instead of rebuilding per trial.  r_s is the
        # cell size the location engine's ensure_index call asks for,
        # so the shared snapshot is a direct hit.
        self.deployment = shared_grid_deployment(
            self.n_nodes, region, index_cell=self.sensing_radius
        )

        self._ch_config = SessionConfig(
            mode=self.mode,
            sensing_radius=self.sensing_radius,
            r_error=self.r_error,
            trust=self.trust_params,
            use_trust=self.use_trust,
            diagnosis_threshold=self.diagnosis_threshold,
            journal=self.journal,
        )

        sensing = self._sensing = SensingModel(
            SensingConfig(
                sensing_radius=self.sensing_radius,
                location_sigma=self.correct_spec.sigma,
            ),
            # A binary head reads only who reported (§3.1).
            places=self.mode == "location",
        )
        faulty = set(self.initial_faulty)
        for node_id in self.deployment.node_ids():
            behavior = (
                self._make_faulty_behavior(node_id)
                if node_id in faulty
                else make_correct_behavior(self.correct_spec, sensing)
            )
            node = SensorNode(
                node_id=node_id,
                position=self.deployment.position_of(node_id),
                behavior=behavior,
                sensing=sensing,
                ch_id=-1,  # set when a head is installed
                rng=self.sim.streams.get(f"node-{node_id}"),
                region=region,
            )
            # Smart adversaries track their own TI from CH broadcasts;
            # under the baseline there is no TI to track (§4.2 context).
            node.feedback_enabled = self.use_trust
            self.nodes[node_id] = node
            self.channel.register(node)

        self.generator = EventGenerator(
            region,
            self.sim.streams.get("events"),
            min_separation=(
                2.0 * self.r_error if self.concurrent_batch > 1 else None
            ),
        )
        if self.rotation is None:
            self.ch = self._install_head(
                self.CH_ID_OFFSET, region.center, self.deployment, {},
                self.nodes,
            )
        else:
            self.bs = BaseStation(
                node_id=self.BS_ID,
                position=Point(-10.0, -10.0),
                trust_params=self.trust_params,
                ch_ti_threshold=self.rotation.leach.ti_threshold,
            )
            self.channel.register(self.bs)
            self.election = LeachElection(
                deployment=self.deployment,
                config=self.rotation.leach,
                energy=EnergyModel(self.deployment.node_ids()),
                rng=self.sim.streams.get("leach"),
                ti_lookup=self.bs.ti_of,
            )
        if self.chaos_plan is not None:
            # Installing the empty plan is a guaranteed no-op (no
            # interceptor, no lifecycle events), so runs constructed with
            # EMPTY_PLAN stay bit-identical to runs with no plan at all.
            self.chaos = ChaosController(
                self.chaos_plan,
                self.sim,
                self.channel,
                node_resolver=self._chaos_endpoint,
                ch_crash=self._chaos_ch_crash,
                ch_recover=self._chaos_ch_recover,
            ).install()
        self.timings["build_s"] = perf_counter() - build_start
        return self

    def _install_head(
        self,
        node_id: int,
        position: Point,
        deployment: Deployment,
        trust: Dict[int, float],
        members: Iterable[int],
        head_class: type = ClusterHead,
    ) -> ClusterHead:
        """Build, register and seed a CH, and re-home its members to it:
        the fixed head, a chaos standby and every elected head."""
        ch = head_class(
            node_id=node_id,
            position=position,
            deployment=deployment,
            config=self._ch_config,
            t_out=self.t_out,
            base_station_id=None if self.bs is None else self.bs.node_id,
            id_allocator=self._decision_ids,
        )
        self.channel.register(ch)
        ch.trust.import_state(trust)
        for member in members:
            self.nodes[member].ch_id = node_id
        return ch

    # ------------------------------------------------------------------
    # Chaos lifecycle (see repro.chaos.plan.ChaosController)
    # ------------------------------------------------------------------
    def _chaos_endpoint(self, node_id: int):
        return self.nodes.get(node_id) or self.channel.node(node_id)

    def _chaos_ch_crash(self, crash: ChCrash) -> None:
        assert self.ch is not None and self.sim is not None
        self.ch.kill()
        spans = self.sim.spans
        if spans.enabled:
            spans.point(
                "chaos.ch-crash", parent=spans.current, ch=self.ch.node_id
            )
        if crash.failover:
            self._promote_standby()

    def _chaos_ch_recover(self, crash: ChCrash) -> None:
        assert self.ch is not None and self.sim is not None
        self.ch.revive()
        spans = self.sim.spans
        if spans.enabled:
            spans.point(
                "chaos.ch-recover", parent=spans.current, ch=self.ch.node_id
            )

    def _promote_standby(self) -> None:
        assert self.ch is not None and self.sim is not None
        assert self.deployment is not None
        retired = self.ch
        self._retired.append(self._head_log(retired))
        standby_id = self.CH_ID_OFFSET + len(self._retired)
        # §3.4: a shadow CH mirrors the active head's trust state, so
        # the promoted standby resumes from the TI table at crash time.
        self.ch = self._install_head(
            standby_id, retired.position, self.deployment,
            retired.trust.export_state(), self.nodes,
        )
        spans = self.sim.spans
        if spans.enabled:
            spans.point(
                "chaos.ch-failover",
                parent=spans.current,
                old=retired.node_id,
                new=standby_id,
            )

    def _make_faulty_behavior(
        self, node_id: int, spec: Optional[FaultSpec] = None
    ) -> NodeBehavior:
        if spec is None:
            spec = self.fault_spec
        coordinator = None
        if spec.level == 2:
            if self._coordinator is None:
                # One pool of collusion cells per run; colluders are
                # assigned to cells round-robin as they are created.
                assert self.sim is not None
                self._coordinator = CollusionCellPool(
                    spec, self._sensing, self.sim.streams.get("collusion")
                )
            coordinator = self._coordinator.assign()
        return make_faulty_behavior(
            spec,
            self._sensing,
            node_id,
            self.trust_params,
            correct_spec=self.correct_spec,
            coordinator=coordinator,
        )

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self, n_rounds: int) -> "SimulationRun":
        """Drive ``n_rounds`` event rounds to completion."""
        if not self._built:
            self.build()
        assert self.sim is not None and self.generator is not None
        if n_rounds <= 0:
            raise ValueError(f"n_rounds must be positive, got {n_rounds}")
        run_start = perf_counter()
        if self.rotation is not None:
            self._run_leaderships(n_rounds)
        else:
            self._run_fixed(n_rounds)
        self.timings["run_s"] = perf_counter() - run_start
        return self

    def _run_fixed(self, n_rounds: int) -> None:
        """Schedule every round (and quiet window) up front, then run."""
        for round_index in range(n_rounds):
            round_time = (round_index + 1) * self.round_interval
            self.sim.at(round_time, self._fire_round, round_index, priority=-1)
            if self.quiet_windows:
                self.sim.at(
                    round_time + self.round_interval / 2.0,
                    self._fire_quiet_window,
                )
        self.sim.run()
        assert self.ch is not None
        self.ch.flush()
        self.sim.run()

    # ------------------------------------------------------------------
    # Rotating leadership (see Rotation)
    # ------------------------------------------------------------------
    def _run_leaderships(self, n_rounds: int) -> None:
        """Fire each round one interval after the last and run until
        just before the next, electing and retiring heads as due."""
        assert self.rotation is not None and self.sim is not None
        sim = self.sim
        interval = self.round_interval
        per_leadership = self.rotation.events_per_leadership
        for _ in range(n_rounds):
            round_index = self._rounds_run
            if round_index % per_leadership == 0:
                self._start_leadership()
            event_time = sim.now + interval
            sim.at(event_time, self._fire_round, round_index, priority=-1)
            sim.run(until=event_time + interval - 0.001)
            self._rounds_run = round_index + 1
            if self._rounds_run % per_leadership == 0:
                self._end_leadership()

    def _start_leadership(self) -> None:
        """Elect this leadership's heads; install each with its shadows."""
        assert self.rotation is not None and self.election is not None
        assert self.bs is not None and self.deployment is not None
        rotation = self.rotation
        result = self.election.run_round()
        # §2: each new CH requests its members' registry state.
        registry = (
            self.bs.table_for_new_ch() if rotation.transfer_trust else {}
        )
        corrupt_heads = tuple(
            host
            for host in result.cluster_heads
            if rotation.corrupt_elected_faulty and host in self._ever_faulty
        )
        shadows: Dict[int, Tuple[int, ...]] = {}
        for host in result.cluster_heads:
            members = result.membership[host]
            member_set = set(members)
            cluster = Deployment(region=self.deployment.region)
            for member in members:
                cluster.add(member, self.deployment.position_of(member))
            trust = {n: v for n, v in registry.items() if n in member_set}
            # The host's own sensor re-homes too; it stays silent while
            # it leads (see _fire_round).
            ch = self._install_head(
                self.CH_ID_OFFSET + host,
                self.deployment.position_of(host),
                cluster,
                trust,
                (*members, host),
                head_class=(
                    CorruptClusterHead if host in corrupt_heads
                    else ClusterHead
                ),
            )
            self.bs.bind_ch(ch.node_id, host_node_id=host)
            self._heads[host] = ch
            shadows[host] = self._appoint_shadows(ch, members, trust)
        membership = {ch: list(m) for ch, m in result.membership.items()}
        self.rounds.append(LeadershipRound(
            result.round_number, result.cluster_heads, membership, shadows,
            result.vetoed, corrupt_heads,
        ))

    def _appoint_shadows(
        self,
        ch: ClusterHead,
        members: List[int],
        trust: Dict[int, float],
    ) -> Tuple[int, ...]:
        """The ``N_SHADOWS`` highest-registry-TI members shadow ``ch``.

        They sit on one mirror of ``ch``, which starts from the trust
        snapshot the head imported.
        """
        assert self.bs is not None and self.deployment is not None
        bs = self.bs
        ranked = sorted(members, key=lambda n: (-bs.ti_of(n), n))
        hosts = ranked[:N_SHADOWS]
        if not hosts:
            return ()
        seats = [
            (self.SHADOW_ID_OFFSET + host, self.deployment.position_of(host))
            for host in hosts
        ]
        mirror = appoint_shadows(
            ch, seats, trust=trust, base_station_id=bs.node_id
        )
        self._mirrors.append(mirror)
        return tuple(seat.node_id for seat in mirror.seats)

    def _end_leadership(self) -> None:
        """Close the heads' windows, ship their tables (§2), retire them."""
        assert self.sim is not None and self.channel is not None
        heads = self._heads
        for ch in heads.values():
            ch.flush()
        self.sim.run()
        for ch in heads.values():
            self._retired.append(self._head_log(ch))
            ch.end_leadership()
            self.channel.unregister(ch.node_id)
        self.sim.run()  # deliver the TI transfers
        for mirror in self._mirrors:
            mirror.dismiss()
        heads.clear()
        self._mirrors.clear()

    def _fire_round(self, round_index: int) -> None:
        self._apply_compromises(round_index)
        assert self.generator is not None and self.sim is not None
        batch = self.generator.next_batch(
            self.concurrent_batch, time=self.sim.now
        )
        self.events.extend(batch)
        nodes = self.nodes
        # A rotating head's host senses through its CH role only.
        leading = self._heads
        spans = self.sim.spans
        for event in batch:
            # The disk query is the physics gate: it keeps exactly the
            # nodes SensingModel.detects accepts (same radius, same
            # correctly-rounded sqrt(dx*dx + dy*dy) <= r_s test), so
            # compose_report does not test it again, and nodes outside
            # it are never asked, so no private RNG stream moves.
            # Neighbour ids come back sorted ascending, matching
            # self.nodes insertion order, so report order -- and hence
            # channel-stream consumption -- follows node order.
            pending = [
                (node, message)
                for node_id in self.deployment.event_neighbors(
                    event.location, self.sensing_radius
                )
                if node_id not in leading
                and (node := nodes.get(node_id)) is not None
                and (message := node.compose_report(event)) is not None
            ]
            if spans.enabled:
                # Root of the causal chain: the ground-truth event.
                self._span_reports(pending, spans.point(
                    "event",
                    event_id=event.event_id,
                    x=event.location.x,
                    y=event.location.y,
                ))
            self._dispatch_reports(pending)
            spans.current = 0

    def _fire_quiet_window(self) -> None:
        # quiet_inert behaviours (e.g. correct nodes with a zero false
        # alarm rate) neither draw from their stream nor report, so
        # skipping the call wholesale is bit-identical to making it.
        pending = [
            (node, message)
            for node in self.nodes.values()
            if not node.behavior.quiet_inert
            and (message := node.compose_false_alarm()) is not None
        ]
        spans = self.sim.spans
        if spans.enabled and pending:
            # False alarms have no ground-truth event; they root under
            # a quiet-window marker so the explain chain names them.
            self._span_reports(
                pending, spans.point("event", event_id=-1, quiet=True)
            )
        self._dispatch_reports(pending)
        spans.current = 0

    def _span_reports(self, pending, root: int) -> None:
        """Span each composed report under ``root`` (composing emits no
        spans) and bind its message id for the radio transmit."""
        spans = self.sim.spans
        spans.current = root
        for node, message in pending:
            spans.bind(
                message.message_id,
                spans.point(
                    "report",
                    parent=root,
                    node=node.node_id,
                    message_id=message.message_id,
                ),
            )

    def _dispatch_reports(self, pending) -> None:
        """Radio-transmit one round's composed reports as a single batch.

        Composing first and transmitting second is bit-identical to the
        per-node compose-and-send interleaving: behaviour draws live on
        per-node streams, channel draws on the ``"channel"`` stream, and
        each stream is still consumed in node order.  All reports of one
        round target the same CH, so they ride ``unicast_batch``; if
        cluster affiliations ever diverge mid-round, fall back to the
        per-message oracle path.
        """
        if not pending:
            return
        assert self.channel is not None
        ch_id = pending[0][0].ch_id
        if all(node.ch_id == ch_id for node, _ in pending):
            self.channel.unicast_batch(
                [node.node_id for node, _ in pending],
                ch_id,
                [message for _, message in pending],
            )
        else:
            for node, message in pending:
                node.send(node.ch_id, message)

    def _apply_compromises(self, round_index: int) -> None:
        for order in self._compromises:
            if order.round_index != round_index:
                continue
            for node_id in order.node_ids:
                node = self.nodes.get(node_id)
                if node is None:
                    continue
                node.compromise(
                    self._make_faulty_behavior(node_id, spec=order.spec)
                )
                self._ever_faulty.add(node_id)
                assert self.sim is not None
                spans = self.sim.spans
                if spans.enabled:
                    spans.point(
                        "harness.compromise",
                        parent=spans.current,
                        node=node_id,
                    )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _head_log(self, ch: ClusterHead) -> HeadLog:
        return HeadLog(
            ch.decisions,
            ch.session.journal_records() if self.journal else [],
            ch.diagnoser.diagnosed if ch.diagnoser is not None else (),
            # The baseline's head-count votes are not trust votes.
            ch.voter.votes_taken if self.use_trust else 0,
        )

    def _head_logs(self) -> List[HeadLog]:
        """Every head this run has had: the retired, then the leading."""
        leading = [self.ch] if self.rotation is None else self._heads.values()
        return self._retired + [self._head_log(ch) for ch in leading]

    def all_decisions(self) -> List[DecisionRecord]:
        """The decision timeline across every CH this run ever had.

        With one head this is exactly its log (the same list object --
        no copy); several heads' logs are merged in time order.  These
        are the heads' own verdicts, before any BS correction.
        """
        return _merged_decisions(self._head_logs())

    def metrics(self) -> RunMetrics:
        """Score the completed run against ground truth."""
        heads = self._head_logs()
        decisions = _merged_decisions(heads)
        quiet_offset = (
            self.round_interval / 2.0 if self.quiet_windows else None
        )
        outcomes, false_positives = score_run(
            self.events,
            decisions if self.bs is None else self._bs_corrected(decisions),
            round_interval=self.round_interval,
            r_error=self.r_error if self.mode == "location" else None,
            quiet_window_offset=quiet_offset,
        )
        if self.bs is not None:
            diagnosed = self.bs.registry.below_threshold(
                REGISTRY_DIAGNOSIS_TI
            )
        else:
            diagnosed = tuple(
                sorted({node for head in heads for node in head.diagnosed})
            )
        n_quiet = len({e.time for e in self.events}) if self.quiet_windows else 0
        return RunMetrics(
            outcomes=outcomes,
            false_positive_decisions=false_positives,
            quiet_windows=n_quiet,
            decisions_total=len(decisions),
            diagnosed_nodes=diagnosed,
            truly_faulty_nodes=tuple(sorted(self._ever_faulty)),
        )

    def _bs_corrected(
        self, decisions: List[DecisionRecord]
    ) -> List[DecisionRecord]:
        """§3.4: where the BS overruled a head, its 2-of-3 vote (with the
        dissenting shadows' location) is the network's answer."""
        assert self.bs is not None
        fixes = {r.decision_id: r for r in self.bs.resolutions}
        return [
            d._replace(occurred=fix.final_verdict,
                       location=fix.final_location or d.location)
            if (fix := fixes.get(d.decision_id)) is not None else d
            for d in decisions
        ]

    def trust_snapshot(self) -> Dict[int, float]:
        """Current TI of every node: the CH's table, or the BS registry."""
        if self.bs is not None:
            return self.bs.registry.tis()
        assert self.ch is not None
        return self.ch.trust.tis()

    def session_journal(self) -> List[Dict[str, object]]:
        """Every decided window's raw inputs, across the run's CHs.

        Requires ``journal=True``.  One JSON-serialisable record per
        closed window in close order (see
        :meth:`repro.service.session.TrustSession.journal_records`);
        feeding them through ``TrustSession.replay_window`` on a fresh
        session reproduces the run's trust state bit for bit.  With more
        than one head (a chaos failover, or rotation) the segments
        concatenate per head -- replay must mirror the trust hand-off
        between segments itself.
        """
        if not self.journal:
            raise RuntimeError(
                "run was built without journal=True; nothing recorded"
            )
        return [
            record for head in self._head_logs() for record in head.journal
        ]

    # ------------------------------------------------------------------
    # Observability export
    # ------------------------------------------------------------------
    def config_dict(self) -> Dict[str, object]:
        """The run's full configuration as a JSON-serialisable dict."""
        return {
            "mode": self.mode,
            "n_nodes": self.n_nodes,
            "field_side": self.field_side,
            "sensing_radius": self.sensing_radius,
            "r_error": self.r_error,
            "lam": self.trust_params.lam,
            "fault_rate": self.trust_params.fault_rate,
            "use_trust": self.use_trust,
            "correct_spec": asdict(self.correct_spec),
            "fault_spec": asdict(self.fault_spec),
            "faulty_ids": list(self.initial_faulty),
            "channel_loss": self.channel_loss,
            "t_out": self.t_out,
            "round_interval": self.round_interval,
            "quiet_windows": self.quiet_windows,
            "diagnosis_threshold": self.diagnosis_threshold,
            "concurrent_batch": self.concurrent_batch,
            "seed": self.seed,
            "chaos_plan": (
                None if self.chaos_plan is None
                else self.chaos_plan.to_dict()
            ),
            "rotation": (
                None if self.rotation is None else asdict(self.rotation)
            ),
        }

    def instruments(self) -> List[Dict[str, object]]:
        """The run's counts as metrics records, sorted by name: the
        ``metrics.jsonl`` lines and the ``trace`` table.

        Each record reads one tally the run keeps anyway: the
        channel's ``sent`` / ``delivered`` / ``drops``, the chaos
        controller's ``counts``, every head's log (retired heads
        included; a shadow mirror is no head) and the simulator's
        ``events_fired`` and ``pending``.  ``trust.vote.margin`` reads
        the buffered ``trust.vote`` spans, so only a run that collects
        spans has it, and it counts fewer votes than ``trust.votes``
        once the collector has evicted some.  Per-reason drops, chaos
        faults, diagnoses and votes are left out while zero.  Only
        meaningful after :meth:`run`.
        """
        assert self.sim is not None and self.channel is not None
        channel = self.channel
        heads = self._head_logs()
        decided = sum(len(head.decisions) for head in heads)
        occurred = sum(
            1 for head in heads for d in head.decisions if d.occurred
        )
        counters = {
            "radio.sent": channel.sent,
            "radio.delivered": channel.delivered,
            "radio.dropped": channel.dropped,
            "ch.decision.occurred": occurred,
            "ch.decision.rejected": decided - occurred,
        }
        tallies = {f"radio.drop.{why}": n for why, n in channel.drops.items()}
        if self.chaos is not None:
            tallies.update(
                (f"chaos.{fault}", n) for fault, n in self.chaos.counts.items()
            )
        tallies["ch.diagnosis"] = sum(len(head.diagnosed) for head in heads)
        tallies["trust.votes"] = sum(head.votes for head in heads)
        counters.update((name, n) for name, n in tallies.items() if n)
        return metrics_records(
            counters,
            {
                "des.events_fired": self.sim.events_fired,
                "des.queue_depth": self.sim.pending,
            },
            {
                "trust.vote.margin": [
                    abs(vote.args["cti_r"] - vote.args["cti_nr"])
                    for vote in self.spans.spans("trust.vote")
                ],
            },
        )

    def export_artifacts(self, out_dir) -> Dict[str, Path]:
        """Serialise the run's observability state to ``out_dir``.

        Writes ``manifest.json`` and ``metrics.jsonl`` (see
        :mod:`repro.obs.export` for the schemas and :meth:`instruments`
        for the records); runs created with ``journal=True`` add
        ``session_journal.jsonl``, and runs created with ``spans=True``
        their event log, ``spans.jsonl``, with ``provenance.jsonl`` and
        ``spans_chrome.json``.  Only meaningful after :meth:`run`.
        """
        assert self.sim is not None
        out = Path(out_dir)
        counts = {
            "events": len(self.events),
            "decisions": len(self.all_decisions()),
            "events_fired": self.sim.events_fired,
        }
        if self.spans.enabled:
            counts["spans_emitted"] = self.spans.emitted
            counts["spans_evicted"] = self.spans.evicted
        manifest = build_manifest(
            kind="simulation-run",
            config=self.config_dict(),
            seed=self.seed,
            timings=self.timings,
            counts=counts,
        )
        paths = {
            "manifest": write_json(out / "manifest.json", manifest),
            "metrics": write_jsonl(out / "metrics.jsonl", self.instruments()),
        }
        if self.journal:
            paths["session_journal"] = write_jsonl(
                out / "session_journal.jsonl", self.session_journal()
            )
        if self.spans.enabled:
            # Each file reads the records afresh, so no two of the
            # dump, the index and the Chrome document live at once.
            paths["spans"] = write_jsonl(
                out / "spans.jsonl", self.spans.to_records()
            )
            paths["provenance"] = write_jsonl(
                out / "provenance.jsonl",
                ProvenanceIndex(self.spans.to_records()).to_records(),
            )
            paths["spans_chrome"] = write_chrome_trace(
                out / "spans_chrome.json", self.spans
            )
        return paths
