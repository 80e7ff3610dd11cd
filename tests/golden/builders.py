"""Builders for the golden-run regression fixtures.

Each builder runs ONE fixed-seed point of an experiment -- scaled down
from the paper's full grids so the suite stays fast, but through the
exact production code path (the experiment module's own ``run_point`` /
``run_decay``) -- and returns a JSON document whose every float must
reproduce bit-identically on any later revision.

The documents are normalised through a JSON round-trip before
comparison, so list-vs-tuple differences vanish while float values are
preserved exactly (Python's ``json`` serialises floats via ``repr``,
which round-trips).

Regenerate after an *intentional* behaviour change with::

    make golden-save        # runs python -m tests.golden.generate

and commit the diff; ``tests/integration/test_golden_runs.py`` fails on
any unintentional drift.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Callable, Dict

import numpy as np

from repro.chaos.campaign import CampaignConfig
from repro.chaos.invariants import run_fingerprint
from repro.chaos.plan import FaultPlan, builtin_plans
from repro.experiments import experiment1, experiment2, experiment3
from repro.experiments.config import (
    Experiment1Config,
    Experiment2Config,
    Experiment3Config,
)
from repro.clusterctl.leach import LeachConfig
from repro.experiments.experiment4 import Experiment4Config
from repro.experiments import experiment4
from repro.experiments.harness import Rotation, SimulationRun
from repro.sensors.specs import CorrectSpec, FaultSpec
from repro.obs.provenance import ProvenanceIndex


def _normalise(doc: Dict[str, object]) -> Dict[str, object]:
    """JSON round-trip: tuples become lists, floats stay bit-exact."""
    return json.loads(json.dumps(doc))


def build_experiment1() -> Dict[str, object]:
    """Fig. 2 point: binary, 60% faulty, trial 0, 40 events."""
    config = replace(Experiment1Config(), events_per_run=40)
    point, trial = 60.0, 0
    return _normalise({
        "experiment": 1,
        "point": point,
        "trial": trial,
        "config": {
            "n_nodes": config.n_nodes,
            "events_per_run": config.events_per_run,
            "seed": config.seed,
            "lam": config.lam,
        },
        "accuracy": experiment1.run_point(config, point, trial),
    })


def build_experiment2() -> Dict[str, object]:
    """Fig. 4 point: location, level 0, 30% faulty, trial 0, 36 nodes."""
    config = replace(
        Experiment2Config(), n_nodes=36, field_side=60.0, events_per_run=25
    )
    point, trial = 30.0, 0
    return _normalise({
        "experiment": 2,
        "point": point,
        "trial": trial,
        "config": {
            "n_nodes": config.n_nodes,
            "events_per_run": config.events_per_run,
            "seed": config.seed,
            "lam": config.lam,
            "fault_level": config.fault_level,
        },
        "accuracy": experiment2.run_point(config, point, trial),
    })


def build_exp2_provenance() -> Dict[str, object]:
    """The exp2 golden point rerun with spans: one diagnosis's chain.

    Same config, seed, and faulty draw as :func:`build_experiment2`,
    but through a span-collecting :class:`SimulationRun` with a
    diagnosis threshold (exp2 proper never diagnoses), so the fixture
    freezes the *causal provenance* of the first decision that
    diagnosed a node -- every evidence hop, vote input, and trust
    transition, byte for byte.  Drift here means the explanation layer
    changed what it records, not just that a number moved.
    """
    config = replace(
        Experiment2Config(), n_nodes=36, field_side=60.0, events_per_run=25
    )
    point, trial = 30.0, 0
    seed = config.seed + 104729 * trial + int(10 * point)
    rng = np.random.default_rng(seed)
    faulty_ids = rng.choice(
        config.n_nodes, size=config.n_faulty(point), replace=False
    )
    run = SimulationRun(
        mode="location",
        n_nodes=config.n_nodes,
        field_side=config.field_side,
        sensing_radius=config.sensing_radius,
        r_error=config.r_error,
        lam=config.lam,
        fault_rate=config.fault_rate,
        use_trust=config.use_trust,
        correct_spec=CorrectSpec(sigma=config.sigma_correct),
        fault_spec=FaultSpec(
            level=config.fault_level,
            drop_rate=config.faulty_drop_rate,
            sigma=config.sigma_faulty,
            lower_ti=config.lower_ti,
            upper_ti=config.upper_ti,
        ),
        faulty_ids=faulty_ids,
        channel_loss=config.channel_loss,
        diagnosis_threshold=0.3,
        seed=seed,
        spans=True,
    )
    run.run(config.events_per_run)
    prov = ProvenanceIndex(run.spans.to_records())
    chain = None
    for decision_id in prov.decision_ids():
        record = prov.decision_provenance(decision_id)
        if record["diagnoses"]:
            chain = record
            break
    assert chain is not None, "golden point produced no diagnosis"
    return _normalise({
        "experiment": 2,
        "point": point,
        "trial": trial,
        "config": {
            "n_nodes": config.n_nodes,
            "events_per_run": config.events_per_run,
            "seed": seed,
        },
        "spans_emitted": run.spans.emitted,
        "decisions_indexed": len(prov.decision_ids()),
        "provenance": chain,
    })


def build_experiment3() -> Dict[str, object]:
    """Fig. 8 decay, trial 0: 36 nodes, 10-event windows, 5 steps."""
    config = replace(
        Experiment3Config(),
        n_nodes=36,
        field_side=60.0,
        events_per_step=10,
        initial_percent=10.0,
        step_percent=10.0,
        final_percent=50.0,
    )
    trial = 0
    return _normalise({
        "experiment": 3,
        "trial": trial,
        "config": {
            "n_nodes": config.n_nodes,
            "events_per_step": config.events_per_step,
            "n_steps": config.n_steps,
            "seed": config.seed,
        },
        "windows": experiment3.run_decay(config, trial),
    })


def build_experiment4() -> Dict[str, object]:
    """Rotating network: 30% faulty, trial 0, trust + hand-off."""
    config = Experiment4Config(
        n_nodes=36,
        field_side=60.0,
        events_per_leadership=5,
        leadership_rounds=3,
    )
    point, trial = 30.0, 0
    return _normalise({
        "experiment": 4,
        "point": point,
        "trial": trial,
        "config": {
            "n_nodes": config.n_nodes,
            "events_per_leadership": config.events_per_leadership,
            "leadership_rounds": config.leadership_rounds,
            "seed": config.seed,
        },
        "accuracy": experiment4.run_point(
            config, point, trial, use_trust=True, transfer_trust=True
        ),
    })


#: ``exp4_rotation``'s runs: name -> (``run()`` calls, overrides).  One
#: lossy level-1 run driven by two ``run()`` calls, a level-2 amnesia
#: run, corrupt elected heads the base station deposes, and the baseline.
ROTATING_RUNS: Dict[str, tuple] = {
    "lossy_level1": (
        (12, 24), dict(level=1, faulty_count=15, channel_loss=0.008),
    ),
    "level2_amnesia": (
        (24,), dict(level=2, faulty_count=18, transfer_trust=False),
    ),
    "corrupt_heads": (
        (36,), dict(level=0, faulty_count=15, seed=11,
                    corrupt_elected_faulty=True),
    ),
    "baseline": ((24,), dict(level=0, faulty_count=15, use_trust=False)),
}


def rotating_run(
    level: int,
    faulty_count: int,
    seed: int = 31,
    channel_loss: float = 0.0,
    use_trust: bool = True,
    transfer_trust: bool = True,
    corrupt_elected_faulty: bool = False,
    **overrides,
) -> SimulationRun:
    """A 49-node rotating network: 6-event leaderships, LEACH P = 0.08."""
    rng = np.random.default_rng(seed + 7)
    faulty = tuple(
        int(x) for x in rng.choice(49, size=faulty_count, replace=False)
    )
    kwargs = dict(
        n_nodes=49,
        field_side=70.0,
        sensing_radius=20.0,
        r_error=5.0,
        use_trust=use_trust,
        correct_spec=CorrectSpec(sigma=1.6),
        fault_spec=FaultSpec(level=level, drop_rate=0.25, sigma=4.25),
        faulty_ids=faulty,
        channel_loss=channel_loss,
        quiet_windows=False,
        seed=seed,
        rotation=Rotation(
            leach=LeachConfig(ch_fraction=0.08, ti_threshold=0.5),
            events_per_leadership=6,
            transfer_trust=transfer_trust,
            corrupt_elected_faulty=corrupt_elected_faulty,
        ),
    )
    kwargs.update(overrides)
    return SimulationRun(**kwargs)


def _xy(point) -> object:
    return None if point is None else [point.x, point.y]


def _registry_bits(run: SimulationRun) -> list:
    registry = run.bs.registry
    return [
        [node, v, registry.ti(node)]
        for node, v in sorted(registry.export_state().items())
    ]


def rotating_document(run: SimulationRun) -> Dict[str, object]:
    """Every rotating-run field a refactor must keep bit for bit."""
    metrics = run.metrics()
    return {
        "accuracy": metrics.accuracy,
        "metrics": {
            "outcomes": [
                [o.event_id, o.time, _xy(o.location), o.detected,
                 o.localisation_error]
                for o in metrics.outcomes
            ],
            "false_positive_decisions": metrics.false_positive_decisions,
            "quiet_windows": metrics.quiet_windows,
            "decisions_total": metrics.decisions_total,
            "diagnosed_nodes": metrics.diagnosed_nodes,
            "truly_faulty_nodes": metrics.truly_faulty_nodes,
        },
        "registry": _registry_bits(run),
        "decisions": [
            [d.decision_id, d.time, d.occurred, _xy(d.location),
             d.supporters, d.dissenters]
            for d in run.all_decisions()
        ],
        "leaderships": [
            {
                "round": record.round_number,
                "heads": record.cluster_heads,
                "membership": sorted(record.membership.items()),
                "shadows": sorted(record.shadows.items()),
                "vetoed": record.vetoed,
                "corrupt_heads": record.corrupt_heads,
            }
            for record in run.rounds
        ],
        "resolutions": [
            [r.decision_id, r.ch_id, r.final_verdict, _xy(r.final_location)]
            for r in run.bs.resolutions
        ],
        "events": [
            [e.event_id, e.time, _xy(e.location)] for e in run.events
        ],
    }


def build_exp4_rotation() -> Dict[str, object]:
    """The rotating network beyond one accuracy: four small runs.

    Pins what ``exp4.json``'s single float cannot: LEACH heads and
    membership, shadow appointments, base-station resolutions and
    registry, the decision timeline and the event times.  The first run
    is driven by two ``run()`` calls and also records its state between
    them.
    """
    doc: Dict[str, object] = {}
    for name, (calls, overrides) in ROTATING_RUNS.items():
        run = rotating_run(**overrides)
        between = []
        for n_rounds in calls:
            run.run(n_rounds)
            between.append({
                "leaderships": len(run.rounds),
                "decisions": len(run.all_decisions()),
                "registry": _registry_bits(run),
            })
        doc[name] = {
            "calls": calls,
            "between_calls": between[:-1],
            **rotating_document(run),
        }
    assert doc["corrupt_heads"]["resolutions"], "no corrupt head deposed"
    return _normalise(doc)


def _chaos_entry(run: SimulationRun) -> Dict[str, object]:
    """One chaos run's outcome, its radio and chaos tallies, and how far
    it drew on the ``"channel"`` and ``"chaos"`` streams."""
    return {
        "fingerprint": run_fingerprint(run),
        "channel": [run.channel.sent, run.channel.delivered,
                    run.channel.dropped],
        "counters": {
            record["name"]: record["value"]
            for record in run.instruments()
            if record["name"].startswith(("radio.", "chaos."))
        },
        "streams": {
            name: run.sim.streams.get(name).bit_generator.state
            for name in ("channel", "chaos")
        },
    }


def build_chaos() -> Dict[str, object]:
    """Chaos runs: every builtin plan through the interceptor.

    The binary half is the 10-node CLI campaign shape (plus the
    ``random:1`` plan) at two seeds; the location half runs each
    builtin plan on a lossy 36-node grid, so burst loss, delays,
    duplicates and partitions meet natural drops and CH broadcasts.
    """
    config = CampaignConfig(n_rounds=12, diagnosis_threshold=0.3)
    plans = list(builtin_plans(config.horizon, config.n_nodes).values())
    plans.append(FaultPlan.random(1, config.n_nodes, config.horizon))
    binary: Dict[str, object] = {}
    for plan in plans:
        for seed in (0, 1):
            run = SimulationRun(
                mode=config.mode,
                n_nodes=config.n_nodes,
                field_side=config.field_side,
                sensing_radius=config.sensing_radius,
                faulty_ids=config.faulty_ids(),
                t_out=config.t_out,
                round_interval=config.round_interval,
                diagnosis_threshold=config.diagnosis_threshold,
                seed=config.base_seed + seed,
                chaos_plan=plan,
            ).run(config.n_rounds)
            binary[f"{plan.name}/{seed}"] = _chaos_entry(run)

    location: Dict[str, object] = {}
    for name, plan in builtin_plans(config.horizon, 36).items():
        run = SimulationRun(
            mode="location",
            n_nodes=36,
            field_side=60.0,
            faulty_ids=range(0, 36, 5),
            channel_loss=0.1,
            diagnosis_threshold=0.3,
            seed=17,
            chaos_plan=plan,
        ).run(config.n_rounds)
        location[name] = _chaos_entry(run)
    return _normalise({"binary": binary, "location": location})


BUILDERS: Dict[str, Callable[[], Dict[str, object]]] = {
    "chaos": build_chaos,
    "exp1": build_experiment1,
    "exp2": build_experiment2,
    "exp2_provenance": build_exp2_provenance,
    "exp3": build_experiment3,
    "exp4": build_experiment4,
    "exp4_rotation": build_exp4_rotation,
}
