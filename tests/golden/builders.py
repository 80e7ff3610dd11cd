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

from repro.experiments import experiment1, experiment2, experiment3
from repro.experiments.config import (
    Experiment1Config,
    Experiment2Config,
    Experiment3Config,
)
from repro.experiments.experiment4 import Experiment4Config
from repro.experiments import experiment4
from repro.experiments.harness import CorrectSpec, FaultSpec, SimulationRun
from repro.network import messages
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
    # Message, decision, and collection-circle ids draw from
    # process-global streams and land in span args; reset them so the
    # fixture does not depend on what earlier tests in the same process
    # created.
    from repro.clusterctl.head import reset_decision_ids
    from repro.core.concurrent import reset_circle_ids

    messages.reset_message_ids()
    reset_decision_ids()
    reset_circle_ids()
    run = SimulationRun(
        mode="location",
        n_nodes=config.n_nodes,
        field_side=config.field_side,
        deployment_kind="grid",
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


BUILDERS: Dict[str, Callable[[], Dict[str, object]]] = {
    "exp1": build_experiment1,
    "exp2": build_experiment2,
    "exp2_provenance": build_exp2_provenance,
    "exp3": build_experiment3,
    "exp4": build_experiment4,
}
