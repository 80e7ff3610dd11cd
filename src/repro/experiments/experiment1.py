"""Experiment 1 -- binary events vs. percentage faulty (§4.1, Figs. 2-3).

A cluster of ten nodes, all event neighbours for every event, level-0
faulty nodes generating missed alarms (Fig. 2) and additionally false
alarms at 0/10/75% (Fig. 3).  One hundred events per run; lambda 0.1;
``f_r`` equal to the correct nodes' NER (Table 1).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Sequence

import numpy as np

from repro.experiments.config import Experiment1Config
from repro.experiments.harness import SimulationRun
from repro.experiments.reporting import Series
from repro.experiments.runner import ProgressFn, sweep_series
from repro.sensors.specs import CorrectSpec, FaultSpec


def run_point(
    config: Experiment1Config, percent_faulty: float, trial: int
) -> float:
    """Accuracy of one run at one sweep point.

    Faulty node identities are drawn uniformly (the paper compromises
    arbitrary nodes, not a spatial block), per-trial.
    """
    seed = config.seed + 7919 * trial + int(percent_faulty)
    n_faulty = config.n_faulty(percent_faulty)
    rng = np.random.default_rng(seed)
    faulty_ids = rng.choice(config.n_nodes, size=n_faulty, replace=False)

    run = SimulationRun(
        mode="binary",
        n_nodes=config.n_nodes,
        field_side=30.0,
        # All nodes are event neighbours for every event (Table 1):
        # a sensing radius covering the whole field guarantees it.
        sensing_radius=100.0,
        r_error=5.0,
        lam=config.lam,
        fault_rate=config.effective_fault_rate,
        use_trust=config.use_trust,
        correct_spec=CorrectSpec(miss_rate=config.correct_ner),
        fault_spec=FaultSpec(
            level=0,
            drop_rate=config.faulty_miss_rate,
            false_alarm_rate=config.faulty_false_alarm_rate,
        ),
        faulty_ids=faulty_ids,
        channel_loss=0.0,  # Experiment 1 isolates the voting model
        seed=seed,
    )
    run.run(config.events_per_run)
    return run.metrics().accuracy


def sweep(
    config: Experiment1Config,
    *,
    workers: int = 1,
    progress: ProgressFn = None,
) -> Series:
    """Accuracy vs. percent faulty for one configuration."""
    label = (
        f"NER {100 * config.correct_ner:g}% "
        f"FA {100 * config.faulty_false_alarm_rate:g}% "
        + ("TIBFIT" if config.use_trust else "Baseline")
    )
    return sweep_series(
        label,
        run_point,
        config,
        config.percent_faulty_values,
        config.trials,
        workers=workers,
        progress=progress,
    )


def figure2_data(
    base: Experiment1Config = Experiment1Config(),
    ner_values: Sequence[float] = (0.0, 0.01, 0.05),
    workers: int = 1,
) -> Dict[str, Series]:
    """Fig. 2: missed alarms only, one curve per correct-node NER.

    Expected shape: over 85% accuracy through ~70% faulty, then a cliff.
    """
    out: Dict[str, Series] = {}
    for ner in ner_values:
        config = replace(
            base, correct_ner=ner, faulty_false_alarm_rate=0.0
        )
        series = sweep(config, workers=workers)
        out[series.label] = series
    return out


def figure3_data(
    base: Experiment1Config = Experiment1Config(),
    false_alarm_values: Sequence[float] = (0.0, 0.10, 0.75),
    ner: float = 0.01,
    workers: int = 1,
) -> Dict[str, Series]:
    """Fig. 3: missed + false alarms, one curve per false-alarm rate.

    Expected shape: the 75% false-alarm curve is best below 80% faulty
    (false alarms erode liars' trust), then collapses; 10% wins at 80%.
    """
    out: Dict[str, Series] = {}
    for fa in false_alarm_values:
        config = replace(
            base, correct_ner=ner, faulty_false_alarm_rate=fa
        )
        series = sweep(config, workers=workers)
        out[series.label] = series
    return out
