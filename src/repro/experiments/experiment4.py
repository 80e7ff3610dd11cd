"""Extension experiment 4 -- the rotating network vs. percent faulty.

The paper's experiments fix the data sink; its system model (§2)
rotates it.  This extension sweeps the compromised fraction for the
full rotating multi-cluster network in three configurations:

* ``TIBFIT``   -- rotation with the §2 base-station trust hand-off;
* ``Amnesia``  -- rotation with each new CH starting from blank trust;
* ``Baseline`` -- rotation with majority voting in every CH.

Expected shape: the hand-off configuration dominates; amnesia sits
between TIBFIT and the baseline because each leadership period still
accumulates *some* state before discarding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.clusterctl.leach import LeachConfig
from repro.experiments.harness import Rotation, SimulationRun
from repro.experiments.reporting import Series
from repro.experiments.runner import ProgressFn, SweepTask, run_sweep
from repro.sensors.specs import CorrectSpec, FaultSpec


@dataclass(frozen=True)
class Experiment4Config:
    """Parameters for the rotating-network sweep."""

    n_nodes: int = 100
    field_side: float = 100.0
    sensing_radius: float = 20.0
    r_error: float = 5.0
    lam: float = 0.25
    fault_rate: float = 0.1
    sigma_correct: float = 1.6
    sigma_faulty: float = 4.25
    faulty_drop_rate: float = 0.25
    fault_level: int = 0
    ch_fraction: float = 0.05
    ti_threshold: float = 0.5
    events_per_leadership: int = 8
    leadership_rounds: int = 6
    percent_faulty_values: Tuple[float, ...] = (10.0, 30.0, 45.0, 58.0)
    trials: int = 2
    seed: int = 2005

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.leadership_rounds <= 0:
            raise ValueError("leadership_rounds must be positive")


def run_point(
    config: Experiment4Config,
    percent_faulty: float,
    trial: int,
    use_trust: bool,
    transfer_trust: bool,
) -> float:
    """Accuracy of one rotating-network run at one sweep point."""
    seed = config.seed + 7919 * trial + int(10 * percent_faulty)
    rng = np.random.default_rng(seed)
    n_faulty = round(config.n_nodes * percent_faulty / 100.0)
    faulty = tuple(
        int(x)
        for x in rng.choice(config.n_nodes, size=n_faulty, replace=False)
    )
    run = SimulationRun(
        n_nodes=config.n_nodes,
        field_side=config.field_side,
        sensing_radius=config.sensing_radius,
        r_error=config.r_error,
        lam=config.lam,
        fault_rate=config.fault_rate,
        use_trust=use_trust,
        correct_spec=CorrectSpec(sigma=config.sigma_correct),
        fault_spec=FaultSpec(
            level=config.fault_level,
            drop_rate=config.faulty_drop_rate,
            sigma=config.sigma_faulty,
        ),
        faulty_ids=faulty,
        channel_loss=0.0,
        quiet_windows=False,
        seed=seed,
        rotation=Rotation(
            leach=LeachConfig(
                ch_fraction=config.ch_fraction,
                ti_threshold=config.ti_threshold,
            ),
            events_per_leadership=config.events_per_leadership,
            transfer_trust=transfer_trust,
        ),
    )
    run.run(config.leadership_rounds * config.events_per_leadership)
    return run.metrics().accuracy


def rotating_sweep(
    config: Experiment4Config = Experiment4Config(),
    *,
    workers: int = None,
    progress: ProgressFn = None,
) -> Dict[str, Series]:
    """The three-configuration sweep described in the module docstring.

    All three variants' ``(point, trial)`` grids are flattened into one
    task list so a worker pool stays saturated across variants.
    """
    variants = {
        "Rotating TIBFIT": (True, True),
        "Rotating Amnesia": (True, False),
        "Rotating Baseline": (False, True),
    }
    tasks = [
        SweepTask(
            fn=run_point,
            args=(config, pf, trial, use_trust, transfer),
            point=pf,
            trial=trial,
        )
        for use_trust, transfer in variants.values()
        for pf in config.percent_faulty_values
        for trial in range(config.trials)
    ]
    samples = run_sweep(tasks, workers=workers, progress=progress)
    out: Dict[str, Series] = {}
    cursor = 0
    for label in variants:
        series = Series(label=label)
        for pf in config.percent_faulty_values:
            series.add(pf, samples[cursor : cursor + config.trials])
            cursor += config.trials
        out[label] = series
    return out
