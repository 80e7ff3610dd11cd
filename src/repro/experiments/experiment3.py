"""Experiment 3 -- linear decay of the network (§4.3, Figs. 8-9).

"The network is initialized with 5% of the network compromised by
level 0 faulty nodes.  After every 50 events 5% more of the network is
compromised until 75% of the network is compromised."  Accuracy is
plotted over time (event windows); TIBFIT's accumulated state lets it
absorb the growing compromise long after the stateless baseline fails.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.experiments.config import Experiment3Config
from repro.experiments.harness import SimulationRun
from repro.experiments.reporting import Series
from repro.experiments.runner import ProgressFn, SweepTask, run_sweep
from repro.sensors.specs import CorrectSpec, FaultSpec


def run_decay(
    config: Experiment3Config, trial: int
) -> List[Tuple[int, float]]:
    """One decay run; returns ``(window_index, accuracy)`` per 50-event window.

    The compromise order is a fixed random permutation per trial: the
    first 5% are faulty from the start, and each step converts the next
    5% -- matching the paper's cumulative, monotone decay.
    """
    seed = config.seed + 15485863 * trial
    rng = np.random.default_rng(seed)
    order = rng.permutation(config.n_nodes)
    n_initial = round(config.n_nodes * config.initial_percent / 100.0)

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
            level=0,
            drop_rate=config.faulty_drop_rate,
            sigma=config.sigma_faulty,
        ),
        faulty_ids=order[:n_initial],
        channel_loss=config.channel_loss,
        seed=seed,
    )

    per_step = round(config.n_nodes * config.step_percent / 100.0)
    cursor = n_initial
    for step in range(1, config.n_steps + 1):
        batch = order[cursor : cursor + per_step]
        cursor += per_step
        run.schedule_compromise(
            round_index=step * config.events_per_step,
            node_ids=batch,
        )

    run.run(config.total_events)
    return run.metrics().accuracy_over_windows(config.events_per_step)


def decay_series(
    config: Experiment3Config,
    label: str = None,
    *,
    workers: int = 1,
    progress: ProgressFn = None,
) -> Series:
    """Mean accuracy-over-time series across ``config.trials`` runs."""
    if label is None:
        label = config.legend("TIBFIT" if config.use_trust else "Baseline")
    per_trial = run_sweep(
        [
            SweepTask(fn=run_decay, args=(config, t), trial=t)
            for t in range(config.trials)
        ],
        workers=workers,
        progress=progress,
    )
    series = Series(label=label)
    n_windows = min(len(t) for t in per_trial)
    for w in range(n_windows):
        x = (w + 1) * config.events_per_step  # events elapsed
        series.add(x, [t[w][1] for t in per_trial])
    return series


def _decay_figure(
    base: Experiment3Config,
    sigma_pairs: Sequence[Tuple[float, float]],
    workers: int = 1,
) -> Dict[str, Series]:
    out: Dict[str, Series] = {}
    for sigma_c, sigma_f in sigma_pairs:
        for use_trust in (True, False):
            config = replace(
                base,
                sigma_correct=sigma_c,
                sigma_faulty=sigma_f,
                use_trust=use_trust,
            )
            series = decay_series(config, workers=workers)
            out[series.label] = series
    return out


def figure8_data(
    base: Experiment3Config = Experiment3Config(),
    sigma_pairs: Sequence[Tuple[float, float]] = ((1.6, 4.25), (2.0, 4.25)),
    workers: int = 1,
) -> Dict[str, Series]:
    """Fig. 8: decay curves at sigma_faulty 4.25.

    Expected shape: TIBFIT beats the baseline at matched sigma pairs;
    TIBFIT 2.0-4.25 eventually overtakes even baseline 1.6-4.25; and
    TIBFIT holds near 80% accuracy around 60% compromised.
    """
    return _decay_figure(base, sigma_pairs, workers=workers)


def figure9_data(
    base: Experiment3Config = Experiment3Config(),
    sigma_pairs: Sequence[Tuple[float, float]] = ((1.6, 6.0), (2.0, 6.0)),
    workers: int = 1,
) -> Dict[str, Series]:
    """Fig. 9: decay curves at sigma_faulty 6.0 (same expectations)."""
    return _decay_figure(base, sigma_pairs, workers=workers)


def percent_compromised_at(
    config: Experiment3Config, events_elapsed: int
) -> float:
    """Ground-truth compromised percentage after ``events_elapsed`` events."""
    if events_elapsed < 0:
        raise ValueError("events_elapsed must be non-negative")
    step = events_elapsed // config.events_per_step
    return config.percent_at_step(step)
