"""Experiment 2 -- location determination vs. percentage faulty (§4.2).

100 nodes on a 100x100 grid, single cluster, ``r_error = 5``, lambda
0.25, ``f_r = 0.1``; faulty nodes report with sigma 4.25 or 6.0 against
correct nodes' 1.6 or 2.0 and drop 25% of their packets.  Sweeps 10-58%
compromised for fault levels 0 (Fig. 4), 1 (Fig. 5), 2 (Fig. 6), plus
single-vs-concurrent events under level 0 TIBFIT (Fig. 7).

Series labels follow the paper: ``Lvl M W-Z [TIBFIT or Baseline]``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.experiments.config import Experiment2Config
from repro.experiments.harness import CorrectSpec, FaultSpec, SimulationRun
from repro.experiments.reporting import Series
from repro.experiments.runner import ProgressFn, sweep_series


def run_point(
    config: Experiment2Config, percent_faulty: float, trial: int
) -> float:
    """Accuracy of one run at one sweep point (faulty ids drawn uniformly)."""
    seed = config.seed + 104729 * trial + int(10 * percent_faulty)
    n_faulty = config.n_faulty(percent_faulty)
    rng = np.random.default_rng(seed)
    faulty_ids = rng.choice(config.n_nodes, size=n_faulty, replace=False)

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
        concurrent_batch=(
            config.concurrent_batch if config.concurrent_events else 1
        ),
        seed=seed,
    )
    run.run(config.events_per_run)
    return run.metrics().accuracy


def sweep(
    config: Experiment2Config,
    label: str = None,
    *,
    workers: int = 1,
    progress: ProgressFn = None,
) -> Series:
    """Accuracy vs. percent faulty for one configuration."""
    if label is None:
        label = config.legend("TIBFIT" if config.use_trust else "Baseline")
    return sweep_series(
        label,
        run_point,
        config,
        config.percent_faulty_values,
        config.trials,
        workers=workers,
        progress=progress,
    )


def _level_figure(
    base: Experiment2Config,
    level: int,
    sigma_pairs: Sequence[Tuple[float, float]],
    workers: int = 1,
) -> Dict[str, Series]:
    out: Dict[str, Series] = {}
    for sigma_c, sigma_f in sigma_pairs:
        for use_trust in (True, False):
            config = replace(
                base,
                fault_level=level,
                sigma_correct=sigma_c,
                sigma_faulty=sigma_f,
                use_trust=use_trust,
            )
            series = sweep(config, workers=workers)
            out[series.label] = series
    return out


def figure4_data(
    base: Experiment2Config = Experiment2Config(),
    sigma_pairs: Sequence[Tuple[float, float]] = ((1.6, 4.25), (2.0, 6.0)),
    workers: int = 1,
) -> Dict[str, Series]:
    """Fig. 4: level-0 faulty nodes, TIBFIT vs. baseline.

    Expected shape: systems tie below ~40% compromised; TIBFIT wins by
    7-20 points above and holds near 80% at the top of the sweep.
    """
    return _level_figure(base, level=0, sigma_pairs=sigma_pairs, workers=workers)


def figure5_data(
    base: Experiment2Config = Experiment2Config(),
    sigma_pairs: Sequence[Tuple[float, float]] = ((1.6, 4.25), (2.0, 6.0)),
    workers: int = 1,
) -> Dict[str, Series]:
    """Fig. 5: level-1 (smart independent) faulty nodes.

    Expected shape: TIBFIT stays above ~90% through 58% compromised
    (the trust index forces smart liars to lie less); the baseline falls
    away past 40%.
    """
    return _level_figure(base, level=1, sigma_pairs=sigma_pairs, workers=workers)


def figure6_data(
    base: Experiment2Config = Experiment2Config(),
    sigma_pairs: Sequence[Tuple[float, float]] = ((1.6, 4.25), (2.0, 6.0)),
    workers: int = 1,
) -> Dict[str, Series]:
    """Fig. 6: level-2 (colluding) faulty nodes.

    Expected shape: both systems degrade substantially -- collusion is
    the hardest case -- with TIBFIT still at or above the baseline.
    """
    return _level_figure(base, level=2, sigma_pairs=sigma_pairs, workers=workers)


def figure7_data(
    base: Experiment2Config = Experiment2Config(),
    sigma_pair: Tuple[float, float] = (1.6, 4.25),
    workers: int = 1,
) -> Dict[str, Series]:
    """Fig. 7: single vs. concurrent events, level-0 TIBFIT only.

    Expected shape: the two curves track each other -- "tolerating
    concurrent events does not significantly alter the success of the
    nodes" (§4.2).
    """
    out: Dict[str, Series] = {}
    for concurrent in (False, True):
        config = replace(
            base,
            fault_level=0,
            sigma_correct=sigma_pair[0],
            sigma_faulty=sigma_pair[1],
            use_trust=True,
            concurrent_events=concurrent,
        )
        label = config.legend("TIBFIT") + (
            " Concurrent" if concurrent else " Single"
        )
        out[label] = sweep(config, label=label, workers=workers)
    return out
