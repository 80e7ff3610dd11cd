"""The DES workloads: fixed lists of sweep-point runs, and their paper-shape bands.

Each workload is a fixed list of ``run_point`` / ``run_decay`` calls (one
"task" = one simulation run = one trial at one sweep point), built from
the experiment configs with ``seed`` as every config's seed.  Only the
experiments' public entry points are used, so the benchmark survives a
rewrite of anything beneath them.

``smoke=True`` picks a handful of runs per workload for the self-test;
the bands only apply at full scale.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import mean
from typing import Callable, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

DES_WORKLOADS = ("fig_binary", "fig_location", "rotating")
SERVICE_WORKLOAD = "service_http"
WORKLOADS = DES_WORKLOADS + (SERVICE_WORKLOAD,)


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Exits with an error when the sources are missing (or a different
    copy would be imported), so the benchmark never measures a program
    other than the one beside it.
    """
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import repro from {src}: {exc}")
    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"bench: repro imported from {origin}, not {src}")


#: The median time of :func:`reference` on the 2-vCPU VM the baseline in
#: README.md was recorded on.  DES times are reported at this host speed.
REFERENCE_NOMINAL_S = 0.0035

#: When contention slows :func:`reference` by a factor ``k``, a DES run
#: slows by about ``k ** SPEED_ELASTICITY``: log run time against log
#: probe time had slopes of 0.58-0.72 on two data sets (see README.md).
SPEED_ELASTICITY = 0.65


def speed_scale(reference_s: float, to_s: float = REFERENCE_NOMINAL_S) -> float:
    """Factor taking a time measured while the probe took ``reference_s``
    to a host on which it takes ``to_s``."""
    return (to_s / reference_s) ** SPEED_ELASTICITY


def reference() -> float:
    """A fixed host-speed probe that shares no code with the program.

    Heap, dict, tuple and small-numpy work in the proportions the DES
    uses them.  Timed between a pass's runs, it tracks the minute-scale
    drift in how fast this shared host runs Python (see README.md).
    """
    import numpy as np

    heap: List[Tuple[int, int]] = []
    table: Dict[int, float] = {}
    recent: List[Tuple[int, float]] = []
    total = 0.0
    for i in range(4000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        key = i & 63
        table[key] = table.get(key, 0.0) + i * 0.5
        if len(heap) > 64:
            total += heapq.heappop(heap)[0] * 1e-3
        recent.append((key, total))
        if len(recent) > 256:
            recent = recent[128:]
    values = np.arange(64.0)
    for _ in range(200):
        values = np.sqrt(values * 1.0001 + 1.0)
    return total + float(values[0])


@dataclass(frozen=True)
class Task:
    """One simulation run and what scoring it needs."""

    series: str
    point: float
    trial: int
    events: int
    tibfit: bool
    fn: Callable
    args: tuple

    def run(self) -> float:
        """Run once; the run's accuracy (decay runs: mean over windows)."""
        out = self.fn(*self.args)
        if isinstance(out, list):
            return mean(accuracy for _, accuracy in out)
        return out


def _fig_binary(seed: int, smoke: bool) -> List[Task]:
    from repro.experiments import experiment1
    from repro.experiments.config import Experiment1Config

    # Fig. 2 (NER 0/1/5%, FA 0) then Fig. 3's extra FA 10/75% curves.
    curves = [(0.0, 0.0), (0.01, 0.0), (0.05, 0.0), (0.01, 0.10), (0.01, 0.75)]
    trials = 2
    base = Experiment1Config(seed=seed)
    if smoke:
        curves, trials = [(0.01, 0.0), (0.01, 0.75)], 1
        base = replace(base, percent_faulty_values=(40.0, 70.0, 90.0))
    tasks = []
    for ner, fa in curves:
        for tibfit in (True, False):
            config = replace(
                base,
                correct_ner=ner,
                faulty_false_alarm_rate=fa,
                use_trust=tibfit,
            )
            series = (
                f"NER {100 * ner:g}% FA {100 * fa:g}% "
                + ("TIBFIT" if tibfit else "Baseline")
            )
            for point in config.percent_faulty_values:
                for trial in range(trials):
                    tasks.append(Task(
                        series, point, trial, config.events_per_run, tibfit,
                        experiment1.run_point, (config, point, trial),
                    ))
    return tasks


def _fig_location(seed: int, smoke: bool) -> List[Task]:
    from repro.experiments import experiment2, experiment3
    from repro.experiments.config import Experiment2Config, Experiment3Config

    levels = (0, 1, 2)
    sigma_pairs = ((1.6, 4.25), (2.0, 6.0))
    base = Experiment2Config(seed=seed, percent_faulty_values=(10.0, 40.0, 58.0))
    decay = Experiment3Config(seed=seed, events_per_step=25)
    if smoke:
        levels = (0,)
        base = replace(base, percent_faulty_values=(10.0, 58.0))
        decay = replace(decay, events_per_step=10, final_percent=25.0)
    tasks = []

    def add(config: Experiment2Config, series: str) -> None:
        events = config.events_per_run * (
            config.concurrent_batch if config.concurrent_events else 1
        )
        for point in config.percent_faulty_values:
            tasks.append(Task(
                series, point, 0, events, config.use_trust,
                experiment2.run_point, (config, point, 0),
            ))

    # Figs. 4-6: each fault level, both sigma pairs, TIBFIT and Baseline.
    for level in levels:
        for sigma_c, sigma_f in sigma_pairs:
            for tibfit in (True, False):
                config = replace(
                    base,
                    fault_level=level,
                    sigma_correct=sigma_c,
                    sigma_faulty=sigma_f,
                    use_trust=tibfit,
                )
                add(config, config.legend("TIBFIT" if tibfit else "Baseline"))
    # Fig. 7: concurrent events, level-0 TIBFIT.
    add(replace(base, concurrent_events=True), "Concurrent TIBFIT")
    # Fig. 8: network decay, TIBFIT and Baseline.
    for tibfit in (True, False):
        config = replace(decay, use_trust=tibfit)
        tasks.append(Task(
            "Decay " + ("TIBFIT" if tibfit else "Baseline"),
            config.final_percent, 0, config.total_events, tibfit,
            experiment3.run_decay, (config, 0),
        ))
    return tasks


def _rotating(seed: int, smoke: bool) -> List[Task]:
    from repro.experiments import experiment4
    from repro.experiments.experiment4 import Experiment4Config

    config = Experiment4Config(seed=seed)
    trials = 3
    if smoke:
        config = replace(config, percent_faulty_values=(10.0, 45.0))
        trials = 1
    events = config.leadership_rounds * config.events_per_leadership
    variants = {
        "Rotating TIBFIT": (True, True),
        "Rotating Amnesia": (True, False),
        "Rotating Baseline": (False, True),
    }
    return [
        Task(
            series, point, trial, events, use_trust and transfer,
            experiment4.run_point, (config, point, trial, use_trust, transfer),
        )
        for series, (use_trust, transfer) in variants.items()
        for point in config.percent_faulty_values
        for trial in range(trials)
    ]


BUILDERS = {
    "fig_binary": _fig_binary,
    "fig_location": _fig_location,
    "rotating": _rotating,
}


def des_tasks(workload: str, seed: int, smoke: bool = False) -> List[Task]:
    """The workload's task list (needs :func:`use_checkout_sources`)."""
    return BUILDERS[workload](seed, smoke)


def valid_accuracy(value: object) -> bool:
    """A run's accuracy must be a finite number in [0, 1]."""
    return (
        isinstance(value, float)
        and math.isfinite(value)
        and 0.0 <= value <= 1.0
    )


# ----------------------------------------------------------------------
# Paper-shape bands.  Loosened from benchmarks/test_bench_fig0{2..8}.py and
# test_bench_ext_rotating_sweep.py, and pooled over points, curves or
# trials, until each held at every seed from 0 to 239 with its mean at
# least 4.5 standard deviations above its floor (see README.md).  A single
# sweep point at the benchmark's one or two trials is too noisy to band:
# one binary run at 70% faulty can score 0.59.
# ----------------------------------------------------------------------
def _curve(
    results: Dict[Tuple[str, float, int], float], series: str
) -> Dict[float, float]:
    points: Dict[float, List[float]] = {}
    for (name, point, _), accuracy in results.items():
        if name == series:
            points.setdefault(point, []).append(accuracy)
    return {point: mean(values) for point, values in points.items()}


def _high(curve: Dict[float, float], lo: float = 40.0) -> float:
    return mean(v for p, v in curve.items() if p >= lo)


def bands(
    workload: str, results: Dict[Tuple[str, float, int], float]
) -> List[Tuple[str, float]]:
    """The workload's paper-shape bands as ``(description, margin)``; a
    band holds when its margin (value less floor) is positive."""
    out: List[Tuple[str, float]] = []
    if workload == "fig_binary":
        # At FA 75% false alarms erode the liars' trust so fast that the
        # two systems tie; the Fig 3 band covers that curve.
        for ner, fa in ((0, 0), (1, 0), (5, 0), (1, 10)):
            name = f"NER {ner:g}% FA {fa:g}%"
            tibfit = _curve(results, name + " TIBFIT")
            base = _curve(results, name + " Baseline")
            out.append((
                f"{name}: TIBFIT > Baseline over >=40% faulty",
                _high(tibfit) - _high(base),
            ))
        fig2 = [
            _curve(results, f"NER {ner:g}% FA 0% TIBFIT") for ner in (0, 1, 5)
        ]
        out.append((
            "Fig 2 (NER 0/1/5% pooled): TIBFIT > 0.9 at 40% faulty",
            mean(curve[40.0] for curve in fig2) - 0.9,
        ))
        out.append((
            "Fig 2 (NER 0/1/5% pooled): falls > 0.1 from 40% to 90% faulty",
            mean(curve[40.0] - curve[90.0] for curve in fig2) - 0.1,
        ))
        fa10 = _curve(results, "NER 1% FA 10% TIBFIT")
        fa75 = _curve(results, "NER 1% FA 75% TIBFIT")
        out.append((
            "Fig 3: FA 75% collapses first (below FA 10% over >=80% faulty)",
            _high(fa10, 80.0) - _high(fa75, 80.0),
        ))
    elif workload == "fig_location":
        # Level 2 liars collude, so TIBFIT may trail the Baseline a little.
        for level, floor in ((0, 0.0), (1, 0.0), (2, -0.1)):
            pairs = ("1.6-4.25", "2-6")
            tibfit = [_curve(results, f"Lvl {level} {p} TIBFIT") for p in pairs]
            base = [_curve(results, f"Lvl {level} {p} Baseline") for p in pairs]
            gap = mean(map(_high, tibfit)) - mean(map(_high, base))
            slack = f" - {-floor:g}" if floor else ""
            out.append((
                f"Lvl {level} (both sigma pairs): TIBFIT > Baseline{slack} "
                "over >=40% faulty",
                gap - floor,
            ))
        single = _curve(results, "Lvl 0 1.6-4.25 TIBFIT")
        concurrent = _curve(results, "Concurrent TIBFIT")
        out.append((
            "Fig 7: concurrent tracks single (mean gap < 0.1)",
            0.1 - abs(mean(single.values()) - mean(concurrent.values())),
        ))
        decay_t = mean(_curve(results, "Decay TIBFIT").values())
        decay_b = mean(_curve(results, "Decay Baseline").values())
        out.append(("Fig 8: TIBFIT decay > Baseline decay", decay_t - decay_b))
    elif workload == "rotating":
        tibfit = _curve(results, "Rotating TIBFIT")
        amnesia = _curve(results, "Rotating Amnesia")
        base = _curve(results, "Rotating Baseline")
        out.append((
            "all variants > 0.85 at 10% faulty",
            min(tibfit[10.0], amnesia[10.0], base[10.0]) - 0.85,
        ))
        out.append((
            "TIBFIT > Baseline - 0.02 over >=40% faulty",
            _high(tibfit) - _high(base) + 0.02,
        ))
        out.append((
            "TIBFIT > Amnesia - 0.05 over >=40% faulty",
            _high(tibfit) - _high(amnesia) + 0.05,
        ))
    return out


def accuracy_table(
    tasks: Sequence[Task], accuracies: Sequence[float]
) -> Dict[Tuple[str, float, int], float]:
    """``{(series, point, trial): accuracy}`` for the bands."""
    return {
        (task.series, task.point, task.trial): accuracy
        for task, accuracy in zip(tasks, accuracies)
    }
