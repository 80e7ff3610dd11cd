"""Campaign runner: a ``plan x seed`` grid of chaos-injected runs.

A campaign fans a set of :class:`~repro.chaos.plan.FaultPlan` timelines
across a seed grid, runs every ``(plan, seed)`` cell as an independent
simulation over the existing sweep worker pool, checks the runtime
invariants on each completed run, and collects one
:class:`CampaignResult` per cell -- including the run's replay
fingerprint, so two executions of the same campaign (any worker count)
can be compared byte for byte.

Exposed on the CLI as ``tibfit-repro chaos``; see ``docs/chaos.md``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos.invariants import InvariantChecker, run_fingerprint
from repro.chaos.plan import FaultPlan, builtin_plans
from repro.experiments.harness import SimulationRun
from repro.experiments.runner import ProgressFn, SweepTask, run_sweep
from repro.obs.export import build_manifest, write_json, write_jsonl


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of every run in a campaign (one cell = one simulation).

    Attributes
    ----------
    mode / n_nodes / field_side / sensing_radius:
        Passed straight to :class:`SimulationRun`.  The binary default
        uses a field-covering radius so every node neighbours every
        event (Experiment 1's setup).
    n_rounds:
        Event rounds per run; the plan horizon is
        ``(n_rounds + 1) * round_interval``.
    fault_fraction:
        Fraction of nodes made faulty from the start (ids ``0..k-1``).
    diagnosis_threshold:
        Enables CH-side isolation when set.
    base_seed:
        Offset added to every cell seed, so whole campaigns can be
        re-seeded without renaming their plans.
    """

    mode: str = "binary"
    n_nodes: int = 10
    n_rounds: int = 20
    field_side: float = 100.0
    sensing_radius: float = 150.0
    round_interval: float = 10.0
    t_out: float = 1.0
    fault_fraction: float = 0.2
    diagnosis_threshold: Optional[float] = None
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rounds <= 0:
            raise ValueError("n_rounds must be positive")
        if not 0.0 <= self.fault_fraction <= 1.0:
            raise ValueError("fault_fraction must be in [0, 1]")

    @property
    def horizon(self) -> float:
        """Plan-design horizon: past the last round's quiet window."""
        return (self.n_rounds + 1) * self.round_interval

    def faulty_ids(self) -> Tuple[int, ...]:
        return tuple(range(int(self.fault_fraction * self.n_nodes)))


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one ``(plan, seed)`` campaign cell."""

    plan: str
    seed: int
    fingerprint: str
    accuracy: float
    false_positive_rate: float
    decisions: int
    events: int
    dropped: int
    diagnosed: Tuple[int, ...]
    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every runtime invariant held."""
        return not self.violations

    def to_record(self) -> Dict[str, object]:
        record = asdict(self)
        record["diagnosed"] = list(self.diagnosed)
        record["violations"] = list(self.violations)
        record["ok"] = self.ok
        return record


def build_campaign_run(
    config: CampaignConfig, plan: FaultPlan, seed: int
) -> SimulationRun:
    """One un-run simulation for a campaign cell (also the replay hook)."""
    return SimulationRun(
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
    )


def run_campaign_point(
    config: CampaignConfig, plan: FaultPlan, seed: int
) -> CampaignResult:
    """Run one cell, check invariants, and summarise.

    Module-level and pure in its arguments, so it pickles across the
    sweep pool boundary and its result is independent of where it runs.
    """
    run = build_campaign_run(config, plan, seed)
    run.run(config.n_rounds)
    violations = InvariantChecker().check_run(run)
    metrics = run.metrics()
    assert run.channel is not None
    return CampaignResult(
        plan=plan.name,
        seed=seed,
        fingerprint=run_fingerprint(run),
        accuracy=metrics.accuracy,
        false_positive_rate=metrics.false_positive_rate,
        decisions=metrics.decisions_total,
        events=len(run.events),
        dropped=run.channel.dropped,
        diagnosed=metrics.diagnosed_nodes,
        violations=tuple(str(v) for v in violations),
    )


def resolve_plans(
    names: Sequence[str], config: CampaignConfig
) -> List[FaultPlan]:
    """Map CLI plan selectors to plans.

    Each selector is a builtin name (see
    :func:`~repro.chaos.plan.builtin_plans`), a path to a plan JSON
    file, or ``random:<seed>`` for a seeded arbitrary plan.
    """
    builtins = builtin_plans(config.horizon, config.n_nodes)
    plans: List[FaultPlan] = []
    for name in names:
        if name in builtins:
            plans.append(builtins[name])
        elif name.startswith("random:"):
            plans.append(
                FaultPlan.random(
                    seed=int(name.split(":", 1)[1]),
                    n_nodes=config.n_nodes,
                    horizon=config.horizon,
                )
            )
        elif Path(name).exists():
            plans.append(FaultPlan.load(name))
        else:
            raise ValueError(
                f"unknown plan {name!r}: not a builtin "
                f"({', '.join(sorted(builtins))}), not 'random:<seed>', "
                "and no such file"
            )
    return plans


def run_campaign(
    plans: Sequence[FaultPlan],
    seeds: Sequence[int],
    config: Optional[CampaignConfig] = None,
    *,
    workers: int = 1,
    progress: Optional[ProgressFn] = None,
) -> List[CampaignResult]:
    """Run the full ``plan x seed`` grid, in grid order.

    Results come back in ``(plan, seed)`` iteration order regardless of
    worker count -- the same bit-identity contract as
    :func:`~repro.experiments.runner.run_sweep`.
    """
    if config is None:
        config = CampaignConfig()
    tasks = [
        SweepTask(
            fn=run_campaign_point,
            args=(config, plan, seed),
            point=float(plan_index),
            trial=seed,
        )
        for plan_index, plan in enumerate(plans)
        for seed in seeds
    ]
    return run_sweep(tasks, workers=workers, progress=progress)


def summarise(results: Sequence[CampaignResult]) -> str:
    """A fixed-width console table, one line per campaign cell."""
    lines = [
        f"{'plan':<14} {'seed':>4} {'acc':>6} {'fpr':>6} "
        f"{'dec':>4} {'drop':>5} {'inv':>4}  fingerprint",
        "-" * 72,
    ]
    for r in results:
        lines.append(
            f"{r.plan:<14} {r.seed:>4} {r.accuracy:>6.3f} "
            f"{r.false_positive_rate:>6.3f} {r.decisions:>4} "
            f"{r.dropped:>5} {'ok' if r.ok else 'FAIL':>4}  "
            f"{r.fingerprint[:16]}"
        )
    bad = sum(1 for r in results if not r.ok)
    lines.append("-" * 72)
    lines.append(
        f"{len(results)} cells, {bad} with invariant violations"
    )
    return "\n".join(lines)


def export_campaign(
    results: Sequence[CampaignResult],
    plans: Sequence[FaultPlan],
    config: CampaignConfig,
    out_dir,
) -> Dict[str, Path]:
    """Write ``manifest.json``, ``results.jsonl`` and the plan files."""
    out = Path(out_dir)
    manifest = build_manifest(
        kind="chaos-campaign",
        config=asdict(config),
        seed=config.base_seed,
        timings={},
        counts={
            "cells": len(results),
            "plans": len(plans),
            "violations": sum(len(r.violations) for r in results),
        },
    )
    paths = {
        "manifest": write_json(out / "manifest.json", manifest),
        "results": write_jsonl(
            out / "results.jsonl", [r.to_record() for r in results]
        ),
    }
    for plan in plans:
        paths[f"plan:{plan.name}"] = plan.save(
            out / "plans" / f"{plan.name}.json"
        )
    return paths
