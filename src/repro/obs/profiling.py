"""Opt-in sweep profiling: per-task wall time and phase breakdown.

Set ``TIBFIT_PROFILE=1`` and every :func:`repro.experiments.runner.run_sweep`
task is wrapped in a wall-clock timer plus a **phase breakdown** --
how much of the task sat inside the DES loop, the trust engine's vote
path, the report-clustering heuristic, and the CH decision kernel.  The
breakdown feeds a :class:`SweepProfile`, which aggregates per-point
wall time, worker utilisation and a slowest-point report, and can
serialise itself as a sweep-level manifest next to the per-run
artifacts.

Zero overhead when off
----------------------
Phase timing works by *rebinding* the hot callables
(``Simulator.run``, ``TrustTable.cti_vote``,
``cluster_reports_flat`` and ``DecisionKernel.decide_rows``) to timing
wrappers when :func:`install_phase_timers` runs, and restoring the
originals on :func:`uninstall_phase_timers`.  Nothing is touched when
profiling is off, so the unprofiled hot paths carry no residue -- not
even a flag check.  The wrappers only time; they forward arguments and
results untouched, which is why a profiled sweep is bit-identical to an
unprofiled one (asserted by ``tests/experiments/test_runner.py``).

``trust``, ``clustering`` and ``decision`` time is spent *inside* DES
callbacks, so those phases are subsets of ``des`` (and ``clustering``
is in turn a subset of ``decision``, which wraps the whole window
pipeline); the remainder (radio, sensing, scoring, Python overhead) is
reported as the gap between task wall time and the named phases.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "PROFILE_ENV",
    "SweepProfile",
    "TaskProfile",
    "install_phase_timers",
    "phase_snapshot",
    "profiling_requested",
    "reset_phases",
    "uninstall_phase_timers",
]

PROFILE_ENV = "TIBFIT_PROFILE"

_PHASES = ("des", "trust", "clustering", "decision")

_phase_totals: Dict[str, float] = {name: 0.0 for name in _PHASES}
_installed = False
_originals: List[Tuple[object, str, object]] = []


def profiling_requested(environ=None) -> bool:
    """True when ``TIBFIT_PROFILE`` asks for sweep profiling.

    Empty, ``0``, ``false``, ``no`` and ``off`` (any case) mean off;
    anything else means on.
    """
    if environ is None:
        environ = os.environ
    raw = environ.get(PROFILE_ENV, "").strip().lower()
    return raw not in ("", "0", "false", "no", "off")


def reset_phases() -> None:
    """Zero the per-phase accumulators (call before each task)."""
    for name in _PHASES:
        _phase_totals[name] = 0.0


def phase_snapshot() -> Dict[str, float]:
    """Copy of the per-phase elapsed seconds since the last reset."""
    return dict(_phase_totals)


def _timed(phase: str, fn):
    totals = _phase_totals
    perf_counter = time.perf_counter

    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[phase] += perf_counter() - start

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", phase)
    return wrapper


def _targets():
    """``(owner, attribute, phase)`` for every rebound hot point.

    ``cluster_reports_flat`` is imported *by value* into
    ``repro.core.decision_kernel``, so both the defining module and that
    call site are rebound; anything else holding a stale reference
    simply goes untimed rather than breaking.
    """
    from repro.core import clustering, decision_kernel
    from repro.core.trust import TrustTable
    from repro.simkernel.simulator import Simulator

    return (
        (Simulator, "run", "des"),
        (TrustTable, "cti_vote", "trust"),
        (clustering, "cluster_reports_flat", "clustering"),
        (decision_kernel, "cluster_reports_flat", "clustering"),
        (decision_kernel.DecisionKernel, "decide_rows", "decision"),
    )


def install_phase_timers() -> None:
    """Rebind the phase hot points to timing wrappers (idempotent)."""
    global _installed
    if _installed:
        return
    for owner, attr, phase in _targets():
        original = getattr(owner, attr)
        _originals.append((owner, attr, original))
        setattr(owner, attr, _timed(phase, original))
    _installed = True


def uninstall_phase_timers() -> None:
    """Restore the original hot-point callables (idempotent)."""
    global _installed
    if not _installed:
        return
    while _originals:
        owner, attr, original = _originals.pop()
        setattr(owner, attr, original)
    _installed = False


# ----------------------------------------------------------------------
# Sweep-level aggregation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskProfile:
    """Timing record for one sweep task (picklable across workers)."""

    point: float
    trial: int
    wall_s: float
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def unattributed_s(self) -> float:
        """Wall time outside the DES loop entirely."""
        return max(0.0, self.wall_s - self.phases.get("des", 0.0))


class SweepProfile:
    """Aggregated timing view of one profiled :func:`run_sweep` call."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.tasks: List[TaskProfile] = []
        self.total_wall_s: float = 0.0

    def add(self, task: TaskProfile) -> None:
        self.tasks.append(task)

    # -- aggregations ---------------------------------------------------
    def task_wall_total(self) -> float:
        """Sum of per-task wall time (the work actually done)."""
        return sum(t.wall_s for t in self.tasks)

    def per_point(self) -> Dict[float, float]:
        """Total task wall seconds per sweep point, in point order."""
        out: Dict[float, float] = {}
        for task in self.tasks:
            out[task.point] = out.get(task.point, 0.0) + task.wall_s
        return out

    def phase_totals(self) -> Dict[str, float]:
        """Summed phase seconds across every task."""
        out: Dict[str, float] = {name: 0.0 for name in _PHASES}
        for task in self.tasks:
            for name, elapsed in task.phases.items():
                out[name] = out.get(name, 0.0) + elapsed
        return out

    def utilisation(self) -> float:
        """Fraction of the worker pool's wall-clock capacity doing tasks.

        1.0 means every worker was busy for the sweep's whole duration;
        serial sweeps sit near 1.0 by construction, parallel sweeps
        reveal pool startup and tail-chunk starvation.
        """
        if self.total_wall_s <= 0.0 or self.workers <= 0:
            return 0.0
        return min(
            1.0, self.task_wall_total() / (self.total_wall_s * self.workers)
        )

    def slowest(self, n: int = 5) -> List[TaskProfile]:
        """The ``n`` slowest tasks, slowest first."""
        return sorted(self.tasks, key=lambda t: -t.wall_s)[:n]

    # -- serialisation --------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """A JSON-serialisable sweep summary document."""
        return {
            "tasks": len(self.tasks),
            "workers": self.workers,
            "total_wall_s": self.total_wall_s,
            "task_wall_total_s": self.task_wall_total(),
            "utilisation": self.utilisation(),
            "per_point_wall_s": {
                f"{point:g}": wall for point, wall in self.per_point().items()
            },
            "phase_totals_s": self.phase_totals(),
            "slowest": [
                {
                    "point": t.point,
                    "trial": t.trial,
                    "wall_s": t.wall_s,
                    "phases": dict(t.phases),
                }
                for t in self.slowest()
            ],
        }

    def to_manifest(self) -> Dict[str, object]:
        """A sweep-level manifest embedding the timing summary."""
        from repro.obs.export import build_manifest

        manifest = build_manifest(
            kind="sweep",
            config={"profile": self.summary()},
            seed=0,
            timings={"total_wall_s": self.total_wall_s},
            counts={"tasks": len(self.tasks), "workers": self.workers},
        )
        return manifest

    def render(self) -> str:
        """Terminal-friendly multi-line summary."""
        lines = [
            f"sweep profile: {len(self.tasks)} tasks, "
            f"{self.workers} worker(s), wall {self.total_wall_s:.2f}s, "
            f"utilisation {self.utilisation():.0%}",
        ]
        phases = self.phase_totals()
        task_total = self.task_wall_total()
        lines.append(
            "  phase totals: "
            + ", ".join(
                f"{name} {phases.get(name, 0.0):.2f}s" for name in _PHASES
            )
            + f" (task wall {task_total:.2f}s)"
        )
        lines.append("  per-point wall:")
        for point, wall in self.per_point().items():
            lines.append(f"    point {point:g}: {wall:.2f}s")
        lines.append("  slowest tasks:")
        for task in self.slowest(3):
            phase_bits = ", ".join(
                f"{k} {v:.2f}s" for k, v in sorted(task.phases.items())
            )
            lines.append(
                f"    point {task.point:g} trial {task.trial}: "
                f"{task.wall_s:.2f}s ({phase_bits})"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SweepProfile(tasks={len(self.tasks)}, workers={self.workers}, "
            f"wall={self.total_wall_s:.2f}s)"
        )
