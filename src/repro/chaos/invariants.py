"""Runtime invariant checking for simulation runs.

The paper's correctness claims rest on a handful of structural
invariants that should hold in *every* run, chaos-injected or not:

* **TI range** -- every trust index lies in ``[0, 1]`` and every fault
  accumulator ``v`` is non-negative (``TI = exp(-lam * v)``, §3).
* **Code-table consistency** -- every stored TI equals
  ``exp(-lam * v)`` of its node's accumulator, and ``below_threshold``
  returns exactly the strict-``<`` scan of the node TIs.
* **Clock monotonicity** -- span timestamps never decrease and never
  exceed the simulator clock (the DES contract).  Checked on runs that
  collect spans; a run without them has no event log to check.
* **Decision-timeline sanity** -- CH decisions are recorded in
  non-decreasing time order within the run's horizon.
* **Diagnosis soundness** -- no node is isolated while its TI is at or
  above the diagnosis threshold (§3.5: only sub-threshold nodes are
  cut off), and no node is excluded without a diagnosis log entry.

:class:`InvariantChecker` evaluates all of these post-hoc over a
completed :class:`~repro.experiments.harness.SimulationRun` (pure
reads -- checking never mutates the run), or periodically *inside* a
run via :meth:`InvariantChecker.install`, failing fast at the first
violation.

Replay determinism (CTI verdicts are a pure function of ``(plan,
seed)``) is exposed as :func:`run_fingerprint`: two runs with the same
construction fingerprint identically, byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Sequence

#: Thresholds probed by the below_threshold consistency check, beyond
#: the run's own diagnosis threshold.
DEFAULT_THRESHOLDS = (0.25, 0.5, 0.75, 0.9)


@dataclass(frozen=True)
class Violation:
    """One failed invariant: which one, and what was observed."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


class InvariantViolationError(AssertionError):
    """Raised by the assert/in-run paths; carries the violation list."""

    def __init__(self, violations: Sequence[Violation]) -> None:
        self.violations = tuple(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(
            f"{len(self.violations)} invariant violation(s):\n{lines}"
        )


class InvariantChecker:
    """Evaluates the run invariants; see the module docstring.

    Parameters
    ----------
    thresholds:
        TI thresholds probed by the ``below_threshold`` consistency
        check (the run's diagnosis threshold is always added).
    """

    def __init__(
        self, thresholds: Sequence[float] = DEFAULT_THRESHOLDS
    ) -> None:
        self.thresholds = tuple(thresholds)

    # ------------------------------------------------------------------
    # Individual invariants (each usable standalone)
    # ------------------------------------------------------------------
    def check_trust(
        self, table, extra_thresholds: Iterable[float] = ()
    ) -> List[Violation]:
        """TI range + code-table + below_threshold consistency."""
        out: List[Violation] = []
        tis = table.tis()
        for node_id, ti in tis.items():
            if not 0.0 <= ti <= 1.0:
                out.append(Violation(
                    "ti-range", f"node {node_id} has TI {ti!r} outside [0, 1]"
                ))
        vs = table.export_state()
        params = table.params
        for node_id, v in vs.items():
            if v < 0.0:
                out.append(Violation(
                    "ti-range",
                    f"node {node_id} has accumulator v={v!r} < 0",
                ))
            ti = tis[node_id]
            if 0.0 <= ti <= 1.0 and ti != params.ti_of(v):
                out.append(Violation(
                    "code-table",
                    f"node {node_id}: stored TI {ti!r} != "
                    f"exp(-lam*{v!r}) = {params.ti_of(v)!r}",
                ))
        for threshold in dict.fromkeys(
            (*self.thresholds, *extra_thresholds)
        ):
            reported = table.below_threshold(threshold)
            expected = tuple(sorted(
                node for node, ti in tis.items() if ti < threshold
            ))
            if reported != expected:
                out.append(Violation(
                    "below-threshold",
                    f"below_threshold({threshold}) returned {reported}, "
                    f"flat scan of tis() gives {expected}",
                ))
        return out

    def check_clock(self, sim) -> List[Violation]:
        """Span timestamps are non-decreasing and bounded by ``now``."""
        out: List[Violation] = []
        last = 0.0
        for span in sim.spans:
            if span.time < last:
                out.append(Violation(
                    "clock-monotonic",
                    f"span {span.category!r} at t={span.time} "
                    f"after a span at t={last}",
                ))
            last = max(last, span.time)
        if last > sim.now:
            out.append(Violation(
                "clock-monotonic",
                f"spans reach t={last} beyond the clock ({sim.now})",
            ))
        return out

    def check_decisions(self, decisions, now: float) -> List[Violation]:
        """Decision log is time-ordered and within the run horizon."""
        out: List[Violation] = []
        last = 0.0
        for record in decisions:
            if record.time < last:
                out.append(Violation(
                    "decision-order",
                    f"decision {record.decision_id} at t={record.time} "
                    f"recorded after one at t={last}",
                ))
            last = max(last, record.time)
            if not 0.0 <= record.time <= now:
                out.append(Violation(
                    "decision-order",
                    f"decision {record.decision_id} at t={record.time} "
                    f"outside [0, {now}]",
                ))
        return out

    def check_diagnosis(self, ch) -> List[Violation]:
        """No node isolated while its TI was at/above the threshold, and
        none excluded without a diagnosis log entry."""
        out: List[Violation] = []
        diagnoser = getattr(ch, "diagnoser", None)
        if diagnoser is None:
            return out
        threshold = diagnoser.ti_threshold
        for entry in diagnoser.log:
            if entry.ti_at_diagnosis >= threshold:
                out.append(Violation(
                    "diagnosis-soundness",
                    f"node {entry.node_id} diagnosed at t={entry.time} "
                    f"with TI {entry.ti_at_diagnosis!r} >= threshold "
                    f"{threshold!r}",
                ))
        logged = {entry.node_id for entry in diagnoser.log}
        for node_id in diagnoser.diagnosed:  # the excluded set
            if node_id not in logged:
                out.append(Violation(
                    "diagnosis-soundness",
                    f"node {node_id} excluded without a diagnosis entry",
                ))
        return out

    # ------------------------------------------------------------------
    # Whole-run checks
    # ------------------------------------------------------------------
    def check_run(self, run) -> List[Violation]:
        """Every applicable invariant over a (possibly running) run."""
        if run.ch is None or run.sim is None:
            raise ValueError("run must be built before it can be checked")
        extra = (
            (run.diagnosis_threshold,)
            if run.diagnosis_threshold is not None else ()
        )
        return [
            *self.check_trust(run.ch.trust, extra_thresholds=extra),
            *self.check_clock(run.sim),
            *self.check_decisions(run.all_decisions(), run.sim.now),
            *self.check_diagnosis(run.ch),
        ]

    def assert_run(self, run) -> None:
        """Raise :class:`InvariantViolationError` on any violation."""
        violations = self.check_run(run)
        if violations:
            raise InvariantViolationError(violations)

    def install(self, run, interval: float, horizon: float):
        """Check periodically *inside* the run, failing fast.

        Schedules a repeating simulator timer that re-evaluates every
        invariant and raises at the first violation.  ``horizon`` bounds
        the timer (checks run at ``interval, 2*interval, ...`` up to and
        including ``horizon``) -- an unbounded timer would keep the
        event queue non-empty and ``Simulator.run()`` would never drain.
        The extra timer events change ``events_fired`` (never the RNG
        streams, trust state, or decisions), so install the checker only
        when you want in-flight detection rather than bit-identical
        artifacts.
        """
        if run.sim is None:
            raise ValueError("run must be built before installing a checker")
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if horizon < interval:
            raise ValueError(
                f"horizon ({horizon}) must be at least one interval "
                f"({interval})"
            )
        return run.sim.every(
            interval, self.assert_run, run, count=int(horizon // interval)
        )


# ----------------------------------------------------------------------
# Replay determinism
# ----------------------------------------------------------------------
def run_fingerprint(run) -> str:
    """A digest of everything a replay must reproduce bit-identically.

    Covers the final TI of every node, the full decision timeline
    (times, verdicts, locations, supporter/dissenter sets -- decision
    *ids* stay out, so the digests ``tests/golden/chaos.json`` and the
    CI campaign pin keep their value), the channel's
    sent/delivered/dropped totals, and the ground-truth event stream.  Two runs of the same ``(config, plan, seed)`` must return
    equal fingerprints regardless of process, worker count, or what ran
    before them.
    """
    hasher = hashlib.sha256()
    for node_id, ti in sorted(run.ch.trust.tis().items()):
        hasher.update(f"ti:{node_id}:{ti!r}\n".encode())
    for record in run.all_decisions():
        location = (
            None if record.location is None
            else (record.location.x, record.location.y)
        )
        hasher.update(
            f"d:{record.time!r}:{record.occurred}:{location!r}:"
            f"{record.supporters}:{record.dissenters}\n".encode()
        )
    for event in run.events:
        hasher.update(
            f"e:{event.event_id}:{event.time!r}:"
            f"{event.location.x!r}:{event.location.y!r}\n".encode()
        )
    channel = run.channel
    hasher.update(
        f"c:{channel.sent}:{channel.delivered}:{channel.dropped}\n".encode()
    )
    return hasher.hexdigest()
