"""The runtime invariant checker: green on healthy runs, and it
actually catches injected bugs (the checker is itself under test)."""

import pytest

from repro.chaos.invariants import (
    InvariantChecker,
    InvariantViolationError,
    run_fingerprint,
)
from repro.chaos.plan import EMPTY_PLAN, FaultPlan, NodeOutage
from repro.experiments.harness import SimulationRun


def make_run(**overrides):
    kwargs = dict(
        mode="binary",
        n_nodes=8,
        field_side=30.0,
        sensing_radius=100.0,
        faulty_ids=(0, 1),
        channel_loss=0.0,
        diagnosis_threshold=0.3,
        seed=11,
    )
    kwargs.update(overrides)
    return SimulationRun(**kwargs)


class TestHealthyRuns:
    def test_green_on_plain_run(self):
        run = make_run().run(10)
        assert InvariantChecker().check_run(run) == []

    def test_green_on_chaos_run(self):
        plan = FaultPlan(outages=(NodeOutage(node_id=2, start=30.0),))
        run = make_run(chaos_plan=plan).run(10)
        assert InvariantChecker().check_run(run) == []

    def test_green_on_spanned_chaos_run(self):
        plan = FaultPlan(outages=(NodeOutage(node_id=2, start=30.0),))
        run = make_run(chaos_plan=plan, spans=True).run(10)
        assert run.spans.spans("chaos.crash")
        assert InvariantChecker().check_run(run) == []

    def test_assert_run_passes_silently(self):
        run = make_run().run(5)
        InvariantChecker().assert_run(run)

    def test_check_requires_built_run(self):
        with pytest.raises(ValueError, match="built"):
            InvariantChecker().check_run(make_run())

    def test_install_checks_periodically(self):
        run = make_run().build()
        checker = InvariantChecker()
        timer = checker.install(run, interval=25.0, horizon=100.0)
        run.run(10)  # raises InvariantViolationError on any violation
        assert timer.fired == 4

    def test_install_rejects_unbounded_horizon(self):
        run = make_run().build()
        with pytest.raises(ValueError, match="horizon"):
            InvariantChecker().install(run, interval=25.0, horizon=10.0)


class TestInjectedBugs:
    """Corrupt a real run's state and require the checker to notice."""

    def test_catches_out_of_range_interned_ti(self):
        run = make_run().run(5)
        run.ch.trust.entry(0).ti = 1.5
        violations = InvariantChecker().check_run(run)
        assert any(v.invariant == "ti-range" for v in violations)

    def test_catches_negative_fault_accumulator(self):
        run = make_run().run(5)
        run.ch.trust.entry(0).v = -0.25
        violations = InvariantChecker().check_run(run)
        assert any(v.invariant == "ti-range" for v in violations)

    def test_catches_code_table_desync(self):
        # A stored TI that is in range but disagrees with exp(-lam*v)
        # -- exactly the drift an update that skips the refresh causes.
        run = make_run().run(5)
        run.ch.trust.entry(0).ti = 0.1234
        violations = InvariantChecker().check_run(run)
        assert any(v.invariant == "code-table" for v in violations)

    def test_catches_below_threshold_mismatch(self, monkeypatch):
        run = make_run().run(5)
        monkeypatch.setattr(
            run.ch.trust, "below_threshold", lambda threshold: (99999,)
        )
        violations = InvariantChecker().check_run(run)
        assert any(v.invariant == "below-threshold" for v in violations)

    def test_catches_unsound_diagnosis(self):
        run = make_run().run(5)
        entry = run.ch.diagnoser.log[0] if run.ch.diagnoser.log else None
        # Forge a diagnosis at TI 0.9 -- far above the 0.3 threshold.
        from repro.core.diagnosis import DiagnosisEntry

        run.ch.diagnoser.log.append(
            DiagnosisEntry(node_id=7, time=1.0, ti_at_diagnosis=0.9)
        )
        violations = InvariantChecker().check_run(run)
        assert any(v.invariant == "diagnosis-soundness" for v in violations)
        assert entry is None or entry.ti_at_diagnosis < 0.3

    def test_catches_exclusion_without_a_diagnosis_entry(self):
        # Forge an exclusion the way a state import restores one: the
        # node drops out of every vote with no threshold crossing logged.
        run = make_run(seed=3).run(5)
        diagnoser = run.ch.diagnoser
        logged = {entry.node_id for entry in diagnoser.log}
        victim = next(n for n in range(2, 8) if n not in logged)
        diagnoser.restore([victim])
        assert diagnoser.is_excluded(victim)
        violations = InvariantChecker().check_run(run)
        assert [v.invariant for v in violations] == ["diagnosis-soundness"]
        assert f"node {victim} excluded without a diagnosis entry" in (
            violations[0].detail
        )

    def test_catches_span_stamped_before_its_predecessor(self):
        run = make_run(spans=True).run(5)
        run.spans.attach_clock(lambda: 1.0)  # behind the run's last span
        run.spans.point("late")
        violations = InvariantChecker().check_run(run)
        assert [v.invariant for v in violations] == ["clock-monotonic"]
        assert "'late' at t=1.0" in violations[0].detail

    def test_catches_span_stamped_after_the_clock(self):
        run = make_run(spans=True).run(5)
        ahead = run.sim.now + 1.0
        run.spans.attach_clock(lambda: ahead)
        run.spans.point("early")
        violations = InvariantChecker().check_run(run)
        assert [v.invariant for v in violations] == ["clock-monotonic"]
        assert f"t={ahead}" in violations[0].detail

    def test_catches_time_travelling_decision(self):
        run = make_run().run(5)
        first = run.ch.decisions[0]
        run.ch.decisions.append(first)  # t reverts to the first decision
        violations = InvariantChecker().check_run(run)
        assert any(v.invariant == "decision-order" for v in violations)

    def test_error_carries_structured_violations(self):
        run = make_run().run(5)
        run.ch.trust.entry(0).ti = 2.0
        with pytest.raises(InvariantViolationError) as excinfo:
            InvariantChecker().assert_run(run)
        assert excinfo.value.violations
        assert "ti-range" in str(excinfo.value)


class TestFingerprints:
    def test_same_seed_same_fingerprint(self):
        a = make_run().run(8)
        b = make_run().run(8)
        assert run_fingerprint(a) == run_fingerprint(b)

    def test_different_seed_different_fingerprint(self):
        a = make_run().run(8)
        b = make_run(seed=12).run(8)
        assert run_fingerprint(a) != run_fingerprint(b)

    def test_empty_plan_does_not_change_fingerprint(self):
        a = make_run().run(8)
        b = make_run(chaos_plan=EMPTY_PLAN).run(8)
        assert run_fingerprint(a) == run_fingerprint(b)
