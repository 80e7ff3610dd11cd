"""Unit tests for the opt-in sweep profiling hooks."""

import pytest

from repro.obs import profiling
from repro.obs.profiling import (
    SweepProfile,
    TaskProfile,
    install_phase_timers,
    phase_snapshot,
    profiling_requested,
    reset_phases,
    uninstall_phase_timers,
)


class TestEnvSwitch:
    @pytest.mark.parametrize("raw", ["", "0", "false", "No", "OFF", "  "])
    def test_off_values(self, raw):
        assert not profiling_requested({"TIBFIT_PROFILE": raw})

    @pytest.mark.parametrize("raw", ["1", "true", "yes", "on", "2"])
    def test_on_values(self, raw):
        assert profiling_requested({"TIBFIT_PROFILE": raw})

    def test_unset_is_off(self):
        assert not profiling_requested({})


class TestPhaseTimers:
    def test_install_times_the_des_loop(self):
        from repro.simkernel.simulator import Simulator

        install_phase_timers()
        try:
            reset_phases()
            sim = Simulator(seed=0)
            sim.after(1.0, lambda: None)
            sim.run()
            snap = phase_snapshot()
            assert snap["des"] > 0.0
        finally:
            uninstall_phase_timers()

    def test_uninstall_restores_originals(self):
        from repro.core import clustering, decision_kernel
        from repro.core.trust import TrustTable
        from repro.simkernel.simulator import Simulator

        def hot_points():
            return (
                Simulator.run,
                TrustTable.cti_vote,
                clustering.cluster_reports_flat,
                decision_kernel.cluster_reports_flat,
                decision_kernel.DecisionKernel.decide_rows,
            )

        before = hot_points()
        install_phase_timers()
        assert all(
            now is not then for now, then in zip(hot_points(), before)
        )
        uninstall_phase_timers()
        assert hot_points() == before

    def test_install_is_idempotent(self):
        from repro.simkernel.simulator import Simulator

        install_phase_timers()
        wrapped = Simulator.run
        install_phase_timers()  # second call must not double-wrap
        assert Simulator.run is wrapped
        uninstall_phase_timers()
        uninstall_phase_timers()  # and uninstall tolerates repeats

    def test_wrappers_forward_results_untouched(self):
        from repro.core.trust import TrustParameters, TrustTable

        table = TrustTable(TrustParameters(), range(4))
        expected = table.clone().cti_vote([0, 1], [2, 3])
        install_phase_timers()
        try:
            reset_phases()
            got = table.cti_vote([0, 1], [2, 3])
            assert got == expected
            assert phase_snapshot()["trust"] > 0.0
        finally:
            uninstall_phase_timers()

    def test_decision_phase_covers_the_kernel(self):
        """A location run profiles non-trivial decision and clustering
        time, nested inside the DES loop."""
        from repro.experiments.harness import SimulationRun

        install_phase_timers()
        try:
            reset_phases()
            run = SimulationRun(
                mode="location",
                n_nodes=25,
                field_side=50.0,
                sensing_radius=20.0,
                faulty_ids=(0, 1, 2),
                diagnosis_threshold=0.3,
                seed=77,
            )
            run.run(6)
            snap = phase_snapshot()
        finally:
            uninstall_phase_timers()
        assert run.ch.decisions, "run produced no decisions to time"
        assert snap["des"] > 0.0
        assert snap["decision"] > 0.0
        assert snap["clustering"] > 0.0
        # The window pipeline runs inside DES callbacks, and clustering
        # inside the window pipeline.
        assert snap["clustering"] <= snap["decision"] <= snap["des"]


class TestSweepProfile:
    def make_profile(self):
        profile = SweepProfile(workers=2)
        profile.add(TaskProfile(10.0, 0, 1.0, {"des": 0.8, "trust": 0.2}))
        profile.add(TaskProfile(10.0, 1, 3.0, {"des": 2.5, "trust": 0.5}))
        profile.add(TaskProfile(20.0, 0, 2.0, {"des": 1.5}))
        profile.total_wall_s = 4.0
        return profile

    def test_per_point_totals(self):
        assert self.make_profile().per_point() == {10.0: 4.0, 20.0: 2.0}

    def test_phase_totals(self):
        totals = self.make_profile().phase_totals()
        assert totals["des"] == pytest.approx(4.8)
        assert totals["trust"] == pytest.approx(0.7)
        assert totals["clustering"] == 0.0

    def test_utilisation_bounded(self):
        profile = self.make_profile()
        # 6s of task wall over 2 workers * 4s wall = 0.75
        assert profile.utilisation() == pytest.approx(0.75)
        profile.total_wall_s = 0.0
        assert profile.utilisation() == 0.0

    def test_slowest_ordering(self):
        slowest = self.make_profile().slowest(2)
        assert [t.wall_s for t in slowest] == [3.0, 2.0]

    def test_unattributed_time(self):
        task = TaskProfile(0.0, 0, 2.0, {"des": 1.5})
        assert task.unattributed_s == pytest.approx(0.5)

    def test_summary_is_json_serialisable(self):
        import json

        json.dumps(self.make_profile().summary())

    def test_to_manifest_validates(self):
        from repro.obs.export import validate_manifest

        validate_manifest(self.make_profile().to_manifest())

    def test_render_mentions_the_essentials(self):
        text = self.make_profile().render()
        assert "3 tasks" in text
        assert "utilisation" in text
        assert "point 10" in text

    def test_profile_is_picklable(self):
        import pickle

        task = TaskProfile(1.0, 2, 0.5, {"des": 0.4})
        assert pickle.loads(pickle.dumps(task)) == task
