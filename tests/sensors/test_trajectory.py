"""Unit tests for target trajectories and the tracker."""

import pytest

from repro.network.geometry import Point
from repro.sensors.trajectory import TargetTracker, Trajectory
from repro.simkernel.simulator import Simulator


class TestTrajectory:
    def test_endpoints_and_duration(self):
        traj = Trajectory(
            [Point(0.0, 0.0), Point(30.0, 40.0)], speed=10.0
        )
        assert traj.position_at(0.0) == Point(0.0, 0.0)
        assert traj.position_at(traj.end_time) == Point(30.0, 40.0)
        # 50 units at 10/s
        assert traj.end_time - traj.start_time == pytest.approx(5.0)

    def test_midpoint_interpolation(self):
        traj = Trajectory([Point(0.0, 0.0), Point(10.0, 0.0)], speed=1.0)
        mid = traj.position_at(5.0)
        assert mid.x == pytest.approx(5.0)
        assert mid.y == pytest.approx(0.0)

    def test_multi_leg_path(self):
        traj = Trajectory(
            [Point(0.0, 0.0), Point(10.0, 0.0), Point(10.0, 10.0)],
            speed=1.0,
        )
        assert traj.end_time - traj.start_time == pytest.approx(20.0)
        corner = traj.position_at(10.0)
        assert corner.x == pytest.approx(10.0)
        assert corner.y == pytest.approx(0.0)
        later = traj.position_at(15.0)
        assert later.y == pytest.approx(5.0)

    def test_clamping_outside_time_range(self):
        traj = Trajectory([Point(0.0, 0.0), Point(10.0, 0.0)], speed=1.0,
                          start_time=5.0)
        assert traj.position_at(0.0) == Point(0.0, 0.0)
        assert traj.position_at(100.0) == Point(10.0, 0.0)

    def test_sampling(self):
        traj = Trajectory([Point(0.0, 0.0), Point(10.0, 0.0)], speed=1.0)
        samples = traj.sample(2.5)
        assert [t for t, _p in samples] == [0.0, 2.5, 5.0, 7.5, 10.0]
        assert samples[2][1].x == pytest.approx(5.0)

    def test_constant_speed_between_samples(self):
        traj = Trajectory(
            [Point(0.0, 0.0), Point(60.0, 80.0)], speed=4.0
        )
        samples = traj.sample(1.0)
        for (t0, p0), (t1, p1) in zip(samples, samples[1:]):
            assert p0.distance_to(p1) == pytest.approx(
                4.0 * (t1 - t0), abs=1e-9
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory([Point(0.0, 0.0)], speed=1.0)
        with pytest.raises(ValueError):
            Trajectory([Point(0.0, 0.0), Point(1.0, 0.0)], speed=0.0)
        traj = Trajectory([Point(0.0, 0.0), Point(1.0, 0.0)], speed=1.0)
        with pytest.raises(ValueError):
            traj.sample(0.0)


class TestTargetTracker:
    def test_emits_one_event_per_sample(self):
        sim = Simulator(seed=1)
        traj = Trajectory([Point(0.0, 0.0), Point(10.0, 0.0)], speed=1.0)
        seen = []
        tracker = TargetTracker(traj, period=2.0, on_event=seen.append)
        tracker.start(sim)
        sim.run()
        assert len(seen) == 6  # t = 0, 2, ..., 10
        assert [e.time for e in seen] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_event_positions_follow_the_track(self):
        sim = Simulator(seed=1)
        traj = Trajectory([Point(0.0, 0.0), Point(10.0, 0.0)], speed=1.0)
        tracker = TargetTracker(traj, period=5.0, on_event=lambda e: None)
        tracker.start(sim)
        sim.run()
        xs = [e.location.x for e in tracker.emitted]
        assert xs == pytest.approx([0.0, 5.0, 10.0])

    def test_invalid_period_rejected(self):
        traj = Trajectory([Point(0.0, 0.0), Point(1.0, 0.0)], speed=1.0)
        with pytest.raises(ValueError):
            TargetTracker(traj, period=0.0, on_event=lambda e: None)
