"""Tests for the parallel sweep runner.

The load-bearing guarantee is *bit-identical determinism*: fanning the
``(point, trial)`` grid over worker processes must return exactly the
series the serial path produces, because every task derives its seeds
from its own arguments.  The worker-pool tests use tiny configs -- the
point is plumbing, not statistics.
"""

import math

import pytest

from repro.experiments import experiment1, experiment2
from repro.experiments.config import Experiment1Config, Experiment2Config
from repro.experiments.runner import (
    SweepError,
    SweepTask,
    run_sweep,
    sweep_series,
)


def _square(config, point, trial):
    return float(point) ** 2


def _boom(config, point, trial):
    raise ValueError(f"injected failure for {point}/{trial}")


def _series_values(series):
    return [(p.x, p.mean, p.std, p.trials) for p in series.points]


class TestWorkerCount:
    def test_nonpositive_rejected(self):
        tasks = [SweepTask(fn=_square, args=(None, 1.0, 0))]
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_sweep(tasks, workers=0)


class TestSerialPath:
    def test_results_in_task_order(self):
        tasks = [
            SweepTask(fn=_square, args=(None, x, 0), point=x) for x in range(6)
        ]
        assert run_sweep(tasks, workers=1) == [0.0, 1.0, 4.0, 9.0, 16.0, 25.0]

    def test_progress_callback_sees_every_task(self):
        seen = []
        tasks = [SweepTask(fn=_square, args=(None, 1, t)) for t in range(4)]
        run_sweep(tasks, workers=1, progress=lambda d, t: seen.append((d, t)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_failure_identifies_task(self):
        tasks = [
            SweepTask(fn=_square, args=(None, 1.0, 0), point=1.0, trial=0),
            SweepTask(fn=_boom, args=(None, 40.0, 2), point=40.0, trial=2),
        ]
        with pytest.raises(SweepError, match=r"point=40, trial=2"):
            run_sweep(tasks, workers=1)


class TestWorkerPool:
    """Spawned-pool behaviour; each test pays real process start-up."""

    def test_experiment1_series_bit_identical(self):
        config = Experiment1Config(
            n_nodes=10,
            events_per_run=8,
            percent_faulty_values=(40.0, 70.0),
            trials=2,
            seed=11,
        )
        serial = experiment1.sweep(config, workers=1)
        parallel = experiment1.sweep(config, workers=4)
        assert serial.label == parallel.label
        assert _series_values(serial) == _series_values(parallel)

    def test_experiment2_series_bit_identical(self):
        config = Experiment2Config(
            n_nodes=16,
            field_side=40.0,
            events_per_run=6,
            percent_faulty_values=(10.0, 50.0),
            trials=2,
            seed=13,
        )
        serial = experiment2.sweep(config, workers=1)
        parallel = experiment2.sweep(config, workers=4)
        assert serial.label == parallel.label
        assert _series_values(serial) == _series_values(parallel)

    def test_worker_failure_identifies_task(self):
        tasks = [
            SweepTask(fn=_square, args=(None, float(x), 0), point=float(x))
            for x in range(3)
        ] + [SweepTask(fn=_boom, args=(None, 80.0, 1), point=80.0, trial=1)]
        with pytest.raises(SweepError, match=r"point=80, trial=1"):
            run_sweep(tasks, workers=2)

    def test_progress_callback_counts_up_to_the_total(self):
        seen = []
        tasks = [
            SweepTask(fn=_square, args=(None, float(x), 0), point=float(x))
            for x in range(6)
        ]
        results = run_sweep(
            tasks, workers=2, progress=lambda d, t: seen.append((d, t))
        )
        assert results == [0.0, 1.0, 4.0, 9.0, 16.0, 25.0]
        done = [d for d, _ in seen]
        assert done == sorted(set(done))
        assert seen[-1] == (6, 6)
        assert all(total == 6 for _, total in seen)


class TestSweepSeries:
    def test_groups_samples_per_point_in_trial_order(self):
        series = sweep_series(
            "squares", _square, None, points=(2.0, 3.0), trials=3, workers=1
        )
        assert series.label == "squares"
        assert series.xs() == [2.0, 3.0]
        assert [point.mean for point in series.points] == [4.0, 9.0]
        assert all(p.trials == 3 for p in series.points)
        assert all(math.isclose(p.std, 0.0) for p in series.points)


class TestChunkAlignment:
    def test_aligned_parallel_matches_serial(self):
        tasks = [
            SweepTask(fn=_square, args=(None, float(p), t),
                      point=float(p), trial=t)
            for p in range(5)
            for t in range(3)
        ]
        serial = run_sweep(tasks, workers=1)
        aligned = run_sweep(tasks, workers=2, chunk_align=3)
        assert aligned == serial

    def test_alignment_of_one_is_a_noop(self):
        tasks = [SweepTask(fn=_square, args=(None, float(p), 0))
                 for p in range(6)]
        assert run_sweep(tasks, workers=2, chunk_align=1) == (
            run_sweep(tasks, workers=1)
        )
