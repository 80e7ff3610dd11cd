"""Parallel execution of experiment sweeps.

Every figure in the paper is a grid of *independent* simulations --
``(config, sweep point, trial)`` triples whose seeds are derived from
the triple itself, never from execution order.  That makes the grid
embarrassingly parallel: this module fans it out over a
``ProcessPoolExecutor`` while guaranteeing that the assembled results
are **bit-identical** to the serial path.

Determinism contract
--------------------
* Each :class:`SweepTask` is a pure function of its arguments (the
  experiment ``run_point``/``run_decay`` functions derive every seed
  from ``(config, point, trial)``).
* :func:`run_sweep` returns results in *task order*, regardless of the
  order workers complete them.

Therefore ``run_sweep(tasks, workers=1)`` and ``run_sweep(tasks,
workers=N)`` produce identical output for any ``N`` -- asserted by
``tests/experiments/test_runner.py``.

The worker count is the caller's ``workers`` argument (the CLI's
``--workers``), serial by default; nothing is read from the
environment.  The pool uses the ``spawn`` start method: workers
re-import ``repro`` instead of forking interpreter state, which keeps
them safe under threads and identical across platforms.  A layer
profile of a sweep is the benchmark's tracer (``bench/tracer.py``)
installed around a serial one; see ``docs/observability.md``.
"""

from __future__ import annotations

import multiprocessing
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.experiments.reporting import Series

#: A progress callback receives ``(done, total)`` after each task (serial)
#: or each completed chunk (parallel).
ProgressFn = Callable[[int, int], None]


class SweepError(RuntimeError):
    """A sweep task failed; the message identifies ``(point, trial)``.

    When the failure happened in a worker process the original traceback
    is embedded in the message (exception chaining does not survive
    pickling across the process boundary).
    """


@dataclass(frozen=True)
class SweepTask:
    """One picklable unit of sweep work: ``fn(*args)``.

    ``fn`` must be an importable module-level function (spawn-safe
    pickling is by reference) and ``args`` must pickle -- the frozen
    experiment config dataclasses all do.  ``point`` and ``trial`` are
    identity metadata for error reports and progress display; the seed
    derivation lives inside ``fn`` itself, so a task's result is
    independent of where and when it runs.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    point: float = 0.0
    trial: int = 0

    def run(self) -> Any:
        return self.fn(*self.args)

    def identity(self) -> str:
        return f"point={self.point:g}, trial={self.trial}"


def _run_chunk(chunk: Sequence[SweepTask]) -> List[Any]:
    """Worker-side execution of one contiguous chunk of tasks."""
    out: List[Any] = []
    for task in chunk:
        try:
            out.append(task.run())
        except Exception:
            raise SweepError(
                f"sweep task failed at {task.identity()} "
                f"({getattr(task.fn, '__module__', '?')}."
                f"{getattr(task.fn, '__qualname__', '?')})\n"
                f"{traceback.format_exc()}"
            ) from None
    return out


def run_sweep(
    tasks: Sequence[SweepTask],
    *,
    workers: int = 1,
    chunk_align: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
) -> List[Any]:
    """Execute every task, returning results in task order.

    Parameters
    ----------
    workers:
        Process count.  ``workers=1`` runs inline with no pool, no
        pickling; more spread the grid about four chunks per worker, to
        amortise task pickling without starving the pool at the tail.
    chunk_align:
        Round the chunk size up to a multiple of this, so a block of
        that many consecutive tasks always lands in one worker process.
        :func:`sweep_series` passes its trial count: all trials of a
        sweep point then share one worker's per-process topology memo
        (see ``shared_grid_deployment``) instead of each worker
        rebuilding the point's geometry.  Results are unaffected --
        tasks are pure and reassembled in task order either way.
    progress:
        Optional ``(done, total)`` callback.

    Raises
    ------
    ValueError
        If ``workers`` is less than 1.
    SweepError
        If any task raises; the failing task's ``(point, trial)`` is in
        the message and, on the serial path, the original exception is
        chained as ``__cause__``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = list(tasks)
    total = len(tasks)

    if workers == 1 or total <= 1:
        results: List[Any] = []
        for done, task in enumerate(tasks, start=1):
            try:
                results.append(task.run())
            except SweepError:
                raise
            except Exception as exc:
                raise SweepError(
                    f"sweep task failed at {task.identity()}: {exc!r}"
                ) from exc
            if progress is not None:
                progress(done, total)
        return results

    chunksize = max(1, total // (workers * 4))
    if chunk_align is not None and chunk_align > 1:
        chunksize = -(-chunksize // chunk_align) * chunk_align
    starts = range(0, total, chunksize)
    results = [None] * total
    done = 0
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        max_workers=min(workers, len(starts)), mp_context=context
    ) as pool:
        pending = {
            pool.submit(_run_chunk, tasks[start : start + chunksize]): start
            for start in starts
        }
        while pending:
            finished, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                start = pending.pop(future)
                # future.result() raises SweepError on failure
                chunk_results = future.result()
                results[start : start + len(chunk_results)] = chunk_results
                done += len(chunk_results)
                if progress is not None:
                    progress(done, total)
    return results


def sweep_series(
    label: str,
    fn: Callable[..., float],
    config: Any,
    points: Sequence[float],
    trials: int,
    *,
    workers: int = 1,
    progress: Optional[ProgressFn] = None,
) -> Series:
    """Run the ``(point, trial)`` grid of ``fn(config, point, trial)``.

    This is the common shape of Experiments 1 and 2: one accuracy sample
    per trial, aggregated into a :class:`Series` point per sweep value.
    Trial order within each point is preserved, so the series is
    bit-identical to the historical serial double loop.
    """
    tasks = [
        SweepTask(fn=fn, args=(config, point, trial), point=point, trial=trial)
        for point in points
        for trial in range(trials)
    ]
    samples = run_sweep(
        tasks, workers=workers, chunk_align=trials, progress=progress
    )
    series = Series(label=label)
    for i, point in enumerate(points):
        series.add(point, samples[i * trials : (i + 1) * trials])
    return series
