"""Experiment harness reproducing the paper's evaluation (§4).

* :mod:`repro.experiments.config`      -- parameter dataclasses mirroring
  Tables 1 and 2 plus the Experiment-3 decay schedule.
* :mod:`repro.experiments.harness`     -- builds and runs one full
  simulation (deployment, channel, behaviours, CH, generator) and
  scores it against ground truth.
* :mod:`repro.experiments.metrics`     -- per-event outcomes and
  aggregate accuracy metrics.
* :mod:`repro.experiments.experiment1` -- binary events vs %faulty
  (Figs. 2-3).
* :mod:`repro.experiments.experiment2` -- location determination vs
  %faulty for fault levels 0/1/2, single and concurrent events
  (Figs. 4-7).
* :mod:`repro.experiments.experiment3` -- linear network decay over time
  (Figs. 8-9).
* :mod:`repro.experiments.runner`      -- parallel, deterministic
  execution of the ``(point, trial)`` sweep grids over worker
  processes.
* :mod:`repro.experiments.reporting`   -- ASCII tables and series for
  terminal output.
"""

from repro.experiments.config import (
    Experiment1Config,
    Experiment2Config,
    Experiment3Config,
)
from repro.experiments.harness import SimulationRun
from repro.experiments.metrics import EventOutcome, RunMetrics
from repro.experiments.runner import (
    SweepError,
    SweepTask,
    run_sweep,
    sweep_series,
)

# Note: the per-experiment sweep modules (experiment1..experiment4) are
# imported directly -- e.g. ``from repro.experiments import experiment2``
# -- not re-exported here.  All four build on SimulationRun, and
# repro.clusterctl never imports this package, so the graph is acyclic.

__all__ = [
    "EventOutcome",
    "Experiment1Config",
    "Experiment2Config",
    "Experiment3Config",
    "RunMetrics",
    "SimulationRun",
    "SweepError",
    "SweepTask",
    "run_sweep",
    "sweep_series",
]
