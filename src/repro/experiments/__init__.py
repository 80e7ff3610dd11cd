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
* :mod:`repro.experiments.experiment4` -- the rotating network vs
  %faulty, an extension beyond the paper's fixed data sink.
* :mod:`repro.experiments.runner`      -- parallel, deterministic
  execution of the ``(point, trial)`` sweep grids over worker
  processes.
* :mod:`repro.experiments.reporting`   -- ASCII tables and series for
  terminal output.
"""
