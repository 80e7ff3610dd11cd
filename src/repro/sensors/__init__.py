"""Sensing substrate: perception, event generation, and fault models.

* :mod:`repro.sensors.sensing`   -- how a node perceives an event: perfect
  binary detection within ``r_s`` plus Gaussian location noise (§2, §4.2).
* :mod:`repro.sensors.generator` -- ground-truth event generation: uniform
  random placement at regular intervals, with concurrent batches kept at
  least ``r_error`` apart (§4, §3.3).
* :mod:`repro.sensors.faults`    -- the paper's four node categories:
  correct (NER), level 0 naive liars, level 1 smart independent liars
  with TI hysteresis, and level 2 colluding liars (§2.1).
"""
