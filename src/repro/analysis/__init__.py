"""Closed-form analysis from §5 of the paper.

* :mod:`repro.analysis.voting` -- equations 1-3: the probability that a
  stateless majority vote over ``N`` event neighbours (``m`` of them
  faulty) identifies a binary event, and the Fig. 10 curves.
* :mod:`repro.analysis.decay`  -- the TIBFIT decay analysis: how often a
  correct node may be compromised while the system stays 100% accurate
  (Fig. 11), and the terminal bound ``k_max = ln(3) / lambda``.
"""
