"""Closed-form analysis from §5 of the paper.

* :mod:`repro.analysis.voting` -- equations 1-3: the probability that a
  stateless majority vote over ``N`` event neighbours (``m`` of them
  faulty) identifies a binary event, and the Fig. 10 curves.
* :mod:`repro.analysis.decay`  -- the TIBFIT decay analysis: how often a
  correct node may be compromised while the system stays 100% accurate
  (Fig. 11), and the terminal bound ``k_max = ln(3) / lambda``.
"""

from repro.analysis.decay import (
    decay_expression,
    k_max,
    solve_k,
    sweep_lambda,
)
from repro.analysis.reliability import (
    PredictorState,
    predict_binary_reliability,
    predicted_run_accuracy,
    weighted_vote_success,
)
from repro.analysis.voting import (
    baseline_success_probability,
    figure10_series,
    success_curve,
)

__all__ = [
    "PredictorState",
    "baseline_success_probability",
    "decay_expression",
    "figure10_series",
    "k_max",
    "predict_binary_reliability",
    "predicted_run_accuracy",
    "solve_k",
    "success_curve",
    "sweep_lambda",
    "weighted_vote_success",
]
