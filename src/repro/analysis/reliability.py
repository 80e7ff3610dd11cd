"""Mean-field reliability predictor for TIBFIT binary detection.

§7 lists as future work "a more extensive theoretical model to
demonstrate correctness and predict system reliability under given
constraints".  This module supplies such a model for the binary-event
setting: a deterministic mean-field recursion over the two
populations' expected trust accumulators.

Model
-----
``N`` event neighbours, ``m`` faulty.  Per event, a correct node
reports with probability ``p = 1 - NER`` and a faulty node with
probability ``q`` (``1 -`` its missed-alarm rate).  All correct nodes
share one expected accumulator ``v_c`` and all faulty nodes share
``v_f`` (the mean-field approximation); the corresponding weights are
``TI_c = e^{-lam v_c}``, ``TI_f = e^{-lam v_f}``.

Round success is the exact two-binomial tail of the weighted vote:
with ``X ~ Bin(N-m, p)`` correct reporters and ``Y ~ Bin(m, q)`` faulty
reporters, the event is upheld when

    (2X - (N-m)) * TI_c + (2Y - m) * TI_f > 0

(a strict majority of cumulative trust, ties failing, matching the
voting engine).  Trust then moves in expectation: a node on the winning
side is rewarded, on the losing side penalised, so

    E[dv_c] = P_s * (p*(-f_r) + (1-p)*(1-f_r))
            + (1-P_s) * (p*(1-f_r) + (1-p)*(-f_r))

and symmetrically for ``v_f`` with ``q``; both floored at zero.

The recursion captures the paper's qualitative dynamics exactly: a
fresh majority-compromised system fails immediately, while a system
that accumulates state before being compromised separates ``TI_f``
from ``TI_c`` and recovers per-round accuracy even past a 50%
compromise.  Against the event-driven simulation it typically tracks
run-average accuracy to within a few points (see the predictor bench).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.voting import _binomial_pmf
from repro.core.trust import TrustParameters


@dataclass(frozen=True)
class PredictorState:
    """One step of the mean-field recursion."""

    round_index: int
    v_correct: float
    v_faulty: float
    ti_correct: float
    ti_faulty: float
    p_success: float


def weighted_vote_success(
    n_correct: int,
    n_faulty: int,
    p_report_correct: float,
    q_report_faulty: float,
    ti_correct: float,
    ti_faulty: float,
) -> float:
    """Exact P(CTI of reporters > CTI of silent) for the two-weight vote.

    Enumerates the joint (X, Y) reporter counts -- O(N^2) terms, exact
    to float precision.  A tie (equal CTIs) fails, matching the voting
    engine's strict-majority convention.
    """
    if n_correct < 0 or n_faulty < 0:
        raise ValueError("population sizes must be non-negative")
    total = 0.0
    for x in range(n_correct + 1):
        px = _binomial_pmf(n_correct, x, p_report_correct)
        if px == 0.0:
            continue
        margin_c = (2 * x - n_correct) * ti_correct
        for y in range(n_faulty + 1):
            margin = margin_c + (2 * y - n_faulty) * ti_faulty
            if margin > 0:
                total += px * _binomial_pmf(n_faulty, y, q_report_faulty)
    return min(1.0, total)


def _expected_dv(p_report: float, p_success: float,
                 params: TrustParameters) -> float:
    """E[dv] for a population reporting with probability ``p_report``."""
    reward = -params.reward_step
    penalty = params.penalty_step
    win = p_report * reward + (1.0 - p_report) * penalty
    lose = p_report * penalty + (1.0 - p_report) * reward
    return p_success * win + (1.0 - p_success) * lose


def predict_binary_reliability(
    n_neighbors: int,
    n_faulty: int,
    ner: float,
    faulty_miss_rate: float,
    params: TrustParameters,
    rounds: int,
    v_correct0: float = 0.0,
    v_faulty0: float = 0.0,
) -> List[PredictorState]:
    """Run the mean-field recursion for ``rounds`` events.

    Parameters
    ----------
    n_neighbors / n_faulty:
        Population sizes (``n_faulty <= n_neighbors``).
    ner:
        Correct nodes' natural (missed-alarm) error rate.
    faulty_miss_rate:
        Faulty nodes' missed-alarm probability (level-0 style).
    params:
        The trust model.
    rounds:
        Events to predict.
    v_correct0 / v_faulty0:
        Initial accumulators (nonzero models pre-existing state, e.g.
        nodes compromised after a clean warm-up).

    Returns
    -------
    One :class:`PredictorState` per round, with ``p_success`` the
    predicted probability that round's event is detected.
    """
    if not 0 <= n_faulty <= n_neighbors:
        raise ValueError(
            f"need 0 <= n_faulty <= {n_neighbors}, got {n_faulty}"
        )
    if not 0.0 <= ner < 1.0:
        raise ValueError(f"ner must be in [0, 1), got {ner}")
    if not 0.0 <= faulty_miss_rate <= 1.0:
        raise ValueError("faulty_miss_rate must be in [0, 1]")
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")

    n_correct = n_neighbors - n_faulty
    p = 1.0 - ner
    q = 1.0 - faulty_miss_rate
    v_c, v_f = float(v_correct0), float(v_faulty0)
    history: List[PredictorState] = []
    for r in range(rounds):
        ti_c = params.ti_of(v_c)
        ti_f = params.ti_of(v_f)
        p_success = weighted_vote_success(n_correct, n_faulty, p, q,
                                          ti_c, ti_f)
        history.append(
            PredictorState(
                round_index=r,
                v_correct=v_c,
                v_faulty=v_f,
                ti_correct=ti_c,
                ti_faulty=ti_f,
                p_success=p_success,
            )
        )
        if n_correct:
            v_c = max(0.0, v_c + _expected_dv(p, p_success, params))
        if n_faulty:
            v_f = max(0.0, v_f + _expected_dv(q, p_success, params))
    return history


def predicted_run_accuracy(
    n_neighbors: int,
    n_faulty: int,
    ner: float,
    faulty_miss_rate: float,
    params: TrustParameters,
    rounds: int,
    **kwargs,
) -> float:
    """Mean predicted per-round success over a run (the paper's metric)."""
    history = predict_binary_reliability(
        n_neighbors, n_faulty, ner, faulty_miss_rate, params, rounds,
        **kwargs,
    )
    # Left to right from 0.0: sum()'s float association changed in 3.12.
    total = 0.0
    for step in history:
        total += step.p_success
    return total / len(history)
