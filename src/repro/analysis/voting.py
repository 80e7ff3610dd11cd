"""Baseline majority-voting success probability (§5, eqs. 1-3, Fig. 10).

Setup: ``N`` event neighbours, ``m`` faulty.  A correct node reports
correctly with probability ``p``; a faulty node with probability ``q``.
``X ~ Binomial(N - m, p)`` counts correct reports from correct nodes,
``Y ~ Binomial(m, q)`` from faulty nodes, and the event is identified
when ``Z = X + Y`` reaches a strict majority ``floor(N/2) + 1``.

The paper splits the convolution into eqs. (2) (``m <= N - m``) and (3)
(``m > N - m``); both are the same sum ``P(Z >= floor(N/2)+1)`` with the
roles of the two binomials swapped, which is how it is implemented
here.  Fig. 10 plots the curve for ``N = 10``, ``q = 0.5`` and ``p`` in
``{0.99, 0.95, 0.90, 0.85}`` -- showing the cliff once half the
neighbourhood is compromised.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


def _binomial_pmf(n: int, k: int, p: float) -> float:
    """``P(Binomial(n, p) = k)`` with exact combinatorics."""
    if k < 0 or k > n:
        return 0.0
    return math.comb(n, k) * (p**k) * ((1.0 - p) ** (n - k))


def baseline_success_probability(
    n_neighbors: int, m_faulty: int, p_correct: float, q_faulty: float
) -> float:
    """``P(majority vote identifies the event)`` -- eqs. 1-3.

    Parameters
    ----------
    n_neighbors:
        ``N``, total event neighbours.
    m_faulty:
        ``m``, how many are faulty (``0 <= m <= N``).
    p_correct:
        Probability a correct node reports the event.
    q_faulty:
        Probability a faulty node reports the event.

    Returns
    -------
    The probability that strictly more than ``N/2`` of the ``N``
    neighbours report, i.e. ``P(X + Y >= floor(N/2) + 1)``.
    """
    if n_neighbors <= 0:
        raise ValueError(f"n_neighbors must be positive, got {n_neighbors}")
    if not 0 <= m_faulty <= n_neighbors:
        raise ValueError(
            f"m_faulty must be in [0, {n_neighbors}], got {m_faulty}"
        )
    for name, value in (("p_correct", p_correct), ("q_faulty", q_faulty)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")

    n_correct = n_neighbors - m_faulty
    majority = n_neighbors // 2 + 1
    total = 0.0
    # Convolution P(X + Y = t) summed over t >= majority; equivalent to
    # eqs. (2)/(3) -- their case split merely reorders the same terms.
    for x in range(n_correct + 1):
        px = _binomial_pmf(n_correct, x, p_correct)
        if px == 0.0:
            continue
        y_min = max(0, majority - x)
        for y in range(y_min, m_faulty + 1):
            total += px * _binomial_pmf(m_faulty, y, q_faulty)
    return min(1.0, total)


def success_curve(
    n_neighbors: int,
    p_correct: float,
    q_faulty: float,
    m_values: Sequence[int] = None,
) -> List[Tuple[int, float]]:
    """``(m, P(success))`` pairs across a sweep of faulty counts."""
    if n_neighbors <= 0:
        raise ValueError(f"n_neighbors must be positive, got {n_neighbors}")
    if m_values is None:
        m_values = range(n_neighbors + 1)
    return [
        (m, baseline_success_probability(n_neighbors, m, p_correct, q_faulty))
        for m in m_values
    ]


def figure10_series(
    n_neighbors: int = 10,
    q_faulty: float = 0.5,
    p_values: Sequence[float] = (0.99, 0.95, 0.90, 0.85),
) -> Dict[float, List[Tuple[float, float]]]:
    """The Fig. 10 dataset: one curve per ``p``.

    Returns ``{p: [(percent_faulty, P(success)), ...]}`` with the x-axis
    expressed as percentage of the neighbourhood compromised, matching
    the paper's figure.
    """
    series: Dict[float, List[Tuple[float, float]]] = {}
    for p in p_values:
        curve = []
        for m in range(n_neighbors + 1):
            percent = 100.0 * m / n_neighbors
            curve.append(
                (
                    percent,
                    baseline_success_probability(n_neighbors, m, p, q_faulty),
                )
            )
        series[p] = curve
    return series
