"""TIBFIT network-decay analysis (§5, Fig. 11).

The paper analyses a network of ``N`` nodes (N odd) in which one
additional correct node is compromised every ``k`` events, correct
nodes are always correct, and faulty nodes always fail.  TIBFIT stays
100% accurate as long as the three remaining correct nodes' CTI exceeds
the faulty side's CTI, which at the critical moment reduces to

    f(k) = e^{-k*lambda*(N-1)} - 2*e^{-k*lambda} + 1 = 0 .

The positive root ``k*`` of ``f`` is the minimum number of events
between compromises the system tolerates; Fig. 11 plots ``f(k)`` for
several ``lambda``, the x-axis crossing being that root.  At the end
game (three correct nodes left), tolerating one more compromise needs
at most ``k_max = ln(3) / lambda`` further rounds.

Note the paper's expression has ``f -> 0+`` as ``k -> infinity`` and a
sign change only for suitable ``N``/``lambda``; the solver below finds
the crossing by bisecting a bracket to adjacent floats (the paper used
Matlab).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


def _check_lambda(lam: float) -> None:
    """Refuse a decay constant ``TrustParameters`` would refuse."""
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")


def decay_expression(k: float, lam: float, n_nodes: int) -> float:
    """``f(k) = e^{-k*lambda*(N-1)} - 2 e^{-k*lambda} + 1`` (§5).

    ``f(k) < 0`` means a compromise cadence of one node per ``k`` events
    is *tolerable* (correct CTI stays ahead); the root is the break-even
    cadence.
    """
    if n_nodes < 3:
        raise ValueError(f"analysis needs N >= 3, got {n_nodes}")
    _check_lambda(lam)
    return math.exp(-k * lam * (n_nodes - 1)) - 2.0 * math.exp(-k * lam) + 1.0


def solve_k(lam: float, n_nodes: int, k_hi: float = 1e6) -> float:
    """The positive root ``k*`` of :func:`decay_expression`.

    For ``x = e^{-k*lambda}`` the expression is ``x^{N-1} - 2x + 1``,
    which always has the trivial root ``x = 1`` (``k = 0``) and, for
    ``N >= 3``, exactly one root in ``(0, 1)`` -- the meaningful
    break-even point.  We solve for that interior root and map back to
    ``k = -ln(x) / lambda``.
    """
    if n_nodes < 3:
        raise ValueError(f"analysis needs N >= 3, got {n_nodes}")
    _check_lambda(lam)

    def g(x: float) -> float:
        return x ** (n_nodes - 1) - 2.0 * x + 1.0

    # g(0) = 1 > 0 and g approaches 0 at x=1 from below for N >= 3
    # (g'(1) = N - 3 >= 0; for N = 3 the interior root is x = 1 exactly
    # handled separately since g(x) = (x-1)^2 >= 0 there).
    if n_nodes == 3:
        # x^2 - 2x + 1 = (x - 1)^2: the only root is x = 1, i.e. the
        # system tolerates no compromise cadence at this size -- return
        # infinity to signal that.
        return math.inf

    # Bracket the interior root: g(0)=1>0, g(0.9999...) < 0 for N > 3.
    lo, hi = 1e-12, 1.0 - 1e-12
    if g(hi) > 0:
        # No sign change: no finite cadence works.
        return math.inf
    # g(lo) > 0 >= g(hi), and the root is the only sign change: halve the
    # bracket until its midpoint equals an end (lo and hi adjacent).
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    k = -math.log(hi) / lam
    return min(k, k_hi)


def k_max(lam: float) -> float:
    """End-game bound ``k_max = ln(3) / lambda`` (§5).

    With three correct nodes left (CTI = 3) and the faulty side at
    ``3 - epsilon``, waiting until ``3 e^{-k*lambda} = 1`` lets one more
    node flip; solving gives ``k_max = ln(3)/lambda`` as ``epsilon -> 0``.

    >>> round(k_max(0.1), 6)
    10.986123
    >>> k_max(float("nan"))
    Traceback (most recent call last):
        ...
    ValueError: lambda must be positive and finite, got nan
    """
    _check_lambda(lam)
    return math.log(3.0) / lam


def figure11_series(
    lambdas: Sequence[float] = (0.05, 0.1, 0.25, 0.5, 1.0),
    n_nodes: int = 11,
    k_values: Sequence[float] = None,
) -> Dict[float, List[Tuple[float, float]]]:
    """The Fig. 11 dataset: ``f(k)`` curves, one per lambda.

    Returns ``{lambda: [(k, f(k)), ...]}``.  Where a curve crosses the
    x-axis is the tolerable compromise cadence for that lambda.
    """
    if k_values is None:
        k_values = [0.5 * i for i in range(1, 121)]
    series: Dict[float, List[Tuple[float, float]]] = {}
    for lam in lambdas:
        series[lam] = [
            (k, decay_expression(k, lam, n_nodes)) for k in k_values
        ]
    return series


def sweep_lambda(
    lambdas: Sequence[float], n_nodes: int = 11
) -> List[Tuple[float, float]]:
    """``(lambda, k*)`` pairs: break-even cadence per decay constant.

    §5's observation -- "as lambda increases, the frequency of nodes
    failing that can be tolerated increases" -- appears here as ``k*``
    decreasing in lambda.
    """
    return [(lam, solve_k(lam, n_nodes)) for lam in lambdas]
