"""Properties linking the §5 decay analysis to the voting implementation.

The analysis predicts a break-even cadence ``k*`` (events between
compromises) from ``lambda`` and ``N`` under idealised assumptions
(correct nodes always correct, faulty nodes always silent, rewards
floored).  These properties replay the §5 scenario through the real
``TrustTable`` + ``CtiVoter`` machinery and check the implementation
honours the theory's tolerance claim on both sides of the boundary.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.decay import k_max, solve_k
from repro.core.binary import CtiVoter
from repro.core.trust import TrustParameters, TrustTable

lams = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
sizes = st.integers(min_value=5, max_value=15).filter(lambda n: n % 2 == 1)


def replay_decay(lam: float, n: int, k: int, compromises: int) -> bool:
    """Replay §5's scenario; True iff every vote detected the event.

    One node defects every ``k`` events; correct nodes always report,
    faulty nodes never do.  ``f_r`` is tiny so rewards barely restore
    trust, matching the analysis's one-way decay.
    """
    table = TrustTable(
        TrustParameters(lam=lam, fault_rate=1e-6), node_ids=range(n)
    )
    voter = CtiVoter(table)
    correct = list(range(n))
    faulty = []
    for round_index in range(k * compromises + k):
        if round_index % k == 0 and len(faulty) < compromises:
            faulty.append(correct.pop())
        if not voter.decide(correct, faulty):
            return False
    return True


@given(lam=lams, n=sizes)
@settings(max_examples=25, deadline=None)
def test_cadence_above_break_even_is_tolerated(lam, n):
    """Compromising strictly slower than k* keeps detection perfect up
    to N-3 faulty nodes -- §5's claim, replayed on the real voter."""
    k_star = solve_k(lam, n)
    if not math.isfinite(k_star):
        return
    k = max(1, math.ceil(k_star) + 1)
    assert replay_decay(lam, n, k, compromises=n - 3)


@given(n=sizes)
@settings(max_examples=10, deadline=None)
def test_everything_at_once_fails(n):
    """Compromising a majority instantly defeats any lambda -- the
    'initial condition' caveat of §3.1."""
    table = TrustTable(
        TrustParameters(lam=0.25, fault_rate=1e-6), node_ids=range(n)
    )
    voter = CtiVoter(table)
    majority = list(range(n // 2 + 1))
    minority = list(range(n // 2 + 1, n))
    # The compromised majority stays silent on a real event.
    assert voter.decide(minority, majority) is False


@given(lam=lams)
@settings(max_examples=25, deadline=None)
def test_k_max_endgame_bound(lam):
    """With three correct nodes left, k_max = ln(3)/lambda rounds are
    enough for a faulty side at CTI just under 3 to fall under 1 --
    verified against the trust arithmetic."""
    params = TrustParameters(lam=lam, fault_rate=1e-9)
    rounds = math.ceil(k_max(lam))
    # The faulty side: CTI 3 - eps, modelled as three nodes at TI ~ 1.
    table = TrustTable(params, node_ids=[0, 1, 2])
    for _ in range(rounds):
        for node in (0, 1, 2):
            table.penalize(node)
    assert table.cti([0, 1, 2]) <= 1.0 + 1e-6


@given(lam=lams, n=sizes)
@settings(max_examples=25, deadline=None)
def test_solve_k_consistent_with_expression_sign(lam, n):
    """Slightly above the root the expression is positive (intolerable),
    slightly below negative (tolerable)."""
    from repro.analysis.decay import decay_expression

    k_star = solve_k(lam, n)
    if not math.isfinite(k_star):
        return
    assert decay_expression(k_star * 1.05, lam, n) > 0
    assert decay_expression(k_star * 0.95, lam, n) < 0
