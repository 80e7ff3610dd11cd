"""Property-based tests for voting engines and the §5 analysis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.voting import baseline_success_probability
from repro.core.baseline import MajorityVoter
from repro.core.binary import CtiVoter
from repro.core.trust import TrustParameters, TrustTable

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(
    n=st.integers(min_value=1, max_value=30),
    m_frac=probs,
    p=probs,
    q=probs,
)
def test_success_probability_is_a_probability(n, m_frac, p, q):
    m = round(n * m_frac)
    value = baseline_success_probability(n, m, p, q)
    assert 0.0 <= value <= 1.0 + 1e-12


@given(n=st.integers(min_value=1, max_value=20), p=probs)
def test_identical_populations_make_m_irrelevant(n, p):
    """With q == p, splitting nodes into 'faulty' is a relabeling."""
    baselines = {
        baseline_success_probability(n, m, p, p) for m in range(n + 1)
    }
    assert max(baselines) - min(baselines) < 1e-9


partition = st.lists(
    st.integers(min_value=0, max_value=40), min_size=0, max_size=20
).map(set)


@given(reporters=partition, others=partition)
@settings(max_examples=80)
def test_cti_vote_with_fresh_trust_matches_majority_vote(reporters, others):
    """With every TI at 1.0, CTI voting degenerates to head counting."""
    non_reporters = others - reporters
    table = TrustTable(TrustParameters(lam=0.25, fault_rate=0.1))
    cti = CtiVoter(table).decide(reporters, non_reporters)
    majority = MajorityVoter().decide(reporters, non_reporters)
    assert type(cti) is type(majority) is bool
    assert cti == majority


@given(reporters=partition, others=partition)
@settings(max_examples=80)
def test_vote_partitions_rewarded_and_penalized(reporters, others):
    non_reporters = others - reporters
    table = TrustTable(TrustParameters(lam=0.25, fault_rate=0.1))
    _occurred, r, nr, _cti_r, _cti_nr, _tie, winners, losers = (
        table.cti_vote(reporters, non_reporters)
    )
    assert set(winners) | set(losers) == set(r) | set(nr)
    assert not set(winners) & set(losers)


@given(reporters=partition, others=partition)
@settings(max_examples=80)
def test_winning_side_has_larger_or_equal_cti(reporters, others):
    non_reporters = others - reporters
    table = TrustTable(TrustParameters(lam=0.25, fault_rate=0.1))
    occurred, _r, _nr, cti_r, cti_nr, *_ = table.cti_vote(
        reporters, non_reporters
    )
    if occurred:
        assert cti_r >= cti_nr
    else:
        assert cti_nr >= cti_r


@given(
    history=st.lists(st.booleans(), min_size=0, max_size=60),
)
@settings(max_examples=60)
def test_vote_verdict_depends_only_on_cti_order(history):
    """Feeding an arbitrary penalty history to node 0 never breaks the
    vote invariant: verdict == (CTI_R > CTI_NR), so a tie fails."""
    table = TrustTable(TrustParameters(lam=0.25, fault_rate=0.1),
                       node_ids=[0, 1, 2])
    for rewarded in history:
        if rewarded:
            table.reward(0)
        else:
            table.penalize(0)
    cti_r = table.cti([0])
    cti_nr = table.cti([1, 2])
    assert CtiVoter(table).decide([0], [1, 2]) == (cti_r > cti_nr)
