"""Unit tests for the mean-field reliability predictor."""

import pytest

from repro.analysis.reliability import (
    predict_binary_reliability,
    predicted_run_accuracy,
    weighted_vote_success,
)
from repro.analysis.voting import baseline_success_probability
from repro.core.trust import TrustParameters

PARAMS = TrustParameters(lam=0.1, fault_rate=0.01)


class TestWeightedVote:
    def test_equal_weights_reduce_to_unweighted_analysis(self):
        """With TI_c == TI_f the weighted vote equals eqs. 1-3's strict
        majority probability."""
        for m in range(11):
            ours = weighted_vote_success(10 - m, m, 0.95, 0.5, 1.0, 1.0)
            paper = baseline_success_probability(10, m, 0.95, 0.5)
            assert ours == pytest.approx(paper, abs=1e-12)

    def test_distrusted_majority_loses(self):
        """Seven liars at TI near zero cannot outvote three honest."""
        p = weighted_vote_success(
            3, 7, 1.0, 0.0, ti_correct=1.0, ti_faulty=0.001
        )
        assert p > 0.99

    def test_fresh_majority_wins(self):
        p = weighted_vote_success(
            3, 7, 1.0, 0.0, ti_correct=1.0, ti_faulty=1.0
        )
        assert p < 0.01

    def test_probability_bounds(self):
        for ti_f in (0.0, 0.3, 1.0):
            p = weighted_vote_success(5, 5, 0.9, 0.5, 1.0, ti_f)
            assert 0.0 <= p <= 1.0

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError):
            weighted_vote_success(-1, 5, 0.9, 0.5, 1.0, 1.0)


class TestRecursion:
    def test_history_length_and_fields(self):
        history = predict_binary_reliability(10, 4, 0.01, 0.5, PARAMS, 20)
        assert len(history) == 20
        assert history[0].ti_correct == 1.0
        assert history[0].ti_faulty == 1.0

    def test_faulty_trust_decays_while_correct_holds(self):
        history = predict_binary_reliability(10, 4, 0.0, 0.5, PARAMS, 100)
        final = history[-1]
        assert final.ti_faulty < 0.2
        assert final.ti_correct > 0.9

    def test_success_improves_with_accumulated_state(self):
        """Per-round predicted success is non-decreasing early on as the
        faulty side's trust erodes."""
        history = predict_binary_reliability(10, 7, 0.01, 0.5, PARAMS, 60)
        assert history[-1].p_success >= history[0].p_success

    def test_all_faulty_never_succeeds_reliably(self):
        acc = predicted_run_accuracy(10, 10, 0.0, 1.0, PARAMS, 30)
        assert acc == 0.0

    def test_no_faulty_is_nearly_perfect(self):
        acc = predicted_run_accuracy(10, 0, 0.01, 0.5, PARAMS, 30)
        assert acc > 0.99

    def test_accuracy_monotone_in_compromise(self):
        accs = [
            predicted_run_accuracy(10, m, 0.01, 0.5, PARAMS, 100)
            for m in (0, 4, 7, 9)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(accs, accs[1:]))

    def test_warm_start_state_matters(self):
        """Pre-compromised trust (v_faulty0 > 0) raises early success."""
        cold = predict_binary_reliability(10, 7, 0.0, 0.5, PARAMS, 5)
        warm = predict_binary_reliability(
            10, 7, 0.0, 0.5, PARAMS, 5, v_faulty0=20.0
        )
        assert warm[0].p_success > cold[0].p_success

    def test_validation(self):
        with pytest.raises(ValueError):
            predict_binary_reliability(10, 11, 0.0, 0.5, PARAMS, 10)
        with pytest.raises(ValueError):
            predict_binary_reliability(10, 1, 1.0, 0.5, PARAMS, 10)
        with pytest.raises(ValueError):
            predict_binary_reliability(10, 1, 0.0, 0.5, PARAMS, 0)
