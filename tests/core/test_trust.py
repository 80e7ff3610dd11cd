"""Unit tests for the trust-index model (§3)."""

import math

import pytest

from repro.core.trust import TrustParameters, TrustTable

from tests.oracles.trust import TrustEntry


class TestTrustParameters:
    def test_steps_follow_the_update_rule(self):
        params = TrustParameters(lam=0.25, fault_rate=0.1)
        assert params.penalty_step == pytest.approx(0.9)
        assert params.reward_step == pytest.approx(0.1)

    def test_ti_of_zero_v_is_one(self):
        assert TrustParameters(lam=0.25).ti_of(0.0) == 1.0

    def test_ti_is_exponential_in_v(self):
        params = TrustParameters(lam=0.1, fault_rate=0.01)
        assert params.ti_of(1.0) == pytest.approx(math.exp(-0.1))
        assert params.ti_of(10.0) == pytest.approx(math.exp(-1.0))

    def test_v_of_inverts_ti_of(self):
        params = TrustParameters(lam=0.25)
        for v in (0.0, 0.5, 3.7):
            assert params.v_of(params.ti_of(v)) == pytest.approx(v)

    def test_expected_drift_is_zero_at_fault_rate(self):
        """§3: a node erring at exactly f_r has E[delta v] = 0."""
        fr = 0.1
        params = TrustParameters(lam=0.25, fault_rate=fr)
        # One fault per 1/fr events: one penalty plus (1/fr - 1) rewards.
        drift = params.penalty_step - (1.0 / fr - 1.0) * params.reward_step
        assert drift == pytest.approx(0.0)

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError):
            TrustParameters(lam=0.0)

    def test_invalid_fault_rate_rejected(self):
        with pytest.raises(ValueError):
            TrustParameters(fault_rate=1.0)

    def test_v_of_rejects_out_of_range_ti(self):
        params = TrustParameters()
        with pytest.raises(ValueError):
            params.v_of(0.0)
        with pytest.raises(ValueError):
            params.v_of(1.5)


class TestTrustTable:
    def test_fresh_node_has_full_trust(self, trust_table):
        assert trust_table.ti(0) == 1.0

    def test_unseen_node_defaults_to_full_trust(self, trust_table):
        assert trust_table.ti(999) == 1.0

    def test_penalize_lowers_ti(self, trust_table):
        before = trust_table.ti(0)
        trust_table.penalize(0)
        assert trust_table.ti(0) < before

    def test_reward_raises_ti_after_penalty(self, trust_table):
        trust_table.penalize(0)
        low = trust_table.ti(0)
        trust_table.reward(0)
        assert trust_table.ti(0) > low

    def test_ti_never_exceeds_one(self, trust_table):
        for _ in range(50):
            trust_table.reward(0)
        assert trust_table.ti(0) == 1.0

    def test_recovery_is_much_slower_than_decay(self, trust_table):
        """Penalty moves v by (1-f_r), reward only by f_r: asymmetric."""
        trust_table.penalize(0)
        rewards_needed = 0
        while trust_table.ti(0) < 1.0 and rewards_needed < 1000:
            trust_table.reward(0)
            rewards_needed += 1
        # f_r = 0.01 here, so one mistake takes ~99 good reports to erase.
        assert rewards_needed == 99

    def test_cti_sums_group_trust(self, trust_table):
        assert trust_table.cti([0, 1, 2]) == pytest.approx(3.0)
        trust_table.penalize(0)
        assert trust_table.cti([0, 1, 2]) < 3.0

    def test_cti_of_empty_group_is_zero(self, trust_table):
        assert trust_table.cti([]) == 0.0

    def test_report_counters(self, trust_table):
        trust_table.penalize(3)
        trust_table.penalize(3)
        trust_table.reward(3)
        entry = trust_table.entry(3)
        assert entry.faulty_reports == 2
        assert entry.correct_reports == 1

    def test_below_threshold_lists_distrusted(self):
        table = TrustTable(
            TrustParameters(lam=1.0, fault_rate=0.1), node_ids=range(3)
        )
        table.penalize(1)  # v=0.9 -> TI=e^-0.9 ~ 0.41
        assert table.below_threshold(0.5) == (1,)
        assert table.below_threshold(0.1) == ()

    def test_forget_removes_entry(self, trust_table):
        trust_table.penalize(0)
        trust_table.forget(0)
        assert 0 not in trust_table
        assert trust_table.ti(0) == 1.0  # back to default

    def test_set_v_rejects_negative(self, trust_table):
        with pytest.raises(ValueError):
            trust_table.set_v(0, -0.1)


class TestSerialisation:
    def test_export_import_roundtrip(self, trust_table):
        trust_table.penalize(0)
        trust_table.penalize(0)
        trust_table.reward(1)
        state = trust_table.export_state()
        fresh = TrustTable(trust_table.params)
        fresh.import_state(state)
        for node_id in range(10):
            assert fresh.ti(node_id) == pytest.approx(trust_table.ti(node_id))

    def test_clone_is_independent(self, trust_table):
        trust_table.penalize(0)
        clone = trust_table.clone()
        clone.penalize(0)
        assert clone.ti(0) < trust_table.ti(0)

    def test_clone_preserves_counters(self, trust_table):
        trust_table.penalize(5)
        clone = trust_table.clone()
        assert clone.entry(5).faulty_reports == 1

    def test_iteration_is_sorted(self, trust_table):
        assert list(trust_table) == list(range(10))


class TestTrustEntry:
    def test_negative_v_rejected(self):
        with pytest.raises(ValueError):
            TrustEntry(v=-1.0)
