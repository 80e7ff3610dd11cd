"""Randomized equivalence: flat-array trust engine vs. the dict oracle.

The interned-code engine (`TrustTable`) must be *bit-identical* to the
dict-of-entries reference (`TrustTableReference`, kept in
``tests/oracles/trust.py``) -- exactly
equal (``==``, never ``approx``) `ti`, `cti`, `tis`, `below_threshold`,
`export_state`, and vote CTIs -- across random update interleavings,
the `_V_EPSILON` reward snap, auto-registration on update (but never on
read), never-seen nodes contributing TI = 1.0 to a CTI, forget / clone /
import_state, and the partition-memo invalidation paths.
"""

import math
import random

import pytest

from repro.core.binary import CtiVoter
from repro.core.trust import TrustParameters, TrustTable, _V_EPSILON

from tests.oracles.trust import TrustTableReference

PARAMS = TrustParameters(lam=0.25, fault_rate=0.1)


def make_pair(node_ids=(), params=PARAMS):
    return TrustTable(params, node_ids), TrustTableReference(params, node_ids)


def assert_identical(engine, oracle, probe_ids=()):
    """Every observable agrees bit-for-bit between the two tables."""
    assert len(engine) == len(oracle)
    assert list(engine) == list(oracle)
    assert engine.tis() == oracle.tis()
    assert engine.export_state() == oracle.export_state()
    for node_id in list(oracle) + list(probe_ids):
        assert engine.ti(node_id) == oracle.ti(node_id)
        assert (node_id in engine) == (node_id in oracle)
    for threshold in (0.0, 0.2, 0.5, 0.8, 1.0, 1.5):
        assert engine.below_threshold(threshold) == oracle.below_threshold(
            threshold
        )
    members = sorted(oracle)
    assert engine.cti(members) == oracle.cti(members)
    assert engine.total_ti() == oracle.total_ti()


class TestScalarOperations:
    def test_fresh_tables_identical(self):
        engine, oracle = make_pair(range(5))
        assert_identical(engine, oracle, probe_ids=[99])

    def test_penalize_returns_same_ti(self):
        engine, oracle = make_pair(range(3))
        for _ in range(7):
            assert engine.penalize(1) == oracle.penalize(1)
        assert_identical(engine, oracle)

    def test_reward_floor_snap(self):
        """The `_V_EPSILON` snap restores exactly v = 0.0 / TI = 1.0."""
        engine, oracle = make_pair([0])
        engine.penalize(0)
        oracle.penalize(0)
        # 1 - f_r = 0.9 = 9 rewards of f_r = 0.1, modulo float error
        # below _V_EPSILON: the snap must fire identically on both.
        for _ in range(9):
            assert engine.reward(0) == oracle.reward(0)
        assert engine.entry(0).v == 0.0
        assert oracle.entry(0).v == 0.0
        assert engine.ti(0) == 1.0

    def test_reward_fresh_node_stays_at_full_trust(self):
        engine, oracle = make_pair([0])
        assert engine.reward(0) == oracle.reward(0) == 1.0

    def test_updates_auto_register_reads_do_not(self):
        engine, oracle = make_pair()
        assert engine.ti(7) == oracle.ti(7) == 1.0
        assert engine.cti([7, 8]) == oracle.cti([7, 8]) == 2.0
        assert 7 not in engine and 7 not in oracle
        engine.penalize(7)
        oracle.penalize(7)
        assert 7 in engine and 7 in oracle
        engine.reward(8)
        oracle.reward(8)
        assert_identical(engine, oracle)

    def test_set_v_rejects_negative(self):
        engine, oracle = make_pair()
        with pytest.raises(ValueError):
            engine.set_v(0, -0.5)
        with pytest.raises(ValueError):
            oracle.set_v(0, -0.5)

    def test_entry_view_matches_oracle_entry(self):
        engine, oracle = make_pair([0])
        for table in (engine, oracle):
            table.penalize(0)
            table.penalize(0)
            table.reward(0)
        assert engine.entry(0).v == oracle.entry(0).v
        assert engine.entry(0).correct_reports == 1
        assert engine.entry(0).faulty_reports == 2
        assert oracle.entry(0).correct_reports == 1
        assert oracle.entry(0).faulty_reports == 2

    def test_entry_auto_registers(self):
        engine, oracle = make_pair()
        assert engine.entry(5).v == oracle.entry(5).v == 0.0
        assert 5 in engine and 5 in oracle


class TestVoteEquivalence:
    def test_vote_bits_match_on_repeated_partitions(self):
        """The memoised fast path returns oracle-exact CTIs every round."""
        engine, oracle = make_pair(range(20))
        fast = CtiVoter(engine)
        slow = CtiVoter(oracle)
        reporters = list(range(12))
        silent = list(range(12, 20))
        for _ in range(300):
            a = fast.decide(reporters, silent)
            b = slow.decide(reporters, silent)
            assert a == b
        assert_identical(engine, oracle)

    def test_vote_with_unregistered_participants(self):
        """Never-seen nodes contribute TI = 1.0, then join via updates."""
        engine, oracle = make_pair(range(4))
        fast = CtiVoter(engine)
        slow = CtiVoter(oracle)
        # 100..102 are unknown: first vote takes the generic path and
        # registers them; the repeat takes the fast path.
        for _ in range(3):
            a = fast.decide([0, 1, 100], [2, 3, 101, 102])
            b = slow.decide([0, 1, 100], [2, 3, 101, 102])
            assert a == b
        assert_identical(engine, oracle)

    def test_vote_overlap_raises_both(self):
        engine, oracle = make_pair(range(4))
        with pytest.raises(ValueError, match="both reporter"):
            CtiVoter(engine).decide([0, 1], [1, 2])
        with pytest.raises(ValueError, match="both reporter"):
            CtiVoter(oracle).decide([0, 1], [1, 2])

    def test_symmetric_tie(self):
        """Fresh equal-size groups tie exactly; verdict is no-event."""
        engine, oracle = make_pair(range(10))
        a = CtiVoter(engine).decide(range(5), range(5, 10))
        b = CtiVoter(oracle).decide(range(5), range(5, 10))
        assert a == b
        assert a.tie and not a.occurred

    def test_advisory_vote_leaves_tables_identical(self):
        engine, oracle = make_pair(range(8))
        a = CtiVoter(engine).decide(range(5), range(5, 8), apply_updates=False)
        b = CtiVoter(oracle).decide(range(5), range(5, 8), apply_updates=False)
        assert a == b
        assert_identical(engine, oracle)

    def test_empty_groups(self):
        engine, oracle = make_pair(range(3))
        for r, nr in (([], [0, 1]), ([0, 1], []), ([], [])):
            a = engine.cti_vote(r, nr)
            b = oracle.cti_vote(r, nr)
            assert a == b
        assert_identical(engine, oracle)


class TestStructuralOperations:
    def test_forget_then_revote_invalidates_memo(self):
        """Forgetting a participant must drop the memoised partition."""
        engine, oracle = make_pair(range(6))
        fast = CtiVoter(engine)
        slow = CtiVoter(oracle)
        for _ in range(5):
            assert fast.decide([0, 1, 2], [3, 4, 5]) == slow.decide(
                [0, 1, 2], [3, 4, 5]
            )
        engine.forget(4)
        oracle.forget(4)
        assert_identical(engine, oracle, probe_ids=[4])
        # 4 is now never-seen again: TI 1.0 through the generic path,
        # then re-registered by the update.
        for _ in range(3):
            assert fast.decide([0, 1, 2], [3, 4, 5]) == slow.decide(
                [0, 1, 2], [3, 4, 5]
            )
        assert_identical(engine, oracle)

    def test_forget_unknown_is_noop(self):
        engine, oracle = make_pair(range(3))
        engine.forget(99)
        oracle.forget(99)
        assert_identical(engine, oracle)

    def test_clone_is_deep_and_identical(self):
        engine, oracle = make_pair(range(5))
        for table in (engine, oracle):
            table.penalize(0)
            table.penalize(0)
            table.reward(1)
        e_clone = engine.clone()
        o_clone = oracle.clone()
        assert_identical(e_clone, o_clone)
        assert e_clone.entry(0).faulty_reports == 2
        # Divergence after cloning stays local to each copy.
        e_clone.penalize(3)
        o_clone.penalize(3)
        assert_identical(engine, oracle)
        assert_identical(e_clone, o_clone)
        assert engine.ti(3) != e_clone.ti(3)

    def test_export_import_round_trip(self):
        engine, oracle = make_pair(range(4))
        for table in (engine, oracle):
            table.penalize(0)
            table.penalize(1)
            table.reward(0)
        e2, o2 = make_pair()
        e2.import_state(engine.export_state())
        o2.import_state(oracle.export_state())
        assert_identical(e2, o2)
        assert e2.export_state() == engine.export_state()

    def test_batch_matches_scalar_loop(self):
        engine, oracle = make_pair(range(10))
        engine.penalize_many([0, 1, 2, 57])
        oracle.penalize_many([0, 1, 2, 57])
        engine.reward_many([0, 5, 58])
        oracle.reward_many([0, 5, 58])
        assert_identical(engine, oracle)


class TestRandomizedInterleavings:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_operation_stream(self, seed):
        """Long random op streams keep every observable bit-identical."""
        rng = random.Random(seed)
        engine, oracle = make_pair(range(rng.randrange(0, 12)))
        fast = CtiVoter(engine)
        slow = CtiVoter(oracle)
        ids = list(range(20))
        for _ in range(rng.randrange(120, 260)):
            op = rng.randrange(8)
            if op == 0:
                n = rng.choice(ids)
                assert engine.penalize(n) == oracle.penalize(n)
            elif op == 1:
                n = rng.choice(ids)
                assert engine.reward(n) == oracle.reward(n)
            elif op == 2:
                group = rng.sample(ids, rng.randrange(0, 6))
                engine.penalize_many(group)
                oracle.penalize_many(group)
            elif op == 3:
                group = rng.sample(ids, rng.randrange(0, 6))
                engine.reward_many(group)
                oracle.reward_many(group)
            elif op == 4:
                n = rng.choice(ids)
                v = rng.choice([0.0, 0.05, 1.0, 3.7, rng.random() * 5])
                engine.set_v(n, v)
                oracle.set_v(n, v)
            elif op == 5:
                n = rng.choice(ids)
                engine.forget(n)
                oracle.forget(n)
            elif op == 6:
                pool = rng.sample(ids, rng.randrange(2, 12))
                cut = rng.randrange(1, len(pool))
                r, nr = pool[:cut], pool[cut:]
                assert fast.decide(r, nr) == slow.decide(r, nr)
            else:
                engine, oracle = engine.clone(), oracle.clone()
                fast = CtiVoter(engine)
                slow = CtiVoter(oracle)
        assert_identical(engine, oracle, probe_ids=ids)

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_partition_hammering(self, seed):
        """Fixed partitions re-voted many times (the memo's best case)
        interleaved with scalar writes that change codes under it."""
        rng = random.Random(1000 + seed)
        engine, oracle = make_pair(range(15))
        fast = CtiVoter(engine)
        slow = CtiVoter(oracle)
        partitions = []
        for _ in range(3):
            pool = rng.sample(range(15), 10)
            partitions.append((pool[:6], pool[6:]))
        for _ in range(200):
            r, nr = rng.choice(partitions)
            assert fast.decide(r, nr) == slow.decide(r, nr)
            if rng.random() < 0.3:
                n = rng.randrange(15)
                assert engine.penalize(n) == oracle.penalize(n)
        assert_identical(engine, oracle)


class TestInternalsStayCoherent:
    def test_interned_ti_matches_math_exp(self):
        """Cached per-code TIs are exactly math.exp(-lam * v)."""
        engine, _ = make_pair(range(5))
        for _ in range(30):
            engine.penalize(0)
            engine.reward(1)
        for v, ti in zip(engine._code_v, engine._code_ti):
            assert ti == math.exp(-PARAMS.lam * v)
            assert ti == PARAMS.ti_of(v)

    def test_epsilon_constant_unchanged(self):
        assert _V_EPSILON == 1e-9
        assert TrustTable._V_EPSILON == TrustTableReference._V_EPSILON
