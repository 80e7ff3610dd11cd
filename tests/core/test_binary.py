"""Unit tests for CTI voting over binary events (§3.1).

``CtiVoter.decide`` returns the verdict alone; the CTIs, the tie and the
reward / penalty sets are read from ``TrustTable.cti_vote``'s
``(occurred, r, nr, cti_r, cti_nr, tie, winners, losers)``.
"""

import pytest

from repro.core.binary import CtiVoter
from repro.core.trust import TrustParameters, TrustTable


def fresh_voter(lam=0.1, fr=0.01, n=10):
    table = TrustTable(
        TrustParameters(lam=lam, fault_rate=fr), node_ids=range(n)
    )
    return CtiVoter(table), table


class TestBasicVoting:
    def test_majority_of_equal_trust_wins(self):
        _, table = fresh_voter()
        occurred, _r, _nr, cti_r, cti_nr, tie, _w, _l = table.cti_vote(
            [0, 1, 2, 3, 4, 5], [6, 7, 8, 9]
        )
        assert occurred and not tie
        assert cti_r == pytest.approx(6.0)
        assert cti_nr == pytest.approx(4.0)

    def test_silent_majority_rejects_event(self):
        voter, _ = fresh_voter()
        assert voter.decide([0, 1], [2, 3, 4, 5]) is False

    def test_exact_tie_defaults_to_no_event(self):
        """Strict majority per the §5 analysis: a tie fails."""
        _, table = fresh_voter()
        occurred, *_, tie, _winners, _losers = table.cti_vote(
            [0, 1, 2, 3, 4], [5, 6, 7, 8, 9]
        )
        assert tie
        assert not occurred

    def test_verdict_is_exactly_a_bool(self):
        voter, _ = fresh_voter()
        assert type(voter.decide([0, 1, 2], [3])) is bool
        # An exact CTI tie (5.0 against 5.0) returns False.
        assert voter.decide([4, 5, 6, 7, 8], [9, 10, 11, 12, 13]) is False

    def test_overlapping_partitions_rejected(self):
        voter, _ = fresh_voter()
        with pytest.raises(ValueError):
            voter.decide([0, 1], [1, 2])

    def test_empty_reporters_loses_to_anyone(self):
        voter, _ = fresh_voter()
        assert voter.decide([], [0]) is False


class TestTrustUpdates:
    def test_winners_rewarded_losers_penalized(self):
        _, table = fresh_voter()
        table.penalize(0)  # give node 0 headroom to be rewarded
        ti_before_w = table.ti(0)
        *_, winners, losers = table.cti_vote(
            [0, 1, 2, 3, 4, 5], [6, 7, 8, 9]
        )
        assert winners == (0, 1, 2, 3, 4, 5)
        assert losers == (6, 7, 8, 9)
        assert table.ti(0) > ti_before_w
        assert table.ti(6) < 1.0

    def test_votes_taken_counts(self):
        voter, _ = fresh_voter()
        voter.decide([0], [1])
        voter.decide([0], [1])
        assert voter.votes_taken == 2


class TestStatefulMasking:
    def test_trusted_minority_beats_distrusted_majority(self):
        """The core TIBFIT claim (§3.1): earned trust outweighs headcount."""
        _, table = fresh_voter(lam=0.25, fr=0.1)
        liars = [0, 1, 2, 3, 4, 5]  # 6 of 10: a faulty majority
        honest = [6, 7, 8, 9]
        # History: liars lose a string of past votes.
        for _ in range(10):
            for liar in liars:
                table.penalize(liar)
        occurred, _r, _nr, cti_r, cti_nr, *_ = table.cti_vote(
            reporters=honest, non_reporters=liars
        )
        assert occurred
        assert cti_r > cti_nr

    def test_fresh_system_cannot_mask_majority(self):
        """Without accumulated state, a faulty majority wins -- §3.1's
        'if the initial condition consists of faulty nodes being in the
        majority, then the protocol will be unsuccessful'."""
        voter, _ = fresh_voter()
        liars = [0, 1, 2, 3, 4, 5]
        honest = [6, 7, 8, 9]
        # The lie is accepted.
        assert voter.decide(reporters=liars, non_reporters=honest)

    def test_gradual_compromise_is_tolerated(self):
        """§5's scenario: nodes fall one at a time every k events; with
        enough spacing the correct CTI stays ahead of the faulty CTI
        even when the faulty nodes reach a majority."""
        lam, fr = 0.25, 0.01
        voter, table = fresh_voter(lam=lam, fr=fr, n=11)
        k = 12  # events between compromises (> break-even for lam=0.25)
        faulty = []
        correct = list(range(11))
        detections = []
        for round_index in range(k * 8):  # compromise 8 of 11 nodes
            if round_index % k == 0 and len(faulty) < 8:
                node = correct.pop()
                faulty.append(node)
            # Correct nodes always report the (real) event; faulty never.
            detections.append(
                voter.decide(reporters=correct, non_reporters=faulty)
            )
        # Faulty nodes are 8 of 11 (a >70% majority) by the end, yet
        # detection never failed.
        assert all(detections)
        assert len(faulty) == 8
