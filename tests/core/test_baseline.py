"""Unit tests for the stateless majority-voting baseline."""

import pytest

from repro.core.baseline import MajorityVoter


class TestMajorityVoting:
    def test_headcount_majority_wins(self):
        voter = MajorityVoter()
        assert voter.decide([0, 1, 2], [3, 4]) is True
        assert voter.decide([0, 1], [2, 3, 4]) is False

    def test_tie_defaults_to_no_event(self):
        verdict = MajorityVoter().decide([0, 1], [2, 3])
        assert type(verdict) is bool
        assert verdict is False

    def test_statelessness_no_history_effect(self):
        """The same partition always yields the same verdict -- there is
        no trust memory to shift it (contrast with CtiVoter)."""
        voter = MajorityVoter()
        first = voter.decide([0, 1, 2], [3, 4, 5, 6])
        for _ in range(50):
            verdict = voter.decide([0, 1, 2], [3, 4, 5, 6])
        assert verdict == first is False

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            MajorityVoter().decide([0], [0])

    def test_duplicates_within_group_collapse(self):
        # Three reports from node 0 are one voice: 1 against 2 fails.
        assert MajorityVoter().decide([0, 0, 0], [1, 2]) is False
