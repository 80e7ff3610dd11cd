"""Unit tests for the stateless majority-voting baseline."""

import pytest

from repro.core.baseline import MajorityVoter


class TestMajorityVoting:
    def test_headcount_majority_wins(self):
        voter = MajorityVoter()
        assert voter.decide([0, 1, 2], [3, 4]).occurred
        assert not voter.decide([0, 1], [2, 3, 4]).occurred

    def test_tie_defaults_to_no_event(self):
        voter = MajorityVoter()
        result = voter.decide([0, 1], [2, 3])
        assert result.tie
        assert not result.occurred

    def test_statelessness_no_history_effect(self):
        """The same partition always yields the same verdict -- there is
        no trust memory to shift it (contrast with CtiVoter)."""
        voter = MajorityVoter()
        first = voter.decide([0, 1, 2], [3, 4, 5, 6]).occurred
        for _ in range(50):
            result = voter.decide([0, 1, 2], [3, 4, 5, 6])
        assert result.occurred == first is False

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            MajorityVoter().decide([0], [0])

    def test_duplicates_within_group_collapse(self):
        voter = MajorityVoter()
        result = voter.decide([0, 0, 0], [1, 2])
        assert result.reporters == (0,)
        assert not result.occurred

    def test_margin(self):
        result = MajorityVoter().decide([0, 1, 2], [3])
        assert result.margin == 2
