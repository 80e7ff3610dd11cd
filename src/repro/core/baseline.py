"""The stateless majority-voting baseline.

Every experiment in the paper compares TIBFIT against "the baseline
system, which uses majority voting to make event decisions" (§4).  The
baseline treats every event neighbour's voice as weight 1 regardless of
history, so it collapses as soon as faulty nodes are a majority of the
event neighbourhood -- exactly the behaviour quantified analytically in
§5 (Fig. 10).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Tuple


class MajorityVoteResult(NamedTuple):
    """Outcome of one unweighted majority vote.

    A tuple record, as :class:`~repro.core.binary.BinaryVoteResult` is:
    one is built per vote.
    """

    occurred: bool
    reporters: Tuple[int, ...]
    non_reporters: Tuple[int, ...]
    tie: bool

    @property
    def margin(self) -> int:
        """Winning head-count minus losing head-count (0 on a tie)."""
        return abs(len(self.reporters) - len(self.non_reporters))


class MajorityVoter:
    """Stateless head-count voting over reporters vs. non-reporters.

    Its ``decide`` takes the same ``R`` / ``NR`` partition as
    :meth:`repro.core.binary.CtiVoter.decide`, so a session swaps engines
    with one flag; the baseline keeps no trust to update.  An exact tie
    fails, as it does for the CTI vote, so comparisons isolate the
    trust mechanism itself.
    """

    def decide(
        self,
        reporters: Iterable[int],
        non_reporters: Iterable[int],
    ) -> MajorityVoteResult:
        """Run one unweighted vote over an ``R`` / ``NR`` partition."""
        r = tuple(sorted(set(reporters)))
        nr = tuple(sorted(set(non_reporters)))
        overlap = set(r) & set(nr)
        if overlap:
            raise ValueError(
                f"nodes {sorted(overlap)} appear as both reporter and "
                "non-reporter"
            )
        return MajorityVoteResult(
            occurred=len(r) > len(nr),
            reporters=r,
            non_reporters=nr,
            tie=len(r) == len(nr),
        )
