"""The stateless majority-voting baseline.

Every experiment in the paper compares TIBFIT against "the baseline
system, which uses majority voting to make event decisions" (§4).  The
baseline treats every event neighbour's voice as weight 1 regardless of
history, so it collapses as soon as faulty nodes are a majority of the
event neighbourhood -- exactly the behaviour quantified analytically in
§5 (Fig. 10).

The verdict is a head count, and an exact tie fails:

>>> MajorityVoter().decide([0, 1, 2], [3, 4])
True
>>> MajorityVoter().decide([0, 1], [2, 3])
False
"""

from __future__ import annotations

from typing import Iterable


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
    ) -> bool:
        """Run one unweighted vote over an ``R`` / ``NR`` partition and
        return the verdict."""
        r = set(reporters)
        nr = set(non_reporters)
        overlap = r & nr
        if overlap:
            raise ValueError(
                f"nodes {sorted(overlap)} appear as both reporter and "
                "non-reporter"
            )
        return len(r) > len(nr)
