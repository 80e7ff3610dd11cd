"""Cumulative-TI voting for binary events (§3.1).

After the report-collection window ``T_out`` closes, the cluster head
partitions the event neighbours into the reporters ``R`` and the
non-reporters ``NR``, sums each group's trust indices, and lets the
group with the larger cumulative trust index (CTI) win.  Trust of the
winners is raised, trust of the losers lowered, providing detection,
diagnosis, and masking in one step.  A small group of reliable nodes can
outvote a larger group of distrusted ones -- this is the mechanism that
lets TIBFIT survive a compromised *majority* once enough state exists.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Tuple

from repro.core.trust import TrustTable
from repro.obs.spans import NULL_SPANS


class BinaryVoteResult(NamedTuple):
    """Outcome of one CTI vote.

    A NamedTuple (rather than a dataclass) because one is constructed
    per vote and C-level tuple construction keeps it off the hot path's
    profile.

    Attributes
    ----------
    occurred:
        The CH's verdict: did the event happen?
    reporters / non_reporters:
        The two partitions as sorted tuples.
    cti_reporters / cti_non_reporters:
        Each group's cumulative TI *before* updates were applied.
    tie:
        True when both CTIs were exactly equal (the event then fails;
        see :meth:`TrustTable.cti_vote`).
    rewarded / penalized:
        Node ids whose trust moved up / down as a consequence.
    """

    occurred: bool
    reporters: Tuple[int, ...]
    non_reporters: Tuple[int, ...]
    cti_reporters: float
    cti_non_reporters: float
    tie: bool
    rewarded: Tuple[int, ...]
    penalized: Tuple[int, ...]

    @property
    def margin(self) -> float:
        """Winning CTI minus losing CTI (0 on a tie)."""
        return abs(self.cti_reporters - self.cti_non_reporters)


class CtiVoter:
    """Stateful CTI voting engine bound to a :class:`TrustTable`.

    Parameters
    ----------
    trust:
        The trust table every vote reads and updates.
    """

    #: Span collector (rebound by ``ClusterHead.attach``).  The voter is
    #: the single funnel for every CTI vote, so the ``trust.vote`` span
    #: and its reward / penalize children live here;
    #: ``TrustTable.cti_vote`` emits no spans of its own.
    spans = NULL_SPANS

    def __init__(self, trust: TrustTable) -> None:
        self.trust = trust
        self.votes_taken = 0

    def decide(
        self,
        reporters: Iterable[int],
        non_reporters: Iterable[int],
    ) -> BinaryVoteResult:
        """Run one CTI vote over an ``R`` / ``NR`` partition.

        The winners are rewarded and the losers penalised in the bound
        table; a shadow cluster head votes on its own mirror's table.

        Parameters
        ----------
        reporters:
            Event neighbours that reported the event within ``T_out``.
        non_reporters:
            Event neighbours that stayed silent.

        Raises
        ------
        ValueError
            If the two groups overlap (a node cannot be both).
        """
        spans = self.spans
        if spans.enabled:
            # Pre-vote TIs must be read before cti_vote mutates the
            # table.  Sorting here matches the sorted r/nr tuples the
            # vote returns, so the ti lists align index-for-index.
            reporters = tuple(sorted(reporters))
            non_reporters = tuple(sorted(non_reporters))
            ti = self.trust.ti
            pre_r = [ti(n) for n in reporters]
            pre_nr = [ti(n) for n in non_reporters]
        occurred, r, nr, cti_r, cti_nr, tie, winners, losers = (
            self.trust.cti_vote(reporters, non_reporters)
        )
        self.votes_taken += 1
        if spans.enabled:
            vote_ctx = spans.point(
                "trust.vote",
                parent=spans.current,
                occurred=occurred,
                tie=tie,
                cti_r=cti_r,
                cti_nr=cti_nr,
                reporters=list(r),
                non_reporters=list(nr),
                ti_r=pre_r,
                ti_nr=pre_nr,
                applied=True,
            )
            ti = self.trust.ti
            if winners:
                spans.point(
                    "trust.reward",
                    parent=vote_ctx,
                    nodes=list(winners),
                    ti=[ti(n) for n in winners],
                )
            if losers:
                spans.point(
                    "trust.penalize",
                    parent=vote_ctx,
                    nodes=list(losers),
                    ti=[ti(n) for n in losers],
                )
        return BinaryVoteResult(
            occurred, r, nr, cti_r, cti_nr, tie, winners, losers
        )
