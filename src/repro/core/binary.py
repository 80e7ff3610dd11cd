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

from time import perf_counter
from typing import Dict, Iterable, NamedTuple, Tuple

from repro.core.trust import TrustTable
from repro.obs.registry import NULL_REGISTRY
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
        True when both CTIs were exactly equal (verdict then follows the
        tie-break rule; see :class:`CtiVoter`).
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
        The trust table to read and (optionally) update.
    tie_breaks_to_occurred:
        §3.1 does not define the exact-tie case, but the §5 analysis
        requires a *strict* majority (``Z >= floor(N/2) + 1``), so the
        default (False) makes an exact tie fail -- no event.  Flip to
        study the other convention (cheaper false positives).
    """

    #: Span collector (rebound by ``ClusterHead.attach``).  The voter is
    #: the single funnel for every CTI vote -- scalar, memoised, and
    #: reference table paths all pass through :meth:`decide` -- so the
    #: ``trust.vote`` span lives here; the table-level transition spans
    #: stay silent during the vote (``TrustTable._in_vote``).
    spans = NULL_SPANS

    def __init__(
        self, trust: TrustTable, tie_breaks_to_occurred: bool = False
    ) -> None:
        self.trust = trust
        self.tie_breaks_to_occurred = tie_breaks_to_occurred
        self.votes_taken = 0
        # Instrumented callers (ClusterHead.attach) swap in a live
        # registry; the disabled default costs one attribute check per
        # vote, guarded by the kernel throughput bench.
        self.metrics = NULL_REGISTRY

    def decide(
        self,
        reporters: Iterable[int],
        non_reporters: Iterable[int],
        apply_updates: bool = True,
    ) -> BinaryVoteResult:
        """Run one CTI vote over an ``R`` / ``NR`` partition.

        Parameters
        ----------
        reporters:
            Event neighbours that reported the event within ``T_out``.
        non_reporters:
            Event neighbours that stayed silent.
        apply_updates:
            When False the vote is advisory -- trust is read but not
            written.  Shadow cluster heads use their own cloned tables,
            but read-only votes are also useful for what-if analysis.

        The decision kernel feeds sorted tuples of plain Python ints
        here, so the trust table's partition memo (keyed on the raw
        tuples) hits on repeated partitions.

        Raises
        ------
        ValueError
            If the two groups overlap (a node cannot be both).
        """
        metrics = self.metrics
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
        if metrics.enabled:
            start = perf_counter()
            occurred, r, nr, cti_r, cti_nr, tie, winners, losers = (
                self.trust.cti_vote(
                    reporters,
                    non_reporters,
                    apply_updates=apply_updates,
                    tie_breaks_to_occurred=self.tie_breaks_to_occurred,
                )
            )
            metrics.timer("trust.vote.wall").observe(perf_counter() - start)
            metrics.histogram("trust.vote.margin").observe(
                abs(cti_r - cti_nr)
            )
            metrics.counter("trust.votes").inc()
        else:
            occurred, r, nr, cti_r, cti_nr, tie, winners, losers = (
                self.trust.cti_vote(
                    reporters,
                    non_reporters,
                    apply_updates=apply_updates,
                    tie_breaks_to_occurred=self.tie_breaks_to_occurred,
                )
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
                applied=apply_updates,
            )
            if apply_updates:
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

    def preview(self, reporters: Iterable[int], non_reporters: Iterable[int]) -> bool:
        """What the verdict *would* be, with no trust mutation."""
        return self.decide(reporters, non_reporters, apply_updates=False).occurred

    def trust_snapshot(self) -> Dict[int, float]:
        """Convenience passthrough of the current TI map."""
        return self.trust.tis()
