"""The object-path §3.2 decision engine: the oracle for the kernel.

:class:`LocationDecisionEngine` is the original window pipeline over
:class:`LocationReport` objects -- sort and dedupe through Python sets,
the §2.1 implausibility gate, Point-scalar clustering, and one CTI vote
per event cluster.  It is kept semantically frozen so the randomized
differential suites (``tests/core/test_decision_kernel.py``,
``tests/property/test_decision_kernel_properties.py``) can prove
:meth:`repro.core.decision_kernel.DecisionKernel.decide_rows`
bit-identical to it: same decisions, same supporter/dissenter tuples,
same trust-update call sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.core.baseline import MajorityVoter
from repro.core.binary import CtiVoter
from repro.core.clustering import ReportCluster
from repro.core.decision_kernel import Verdict
from repro.network.geometry import Point
from repro.network.topology import Deployment
from repro.obs.spans import NULL_SPANS

from tests.oracles.clustering import cluster_reports_reference as cluster_reports

Voter = Union[CtiVoter, MajorityVoter]


@dataclass(frozen=True)
class LocationReport:
    """One node's resolved location report as seen by the cluster head.

    Attributes
    ----------
    node_id:
        The reporting node.
    location:
        Absolute event location implied by the report (node position
        displaced by the reported ``(r, theta)`` offset).
    time:
        Simulation time the report arrived at the CH.
    """

    node_id: int
    location: Point
    time: float = 0.0


class LocationDecisionEngine:
    """Turns a window of location reports into located event decisions.

    Parameters
    ----------
    deployment:
        Node positions; the CH "knows the topology of the cluster" (§2)
        and uses it both to resolve offsets and to find event neighbours.
    sensing_radius:
        ``r_s`` -- nodes within this range of a location are its event
        neighbours and were expected to report.
    r_error:
        The localisation error bound used by the clustering heuristic
        and the accuracy metric.
    voter:
        A :class:`CtiVoter` (TIBFIT) or :class:`MajorityVoter`
        (baseline).
    min_cluster_fraction:
        Event clusters holding fewer than this fraction of the window's
        reports can still win their vote only on trust; the fraction
        exists purely as an optional spam guard and defaults to 0
        (paper-faithful: every cluster is voted on).
    """

    #: Span collector (rebound by ``ClusterHead.attach``); the class
    #: default keeps standalone engines span-free at zero cost.
    spans = NULL_SPANS

    def __init__(
        self,
        deployment: Deployment,
        sensing_radius: float,
        r_error: float,
        voter: Voter,
        min_cluster_fraction: float = 0.0,
    ) -> None:
        if sensing_radius <= 0:
            raise ValueError(
                f"sensing_radius must be positive, got {sensing_radius}"
            )
        if r_error <= 0:
            raise ValueError(f"r_error must be positive, got {r_error}")
        if not 0.0 <= min_cluster_fraction <= 1.0:
            raise ValueError("min_cluster_fraction must be in [0, 1]")
        self.deployment = deployment
        self.sensing_radius = sensing_radius
        self.r_error = r_error
        self.voter = voter
        self.min_cluster_fraction = min_cluster_fraction
        # Warm the spatial index with r_s as the grid cell size: every
        # per-cluster event-neighbour query is a disk of exactly this
        # radius, so a query touches at most a 3x3 block of cells.
        deployment.ensure_index(sensing_radius)

    def decide(
        self,
        reports: Sequence[LocationReport],
        excluded_nodes: Sequence[int] = (),
    ) -> List[Verdict]:
        """Process one collection window of reports.

        Parameters
        ----------
        reports:
            All reports that arrived within the window.  Duplicate
            reports from one node keep only the earliest (a faulty node
            cannot stuff the ballot).
        excluded_nodes:
            Nodes diagnosed faulty and isolated; their reports are
            ignored and they are not counted as expected reporters.

        Returns
        -------
        One :class:`Verdict` per event cluster, dominant cluster first.
        Empty when no usable reports arrived.
        """
        excluded = set(excluded_nodes)
        unique = self._dedupe(reports, excluded)
        unique = self._drop_implausible(unique, window=len(reports))
        if not unique:
            return []

        clusters = cluster_reports(
            [r.location for r in unique], self.r_error
        )
        min_size = self.min_cluster_fraction * len(unique)
        decisions = []
        spans = self.spans
        if spans.enabled:
            # _drop_implausible left spans.current on the window.filter
            # span; each cluster parents there, not under its sibling.
            window_ctx = spans.current
            for cluster in clusters:
                if len(cluster) < min_size:
                    continue
                spans.current = window_ctx
                decisions.append(
                    self._vote_cluster(cluster, unique, excluded)
                )
            spans.current = window_ctx
            return decisions
        for cluster in clusters:
            if len(cluster) < min_size:
                continue
            decisions.append(self._vote_cluster(cluster, unique, excluded))
        return decisions

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _dedupe(
        reports: Sequence[LocationReport], excluded: set
    ) -> List[LocationReport]:
        # The circle tracker delivers groups already sorted by
        # (time, node_id) -- see CircleTracker._close_group -- so the
        # common case is a linear sortedness check, not an O(n log n)
        # re-sort per window.  Direct callers passing unsorted reports
        # still get the earliest-wins order via the fallback sort.
        ordered: Sequence[LocationReport] = reports
        for i in range(1, len(reports)):
            prev = reports[i - 1]
            cur = reports[i]
            if (prev.time, prev.node_id) > (cur.time, cur.node_id):
                ordered = sorted(
                    reports, key=lambda r: (r.time, r.node_id)
                )
                break
        seen = set()
        unique = []
        for report in ordered:
            if report.node_id in excluded or report.node_id in seen:
                continue
            seen.add(report.node_id)
            unique.append(report)
        return unique

    def _drop_implausible(
        self, reports: List[LocationReport], window: Optional[int] = None
    ) -> List[LocationReport]:
        """Reject reports claiming events the reporter could not sense.

        §2.1 defines reporting "an event outside of its sensing radius"
        as a false alarm; since the CH knows every node's position (§2),
        such a report is invalid on its face.  The sender is penalised
        directly (no vote needed) when the engine's voter keeps trust.
        A small slack (``r_error``) allows for honest perception noise
        pushing a borderline claim just past the radius.
        """
        plausible: List[LocationReport] = []
        liars: List[int] = []
        limit = self.sensing_radius + self.r_error
        for report in reports:
            try:
                node_pos = self.deployment.position_of(report.node_id)
            except KeyError:
                continue
            if node_pos.distance_to(report.location) <= limit:
                plausible.append(report)
            else:
                liars.append(report.node_id)
        spans = self.spans
        if spans.enabled:
            # Emitted before the gate penalties so those trust
            # transitions parent under the filter span.
            spans.current = spans.point(
                "window.filter",
                parent=spans.current,
                window=window if window is not None else len(reports),
                kept=[r.node_id for r in plausible],
                gated=list(liars),
            )
        if liars and hasattr(self.voter, "trust"):
            self.voter.trust.penalize_many(liars)
        return plausible

    def _vote_cluster(
        self,
        cluster: ReportCluster,
        reports: Sequence[LocationReport],
        excluded: set,
    ) -> Verdict:
        supporters = tuple(
            sorted(reports[i].node_id for i in cluster.indices)
        )
        supporter_set = set(supporters)
        neighbors = [
            node_id
            for node_id in self.deployment.event_neighbors(
                cluster.center, self.sensing_radius
            )
            if node_id not in excluded
        ]
        dissenters = tuple(
            node_id for node_id in neighbors if node_id not in supporter_set
        )
        spans = self.spans
        cluster_ctx = 0
        if spans.enabled:
            cluster_ctx = spans.point(
                "window.cluster",
                parent=spans.current,
                x=cluster.center.x,
                y=cluster.center.y,
                members=list(supporters),
                dissenters=list(dissenters),
            )
            spans.current = cluster_ctx
        if supporter_set.isdisjoint(neighbors):
            # None of the claimants could have sensed an event at the
            # location they collectively imply: the cluster refutes
            # itself (§2.1's out-of-radius false alarm, caught after
            # clustering).  Claimants are penalised; nobody is rewarded.
            if hasattr(self.voter, "trust"):
                self.voter.trust.penalize_many(supporters)
            return Verdict(
                occurred=False,
                location=cluster.center,
                supporters=supporters,
                dissenters=dissenters,
                span_id=cluster_ctx,
            )
        return Verdict(
            occurred=self.voter.decide(supporters, dissenters),
            location=cluster.center,
            supporters=supporters,
            dissenters=dissenters,
            span_id=cluster_ctx,
        )
