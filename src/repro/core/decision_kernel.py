"""The cluster-head decision kernel over report rows (§2.1, §3.2).

A collection window is a plain list of report rows, each a
``(node_id, x, y, time)`` tuple of an int and three floats: the sender,
the resolved event location it claims, and its arrival time.  The
cluster head builds one row per arriving report, a closed window is
sorted into delivery order by :data:`ROW_ORDER`, and the session
journal records the same rows.

:class:`DecisionKernel` runs the window pipeline over those rows:
dedupe (earliest report per node wins), the §2.1 implausibility gate
against the deployment's ``positions``, §3.2 clustering through
:func:`~repro.core.clustering.cluster_reports_flat`, and one
supporter/dissenter CTI vote per cluster over the event neighbours from
:meth:`~repro.network.topology.Deployment.event_neighbors_list`.
Windows hold a few dozen rows at most, so the pipeline is plain float
loops.

A cluster's members are the reporters ``R`` supporting "an event
happened at this cluster's centre of gravity", the centre's other event
neighbours form ``NR``, and the vote's outcome is one :class:`Verdict`;
stray or malicious clusters are out-voted by trusted silent neighbours.
Nodes 0 and 1 report an event at (11, 11); node 2, also within ``r_s``
of it, stays silent:

>>> from repro.core.binary import CtiVoter
>>> from repro.core.trust import TrustParameters, TrustTable
>>> from repro.network.geometry import Point, Region
>>> from repro.network.topology import Deployment
>>> deployment = Deployment(Region.square(40.0))
>>> for node_id, (x, y) in enumerate([(10, 10), (12, 10), (10, 12), (30, 30)]):
...     deployment.add(node_id, Point(x, y))
>>> voter = CtiVoter(TrustTable(TrustParameters(), deployment.node_ids()))
>>> kernel = DecisionKernel(deployment, 5.0, 2.0, voter)
>>> rows = [(0, 11.0, 11.0, 0.1), (1, 11.0, 11.0, 0.2)]
>>> kernel.decide_rows(rows)  # doctest: +NORMALIZE_WHITESPACE
[Verdict(occurred=True, location=Point(x=11.0, y=11.0), supporters=(0, 1),
         dissenters=(2,), span_id=0)]

The original object pipeline over per-report objects is the oracle of
the randomized and property differential suites
(``tests/oracles/location.py``, driven by
``tests/core/test_decision_kernel.py`` and
``tests/property/test_decision_kernel_properties.py``).  The kernel is
bit-identical to it by construction, not by tolerance:

* every distance is the same correctly-rounded ``sqrt(dx*dx + dy*dy)``
  expression (see :meth:`repro.network.geometry.Point.distance_to`);
* dedupe keeps the first row per node over rows sorted by
  ``(time, node_id)`` -- the oracle's earliest-wins rule;
* liar penalties apply in window order, cluster votes in cluster order,
  through the very same :class:`~repro.core.trust.TrustTable` calls;
* node ids are the rows' plain Python ints, so trust-table keys, span
  records, and replay fingerprints hash, serialise and compare
  identically to the oracle's tuples.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.baseline import MajorityVoter
from repro.core.binary import CtiVoter
from repro.core.clustering import ReportCluster, cluster_reports_flat
from repro.network.geometry import Point
from repro.network.topology import Deployment
from repro.obs.spans import NULL_SPANS

__all__ = [
    "DecisionKernel",
    "ROW_ORDER",
    "Row",
    "Verdict",
]

Voter = Union[CtiVoter, MajorityVoter]

#: One report: ``(node_id, x, y, time)``.
Row = Tuple[int, float, float, float]

#: Sort key of a window's delivery order: arrival time, then node id.
#: ``list.sort`` is stable, so rows with equal keys keep arrival order.
ROW_ORDER = itemgetter(3, 0)


class Verdict(NamedTuple):
    """The verdict on one event cluster, or on a binary window
    (``location`` None).  ``location`` is the cluster's centre of
    gravity; ``supporters`` / ``dissenters`` are ``R`` / ``NR``, sorted;
    ``span_id`` is the ``window.cluster`` span, 0 without one."""

    occurred: bool
    location: Optional[Point]
    supporters: Tuple[int, ...]
    dissenters: Tuple[int, ...]
    span_id: int = 0


class DecisionKernel:
    """Turns a closed window of report rows into located verdicts.

    Parameters
    ----------
    deployment:
        Node positions; the CH "knows the topology of the cluster" (§2)
        and uses it both for the implausibility gate and to find event
        neighbours.
    sensing_radius:
        ``r_s`` -- nodes within this range of a location are its event
        neighbours and were expected to report.
    r_error:
        The localisation error bound used by the clustering heuristic.
    voter:
        A :class:`CtiVoter` (TIBFIT) or :class:`MajorityVoter`
        (baseline).  Every event cluster is voted on.
    """

    #: Span collector (rebound by ``ClusterHead.attach``); the class
    #: default keeps standalone kernels span-free at zero cost.
    spans = NULL_SPANS

    def __init__(
        self,
        deployment: Deployment,
        sensing_radius: float,
        r_error: float,
        voter: Voter,
    ) -> None:
        if sensing_radius <= 0:
            raise ValueError(
                f"sensing_radius must be positive, got {sensing_radius}"
            )
        if not 0 < r_error < math.inf:
            raise ValueError(
                f"r_error must be positive and finite, got {r_error}"
            )
        self.deployment = deployment
        self.sensing_radius = sensing_radius
        self.r_error = r_error
        self.voter = voter
        self._limit = sensing_radius + r_error
        self._has_trust = hasattr(voter, "trust")
        # Warm the spatial index with r_s as the grid cell size: every
        # per-cluster event-neighbour query is a disk of exactly this
        # radius, so a query touches at most a 3x3 block of cells.
        deployment.ensure_index(sensing_radius)

    def decide_rows(
        self,
        rows: Sequence[Row],
        excluded_nodes: Sequence[int] = (),
    ) -> List[Verdict]:
        """Process one closed window of report rows.

        ``rows`` must already be in delivery order (sorted by
        :data:`ROW_ORDER`).  Duplicate reports from one node
        keep only the earliest (a faulty node cannot stuff the ballot);
        reports from ``excluded_nodes`` (diagnosed and isolated) are
        ignored, and those nodes are not counted as expected reporters.

        Dedupe is a seen-set pass over the sorted rows, the §2.1 gate a
        dict position lookup plus one scalar ``sqrt`` per report.
        Returns one :class:`Verdict` per event cluster, dominant cluster
        first; empty when no usable reports arrived.
        """
        excluded = set(excluded_nodes)
        limit = self._limit

        # Seeding the seen-set with the exclusions folds the excluded
        # check into the duplicate check: both mean "skip this row with
        # no gate and no penalty".
        seen: set = set(excluded)
        f_ids: List[int] = []
        f_xs: List[float] = []
        f_ys: List[float] = []
        liars: List[int] = []
        get = self.deployment.positions.get
        for node_id, x, y, _time in rows:
            if node_id in seen:
                continue
            seen.add(node_id)
            pos = get(node_id)
            if pos is None:
                continue  # unknown sender: dropped, no penalty
            dx = pos.x - x
            dy = pos.y - y
            if math.sqrt(dx * dx + dy * dy) <= limit:
                f_ids.append(node_id)
                f_xs.append(x)
                f_ys.append(y)
            else:
                liars.append(node_id)
        spans = self.spans
        if spans.enabled:
            # Emitted before the gate penalties so those trust
            # transitions parent under the filter span.
            spans.current = spans.point(
                "window.filter",
                parent=spans.current,
                window=len(rows),
                kept=list(f_ids),
                gated=list(liars),
            )
        if liars and self._has_trust:
            self.voter.trust.penalize_many(liars)
        if not f_ids:
            return []

        clusters = cluster_reports_flat(f_xs, f_ys, self.r_error)
        if not spans.enabled:
            return [self._vote_cluster(c, f_ids, excluded) for c in clusters]
        # Each cluster parents under the window.filter span, not under
        # its sibling cluster's vote machinery.
        window_ctx = spans.current
        verdicts: List[Verdict] = []
        for cluster in clusters:
            spans.current = window_ctx
            verdicts.append(self._vote_cluster(cluster, f_ids, excluded))
        spans.current = window_ctx
        return verdicts

    def _vote_cluster(
        self,
        cluster: ReportCluster,
        ids: List[int],
        excluded: set,
    ) -> Verdict:
        """Supporter/dissenter split and CTI vote for one cluster."""
        supporters = tuple(sorted([ids[i] for i in cluster.indices]))
        supporter_set = set(supporters)
        center = cluster.center
        # Ascending node ids.
        neighbors = self.deployment.event_neighbors_list(
            center.x, center.y, self.sensing_radius
        )
        if excluded:
            neighbors = [
                node_id for node_id in neighbors
                if node_id not in excluded
            ]
        dissenters = tuple(
            [n for n in neighbors if n not in supporter_set]
        )
        spans = self.spans
        cluster_ctx = 0
        if spans.enabled:
            cluster_ctx = spans.point(
                "window.cluster",
                parent=spans.current,
                x=center.x,
                y=center.y,
                members=list(supporters),
                dissenters=list(dissenters),
            )
            spans.current = cluster_ctx
        if supporter_set.isdisjoint(neighbors):
            # No claimant could have sensed an event where the cluster
            # implies one: the cluster refutes itself (§2.1's
            # out-of-radius false alarm, caught after clustering).
            # Claimants are penalised; nobody is rewarded.
            if self._has_trust:
                self.voter.trust.penalize_many(supporters)
            return Verdict(False, center, supporters, dissenters, cluster_ctx)
        return Verdict(
            self.voter.decide(supporters, dissenters),
            center,
            supporters,
            dissenters,
            cluster_ctx,
        )
