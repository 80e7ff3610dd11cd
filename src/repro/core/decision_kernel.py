"""Struct-of-arrays cluster-head decision kernel (§2.1, §3.2).

* :class:`ReportBuffer` -- preallocated parallel row arrays (node id,
  x, y, arrival time).  The cluster head appends one row per arriving
  report, so a collection window closes already in struct-of-arrays
  form; no per-report objects exist on the hot path.
* :class:`DecisionKernel` -- the window pipeline over those rows:
  dedupe (earliest report per node wins), the §2.1 implausibility gate
  against the deployment's ``positions``, §3.2 clustering through
  :func:`~repro.core.clustering.cluster_reports_flat`, and one
  supporter/dissenter CTI vote per cluster over the event
  neighbours from
  :meth:`~repro.network.topology.Deployment.event_neighbors_list`.

Windows hold a few dozen rows at most, where per-call numpy dispatch
costs more than the arithmetic, so the pipeline runs as plain float
loops over the rows' ``tolist()`` values.

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
* supporter/dissenter tuples are plain Python ints (``.tolist()``), so
  trust-table keys, span records, and replay fingerprints hash,
  serialise and compare identically to the oracle's tuples.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Union

import numpy as np

from repro.core.baseline import MajorityVoter
from repro.core.binary import CtiVoter
from repro.core.clustering import ReportCluster, cluster_reports_flat
from repro.core.location import LocatedDecision
from repro.network.topology import Deployment
from repro.obs.spans import NULL_SPANS

__all__ = [
    "DecisionKernel",
    "ReportBuffer",
]

Voter = Union[CtiVoter, MajorityVoter]


class ReportBuffer:
    """Growing preallocated row arrays for one CH's report stream.

    One row per accepted report: ``ids`` (int64 node id), ``xs`` /
    ``ys`` (float64 resolved event location), ``times`` (float64
    arrival time).  Rows accumulate across overlapping collection
    circles and the tracker resets the buffer whenever every circle has
    closed, so capacity tracks the largest burst, not the run length.
    """

    __slots__ = ("ids", "xs", "ys", "times", "_len")

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.ids = np.empty(capacity, dtype=np.int64)
        self.xs = np.empty(capacity, dtype=np.float64)
        self.ys = np.empty(capacity, dtype=np.float64)
        self.times = np.empty(capacity, dtype=np.float64)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def append(self, node_id: int, x: float, y: float, time: float) -> int:
        """Store one report row; returns its row index."""
        row = self._len
        if row == len(self.ids):
            self._grow()
        self.ids[row] = node_id
        self.xs[row] = x
        self.ys[row] = y
        self.times[row] = time
        self._len = row + 1
        return row

    def _grow(self) -> None:
        cap = 2 * len(self.ids)
        for name in ("ids", "xs", "ys", "times"):
            old = getattr(self, name)
            grown = np.empty(cap, dtype=old.dtype)
            grown[: self._len] = old[: self._len]
            setattr(self, name, grown)

    def reset(self) -> None:
        """Forget every row (all referencing circles have closed)."""
        self._len = 0


class DecisionKernel:
    """Turns a closed window of report rows into located decisions.

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
        if r_error <= 0:
            raise ValueError(f"r_error must be positive, got {r_error}")
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
        buffer: ReportBuffer,
        rows: np.ndarray,
        excluded_nodes: Sequence[int] = (),
    ) -> List[LocatedDecision]:
        """Process one closed window given as buffer row indices.

        ``rows`` must already be sorted by ``(time, node_id)`` -- the
        circle tracker's close order.  Duplicate reports from one node
        keep only the earliest (a faulty node cannot stuff the ballot);
        reports from ``excluded_nodes`` (diagnosed and isolated) are
        ignored, and those nodes are not counted as expected reporters.

        Dedupe is a seen-set pass over the sorted rows, the §2.1 gate a
        dict position lookup plus one scalar ``sqrt`` per report.
        Returns one :class:`~repro.core.location.LocatedDecision` per
        event cluster, dominant cluster first; empty when no usable
        reports arrived.
        """
        ids = buffer.ids[rows].tolist()
        xs = buffer.xs[rows].tolist()
        ys = buffer.ys[rows].tolist()
        excluded = set(excluded_nodes)
        positions = self.deployment.positions
        limit = self._limit

        # Seeding the seen-set with the exclusions folds the excluded
        # check into the duplicate check: both mean "skip this row with
        # no gate and no penalty".
        seen: set = set(excluded)
        f_ids: List[int] = []
        f_xs: List[float] = []
        f_ys: List[float] = []
        liars: List[int] = []
        get = positions.get
        for idx in range(len(ids)):
            node_id = ids[idx]
            if node_id in seen:
                continue
            seen.add(node_id)
            pos = get(node_id)
            if pos is None:
                continue  # unknown sender: dropped, no penalty
            x = xs[idx]
            y = ys[idx]
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
                window=int(len(rows)),
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
        decisions: List[LocatedDecision] = []
        for cluster in clusters:
            spans.current = window_ctx
            decisions.append(self._vote_cluster(cluster, f_ids, excluded))
        spans.current = window_ctx
        return decisions

    def _vote_cluster(
        self,
        cluster: ReportCluster,
        ids: List[int],
        excluded: set,
    ) -> LocatedDecision:
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
            return LocatedDecision(
                occurred=False,
                location=center,
                supporters=supporters,
                dissenters=dissenters,
                vote=None,
                span_id=cluster_ctx,
            )
        vote = self.voter.decide(supporters, dissenters)
        return LocatedDecision(
            occurred=vote.occurred,
            location=center,
            supporters=supporters,
            dissenters=dissenters,
            vote=vote,
            span_id=cluster_ctx,
        )
