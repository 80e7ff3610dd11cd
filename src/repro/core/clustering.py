"""Event-report clustering heuristic (§3.2, steps 1-5).

After ``T_out`` elapses, the cluster head groups the collected location
reports into *event clusters* of radius ``r_error`` -- each a candidate
event location.  The heuristic is K-means-like but chooses its own K:

1. find the two mutually farthest reports (the paper phrases this as
   computing the pairwise distances and taking the extreme pair);
2. seed two clusters at that farthest pair;
3. any report farther than ``r_error`` from every existing centre seeds
   a new cluster, until all remaining reports are within ``r_error`` of
   some centre;
4. assign every remaining report to its nearest centre and update each
   cluster's centre of gravity;
5. if two or more centres fall within ``r_error`` of one another, merge
   them at the weighted average of the centres and repeat the rounds
   until no membership changes.

Reports whose location is off by more than ``r_error`` end up in their
own (small) clusters and are naturally out-voted -- "this design
successfully throws out event reports from nodes that make a
localization error of more than r_error" (§3.2).

One implementation runs, :func:`cluster_reports_flat`, over the
window's coordinates as parallel float lists.  Every distance is the
correctly-rounded ``sqrt(dx*dx + dy*dy)`` (see
:meth:`repro.network.geometry.Point.distance_to`), nearest-centre ties
go to the lowest centre index, and centres of gravity are accumulated
left to right in ascending report order.  The original per-``Point``
implementation is the oracle of the randomized equivalence suites
(``tests/oracles/clustering.py``); the output matches it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.network.geometry import Point

_MAX_ROUNDS = 100


@dataclass(frozen=True)
class ReportCluster:
    """One event cluster: member report indices and the centre of gravity.

    ``indices`` refer to positions in the report sequence passed to
    :func:`cluster_reports_flat`, so callers can map members back to the
    original reports (and thus reporting nodes).
    """

    indices: Tuple[int, ...]
    center: Point

    def __len__(self) -> int:
        return len(self.indices)


def cluster_reports_flat(
    xs: List[float], ys: List[float], r_error: float
) -> List[ReportCluster]:
    """Group report locations into event clusters of radius ``r_error``.

    Parameters
    ----------
    xs / ys:
        Absolute event locations implied by the reports, as parallel
        lists of Python floats (the CH resolves each node's ``(r,
        theta)`` offset before calling this).
    r_error:
        The application's localisation error bound.

    Returns
    -------
    list of :class:`ReportCluster`
        Clusters sorted by descending size then ascending first index,
        so the dominant candidate event comes first.
    """
    if r_error <= 0:
        raise ValueError(f"r_error must be positive, got {r_error}")
    n = len(xs)
    if n == 0:
        return []
    if n == 1:
        return [ReportCluster(indices=(0,), center=Point(xs[0], ys[0]))]
    sqrt = math.sqrt
    # Bounding-box pre-check: rounding is monotone, so every pairwise
    # distance is <= the bbox diagonal even in floating point, and a
    # diagonal within r_error guarantees the farthest-pair scan below
    # would land in the single-cluster exit.  The nominal TIBFIT
    # window -- every correct reporter of one event, claims within the
    # error radius -- hits this in O(n) instead of O(n^2).
    wx = max(xs) - min(xs)
    wy = max(ys) - min(ys)
    if sqrt(wx * wx + wy * wy) <= r_error:
        single = True
        bi, bj = 0, 1
    else:
        best_d = -1.0
        bi, bj = 0, 1
        for i in range(n):
            xi = xs[i]
            yi = ys[i]
            for j in range(i + 1, n):
                dx = xi - xs[j]
                dy = yi - ys[j]
                d = sqrt(dx * dx + dy * dy)
                if d > best_d:
                    best_d = d
                    bi, bj = i, j
        single = best_d <= r_error
    if single:
        # The window's diameter is within r_error: the rounds provably
        # converge to a single all-member cluster (both seed centroids
        # lie inside the window's hull, so step 5 merges them at once),
        # and its centre of gravity is the same left-to-right centroid
        # _build_clusters would produce.  This is the no-fault common
        # case -- skip the seeding and assignment rounds entirely.
        sx = 0.0
        sy = 0.0
        for k in range(n):
            sx += xs[k]
            sy += ys[k]
        return [
            ReportCluster(
                indices=tuple(range(n)),
                center=Point(sx / float(n), sy / float(n)),
            )
        ]

    # Steps 2-3: farthest-pair seeds, then coverage seeds.
    cxl = [xs[bi], xs[bj]]
    cyl = [ys[bi], ys[bj]]
    for k in range(n):
        if k == bi or k == bj:
            continue
        xk = xs[k]
        yk = ys[k]
        for c in range(len(cxl)):
            dx = xk - cxl[c]
            dy = yk - cyl[c]
            if sqrt(dx * dx + dy * dy) <= r_error:
                break
        else:
            cxl.append(xk)
            cyl.append(yk)

    # Each round ends with an assignment against its final centres, and
    # the next round would open by recomputing that very assignment
    # (same centres, same points) -- carry it forward instead.
    assignment: List[int] = []
    current = _assign(xs, ys, cxl, cyl)
    for _ in range(_MAX_ROUNDS):
        cxl, cyl = _recenter(xs, ys, current, len(cxl))
        cxl, cyl, current = _merge_close_centers(xs, ys, cxl, cyl, r_error)
        if current == assignment:
            break
        assignment = current

    return _build_clusters(xs, ys, assignment)


def _assign(
    xs: List[float],
    ys: List[float],
    cxl: List[float],
    cyl: List[float],
) -> List[int]:
    """Step 4: nearest-centre assignment (ties to the lower centre index)."""
    assignment = []
    append = assignment.append
    sqrt = math.sqrt
    k = len(cxl)
    for idx in range(len(xs)):
        x = xs[idx]
        y = ys[idx]
        dx = x - cxl[0]
        dy = y - cyl[0]
        best_d = sqrt(dx * dx + dy * dy)
        best_c = 0
        for c in range(1, k):
            dx = x - cxl[c]
            dy = y - cyl[c]
            d = sqrt(dx * dx + dy * dy)
            if d < best_d:
                best_d = d
                best_c = c
        append(best_c)
    return assignment


def _recenter(
    xs: List[float],
    ys: List[float],
    assignment: List[int],
    k: int,
) -> Tuple[List[float], List[float]]:
    """Update each cluster's centre of gravity; empty clusters vanish.

    Sums accumulate left to right in ascending report order.
    """
    sx = [0.0] * k
    sy = [0.0] * k
    counts = [0] * k
    for idx, cluster_idx in enumerate(assignment):
        sx[cluster_idx] += xs[idx]
        sy[cluster_idx] += ys[idx]
        counts[cluster_idx] += 1
    cxl = [sx[a] / float(counts[a]) for a in range(k) if counts[a]]
    cyl = [sy[a] / float(counts[a]) for a in range(k) if counts[a]]
    return cxl, cyl


def _merge_close_centers(
    xs: List[float],
    ys: List[float],
    cxl: List[float],
    cyl: List[float],
    r_error: float,
) -> Tuple[List[float], List[float], List[int]]:
    """Step 5: merge centres within ``r_error`` at their weighted average.

    An assignment round is run against the incoming centres first so the
    member counts used as merge weights are aligned with the (possibly
    just recentred) centre list.  When no merge fires, the closing
    assignment would rerun against the same centres -- reuse the
    opening one instead.
    """
    assignment = _assign(xs, ys, cxl, cyl)
    counts = [0] * len(cxl)
    for cluster_idx in assignment:
        counts[cluster_idx] += 1

    any_merge = False
    merged = True
    while merged and len(cxl) > 1:
        merged = False
        for a in range(len(cxl)):
            for b in range(a + 1, len(cxl)):
                ddx = cxl[a] - cxl[b]
                ddy = cyl[a] - cyl[b]
                if math.sqrt(ddx * ddx + ddy * ddy) <= r_error:
                    weight_a = max(counts[a], 1)
                    weight_b = max(counts[b], 1)
                    total = float(weight_a + weight_b)
                    new_x = (cxl[a] * weight_a + cxl[b] * weight_b) / total
                    new_y = (cyl[a] * weight_a + cyl[b] * weight_b) / total
                    cxl = [
                        c for idx, c in enumerate(cxl) if idx not in (a, b)
                    ] + [new_x]
                    cyl = [
                        c for idx, c in enumerate(cyl) if idx not in (a, b)
                    ] + [new_y]
                    counts = [
                        n for idx, n in enumerate(counts) if idx not in (a, b)
                    ] + [weight_a + weight_b]
                    merged = True
                    any_merge = True
                    break
            if merged:
                break

    if any_merge:
        assignment = _assign(xs, ys, cxl, cyl)
    return cxl, cyl, assignment


def _build_clusters(
    xs: List[float],
    ys: List[float],
    assignment: List[int],
) -> List[ReportCluster]:
    # Group by centre index with a dense list (centre indices are small
    # ints).  The closing sort key (-size, first member) is unique per
    # cluster, so the output order does not depend on centre numbering.
    groups: List[List[int]] = [[] for _ in range(max(assignment) + 1)]
    for report_idx, cluster_idx in enumerate(assignment):
        groups[cluster_idx].append(report_idx)
    clusters = []
    for indices in groups:
        if not indices:
            continue
        sx = 0.0
        sy = 0.0
        for i in indices:
            sx += xs[i]
            sy += ys[i]
        size = float(len(indices))
        clusters.append(
            ReportCluster(
                indices=tuple(indices), center=Point(sx / size, sy / size)
            )
        )
    clusters.sort(key=lambda c: (-len(c.indices), c.indices[0]))
    return clusters
