"""The Point-scalar §3.2 clustering heuristic: the oracle for the kernel.

The original per-``Point`` implementation, kept semantically frozen so
the randomized equivalence suites can prove
:func:`repro.core.clustering.cluster_reports_flat` bit-identical to it
(same member indices, same cluster order, ``==`` centre coordinates).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.clustering import _MAX_ROUNDS, ReportCluster
from repro.network.geometry import (
    Point,
    centroid,
    farthest_pair,
    weighted_centroid,
)


def cluster_reports_reference(
    locations: Sequence[Point], r_error: float
) -> List[ReportCluster]:
    """Group ``Point`` report locations into clusters of radius ``r_error``.

    Same contract as :func:`repro.core.clustering.cluster_reports_flat`
    over the points' coordinates.
    """
    if r_error <= 0:
        raise ValueError(f"r_error must be positive, got {r_error}")
    n = len(locations)
    if n == 0:
        return []
    if n == 1:
        return [ReportCluster(indices=(0,), center=locations[0])]
    return _cluster_reports_scalar(locations, r_error)


def _cluster_reports_scalar(
    locations: Sequence[Point], r_error: float
) -> List[ReportCluster]:
    i, j = farthest_pair(locations)
    if locations[i].distance_to(locations[j]) <= r_error:
        # The window's diameter is within r_error: the rounds provably
        # converge to a single all-member cluster (both seed centroids
        # lie inside the window's hull, so step 5 merges them at once),
        # and its centre of gravity is the same left-to-right centroid
        # _build_clusters would produce.  This is the no-fault common
        # case -- skip the seeding and assignment rounds entirely.
        return [
            ReportCluster(
                indices=tuple(range(len(locations))),
                center=centroid(locations),
            )
        ]
    centers = _seed_centers(locations, r_error, i, j)
    # Each round ends with an assignment against its final centres, and
    # the next round would open by recomputing that very assignment
    # (same centres, same points) -- carry it forward instead.
    assignment: List[int] = []
    current = _assign(locations, centers)
    for _ in range(_MAX_ROUNDS):
        centers = _recenter(locations, current, len(centers))
        centers, current = _merge_close_centers(
            locations, centers, r_error
        )
        if current == assignment:
            break
        assignment = current

    return _build_clusters(locations, assignment)


def _seed_centers(
    locations: Sequence[Point], r_error: float, i: int, j: int
) -> List[Point]:
    """Steps 2-3: the farthest pair ``(i, j)`` seeds, then coverage seeds."""
    centers = [locations[i], locations[j]]
    for k, loc in enumerate(locations):
        if k in (i, j):
            continue
        if all(loc.distance_to(c) > r_error for c in centers):
            centers.append(loc)
    return centers


def _assign(locations: Sequence[Point], centers: Sequence[Point]) -> List[int]:
    """Step 4: nearest-centre assignment (ties to the lower centre index)."""
    assignment = []
    for loc in locations:
        best_idx = 0
        best_d = loc.distance_to(centers[0])
        for idx in range(1, len(centers)):
            d = loc.distance_to(centers[idx])
            if d < best_d:
                best_d = d
                best_idx = idx
        assignment.append(best_idx)
    return assignment


def _recenter(
    locations: Sequence[Point], assignment: Sequence[int], k: int
) -> List[Point]:
    """Update each cluster's centre of gravity; empty clusters vanish.

    Returns the new centre list; assignment indices are remapped by the
    caller via :func:`_merge_close_centers`'s reassignment round, so here
    empty clusters simply keep their old slot out of the output and the
    subsequent assign round renumbers implicitly.
    """
    members: List[List[Point]] = [[] for _ in range(k)]
    for loc, cluster_idx in zip(locations, assignment):
        members[cluster_idx].append(loc)
    return [centroid(group) for group in members if group]


def _merge_close_centers(
    locations: Sequence[Point],
    centers: List[Point],
    r_error: float,
) -> Tuple[List[Point], List[int]]:
    """Step 5: merge centres within ``r_error`` at their weighted average.

    An assignment round is run against the incoming centres first so the
    member counts used as merge weights are aligned with the (possibly
    just recentred) centre list.  When no merge fires, the closing
    assignment would rerun against the same centres -- reuse the
    opening one instead.
    """
    assignment = _assign(locations, centers)
    counts = [0] * len(centers)
    for cluster_idx in assignment:
        counts[cluster_idx] += 1

    any_merge = False
    merged = True
    while merged and len(centers) > 1:
        merged = False
        for a in range(len(centers)):
            for b in range(a + 1, len(centers)):
                if centers[a].distance_to(centers[b]) <= r_error:
                    weight_a = max(counts[a], 1)
                    weight_b = max(counts[b], 1)
                    new_center = weighted_centroid(
                        [centers[a], centers[b]], [weight_a, weight_b]
                    )
                    centers = [
                        c for idx, c in enumerate(centers) if idx not in (a, b)
                    ] + [new_center]
                    counts = [
                        n for idx, n in enumerate(counts) if idx not in (a, b)
                    ] + [weight_a + weight_b]
                    merged = True
                    any_merge = True
                    break
            if merged:
                break

    if any_merge:
        assignment = _assign(locations, centers)
    return centers, assignment


def _build_clusters(
    locations: Sequence[Point], assignment: Sequence[int]
) -> List[ReportCluster]:
    groups: dict[int, List[int]] = {}
    for report_idx, cluster_idx in enumerate(assignment):
        groups.setdefault(cluster_idx, []).append(report_idx)
    clusters = []
    for indices in groups.values():
        pts = [locations[i] for i in indices]
        clusters.append(
            ReportCluster(indices=tuple(indices), center=centroid(pts))
        )
    clusters.sort(key=lambda c: (-len(c.indices), c.indices[0]))
    return clusters
