"""Randomized equivalence: flat clustering vs. the Point-scalar reference.

:func:`~repro.core.clustering.cluster_reports_flat` must be
*bit-identical* to the reference implementation
(``tests/oracles/clustering.py``) -- same member indices, same cluster
ordering, and exactly equal (``==``) centre coordinates -- across random
windows, tie constructions (coincident points, points exactly at the
``r_error`` boundary), and the degenerate empty / single-report inputs.
"""

import numpy as np
import pytest

from repro.network.geometry import Point

from tests.core.test_clustering import cluster_points
from tests.oracles.clustering import cluster_reports_reference


def assert_identical(fast, ref):
    """Cluster lists match exactly: order, members, centre bits."""
    assert len(fast) == len(ref)
    for f, r in zip(fast, ref):
        assert f.indices == r.indices
        assert f.center == r.center


def random_window(rng, n, r_error):
    """A window with duplicates and exact-boundary pairs mixed in."""
    pts = [
        Point(float(x), float(y)) for x, y in rng.uniform(0.0, 100.0, (n, 2))
    ]
    if n >= 2:
        pts[1] = pts[0]  # coincident pair
    if n >= 4:
        # A point exactly r_error from another (3-4-5 triangle scaled),
        # probing the `distance <= r_error` boundary comparisons.
        pts[3] = Point(
            pts[2].x + 0.6 * r_error, pts[2].y + 0.8 * r_error
        )
    if n >= 6:
        pts[5] = Point(pts[4].x + r_error, pts[4].y)
    return pts


class TestDegenerateInputs:
    def test_empty(self):
        assert cluster_points([], 5.0) == []
        assert cluster_reports_reference([], 5.0) == []

    def test_single_report(self):
        p = [Point(3.0, 4.0)]
        assert_identical(
            cluster_points(p, 5.0), cluster_reports_reference(p, 5.0)
        )

    def test_two_coincident_reports(self):
        pts = [Point(7.0, 7.0), Point(7.0, 7.0)]
        assert_identical(
            cluster_points(pts, 5.0),
            cluster_reports_reference(pts, 5.0),
        )

    def test_all_coincident(self):
        pts = [Point(1.0, 2.0)] * 40
        assert_identical(
            cluster_points(pts, 5.0),
            cluster_reports_reference(pts, 5.0),
        )


class TestBoundaryTies:
    def test_points_exactly_r_error_apart(self):
        """distance == r_error exactly (3-4-5): stays one cluster in
        both paths, exercising the `<=` boundary in seeding/merging."""
        pts = [Point(0.0, 0.0), Point(3.0, 4.0), Point(6.0, 8.0)]
        assert_identical(
            cluster_points(pts, 5.0),
            cluster_reports_reference(pts, 5.0),
        )

    def test_equidistant_report_ties_to_lower_centre_index(self):
        """A report exactly midway between two seeds must land in the
        same cluster under both paths (lowest-index tie-break)."""
        pts = [Point(0.0, 0.0), Point(20.0, 0.0), Point(10.0, 0.0)]
        fast = cluster_points(pts, 3.0)
        ref = cluster_reports_reference(pts, 3.0)
        assert_identical(fast, ref)

    def test_symmetric_farthest_pair_ties(self):
        """Several pairs share the maximum separation; both paths must
        seed from the first (lowest-index) pair."""
        pts = [
            Point(0.0, 0.0),
            Point(10.0, 0.0),
            Point(0.0, 10.0),
            Point(10.0, 10.0),
        ] * 3
        assert_identical(
            cluster_points(pts, 2.0),
            cluster_reports_reference(pts, 2.0),
        )


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_fast_path_bit_identical(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for _ in range(25):
            n = int(rng.integers(2, 140))
            r_error = float(rng.uniform(0.5, 20.0))
            pts = random_window(rng, n, r_error)
            assert_identical(
                cluster_points(pts, r_error),
                cluster_reports_reference(pts, r_error),
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_dispatch_matches_reference_both_sides_of_crossover(self, seed):
        """Sizes straddle the 16- and 18-report crossovers where numpy
        copies of the heuristic used to take over; the one routine must
        match the reference on both sides."""
        rng = np.random.default_rng(2000 + seed)
        for n in (2, 15, 16, 17, 18, 19, 60):
            r_error = float(rng.uniform(1.0, 10.0))
            pts = random_window(rng, n, r_error)
            assert_identical(
                cluster_points(pts, r_error),
                cluster_reports_reference(pts, r_error),
            )

    def test_dense_ties_many_duplicates(self):
        """Windows dominated by duplicated positions: tie-breaking by
        index must agree everywhere."""
        rng = np.random.default_rng(99)
        base = [
            Point(float(x), float(y))
            for x, y in rng.uniform(0.0, 50.0, (6, 2))
        ]
        pts = [base[int(i)] for i in rng.integers(0, 6, 80)]
        assert_identical(
            cluster_points(pts, 4.0),
            cluster_reports_reference(pts, 4.0),
        )
