"""Unit tests for the event-report clustering heuristic (§3.2)."""

import pytest

from repro.core.clustering import cluster_reports_flat
from repro.network.geometry import Point


def cluster_points(points, r_error):
    """:func:`cluster_reports_flat` over a sequence of ``Point``s."""
    return cluster_reports_flat(
        [p.x for p in points], [p.y for p in points], r_error
    )


class TestBasics:
    def test_empty_input_yields_no_clusters(self):
        assert cluster_points([], 5.0) == []

    def test_single_report_is_its_own_cluster(self):
        clusters = cluster_points([Point(3.0, 4.0)], 5.0)
        assert len(clusters) == 1
        assert clusters[0].indices == (0,)
        assert clusters[0].center == Point(3.0, 4.0)

    def test_invalid_r_error_rejected(self):
        with pytest.raises(ValueError):
            cluster_points([Point(0, 0)], 0.0)

    def test_tight_blob_forms_one_cluster(self):
        pts = [
            Point(10.0, 10.0),
            Point(10.5, 9.8),
            Point(9.7, 10.2),
            Point(10.2, 10.4),
        ]
        clusters = cluster_points(pts, 5.0)
        assert len(clusters) == 1
        assert sorted(clusters[0].indices) == [0, 1, 2, 3]
        assert clusters[0].center.distance_to(Point(10.1, 10.1)) < 1.0

    def test_two_far_blobs_form_two_clusters(self):
        blob_a = [Point(0.0, 0.0), Point(1.0, 0.5), Point(0.5, 1.0)]
        blob_b = [Point(50.0, 50.0), Point(51.0, 50.5)]
        clusters = cluster_points(blob_a + blob_b, 5.0)
        assert len(clusters) == 2
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [2, 3]

    def test_every_report_assigned_exactly_once(self):
        pts = [Point(float(x), float(y)) for x in range(0, 40, 7)
               for y in range(0, 40, 11)]
        clusters = cluster_points(pts, 5.0)
        assigned = sorted(i for c in clusters for i in c.indices)
        assert assigned == list(range(len(pts)))

    def test_dominant_cluster_sorted_first(self):
        big = [Point(0.0, float(i) * 0.5) for i in range(5)]
        small = [Point(80.0, 80.0)]
        clusters = cluster_points(big + small, 5.0)
        assert len(clusters[0]) == 5


class TestOutlierRejection:
    def test_far_outlier_gets_its_own_cluster(self):
        """§3.2: reports erring by more than r_error are thrown out of
        the main cluster (they form separate, out-votable clusters)."""
        good = [Point(10.0, 10.0), Point(10.4, 9.6), Point(9.8, 10.1)]
        outlier = [Point(30.0, 30.0)]
        clusters = cluster_points(good + outlier, 5.0)
        assert len(clusters) == 2
        assert clusters[0].indices == (0, 1, 2)
        assert clusters[1].indices == (3,)

    def test_borderline_report_joins_nearest_cluster(self):
        pts = [Point(0.0, 0.0), Point(1.0, 0.0), Point(4.0, 0.0)]
        clusters = cluster_points(pts, 5.0)
        assert len(clusters) == 1


class TestMerging:
    def test_nearby_seeds_merge_into_one_cluster(self):
        """Step 5: centres within r_error are merged at their weighted
        average, so a stretched blob still resolves to one event."""
        pts = [Point(0.0, 0.0), Point(3.0, 0.0), Point(6.0, 0.0)]
        clusters = cluster_points(pts, 5.0)
        # The extreme pair seeds clusters 6.0 apart (> r_error), but the
        # middle point drags the centres inside r_error of each other.
        assert len(clusters) == 1
        assert clusters[0].center.x == pytest.approx(3.0)

    def test_merge_weights_respect_member_counts(self):
        heavy = [Point(0.0, 0.0), Point(0.5, 0.0), Point(-0.5, 0.0),
                 Point(0.0, 0.5)]
        light = [Point(4.5, 0.0)]
        clusters = cluster_points(heavy + light, 5.0)
        assert len(clusters) == 1
        assert abs(clusters[0].center.x) < 1.5  # pulled toward the heavy side

    def test_identical_points_cluster_together(self):
        pts = [Point(7.0, 7.0)] * 6
        clusters = cluster_points(pts, 5.0)
        assert len(clusters) == 1
        assert len(clusters[0]) == 6


class TestConcurrentSeparation:
    def test_two_events_beyond_r_error_stay_separate(self):
        """§3.3's premise: concurrent events at least r_error apart are
        resolvable into distinct clusters."""
        event_a = [Point(20.0, 20.0), Point(21.0, 19.5), Point(19.2, 20.3)]
        event_b = [Point(33.0, 20.0), Point(32.5, 20.8), Point(33.8, 19.4)]
        clusters = cluster_points(event_a + event_b, 5.0)
        assert len(clusters) == 2
        centers = sorted(c.center.x for c in clusters)
        assert centers[0] == pytest.approx(20.0, abs=1.5)
        assert centers[1] == pytest.approx(33.0, abs=1.5)

    def test_three_way_separation(self):
        blobs = []
        for cx, cy in ((10.0, 10.0), (40.0, 10.0), (25.0, 40.0)):
            blobs.extend(
                [Point(cx + dx, cy) for dx in (-0.5, 0.0, 0.5)]
            )
        clusters = cluster_points(blobs, 5.0)
        assert len(clusters) == 3
        assert all(len(c) == 3 for c in clusters)
