"""Property-based tests for the report-clustering heuristic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.geometry import Point

from tests.core.test_clustering import cluster_points

coords = st.floats(min_value=0.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)
points = st.builds(Point, x=coords, y=coords)
point_lists = st.lists(points, min_size=1, max_size=30)
r_errors = st.floats(min_value=0.5, max_value=20.0, allow_nan=False)


@given(locations=point_lists, r_error=r_errors)
@settings(max_examples=80)
def test_partition_covers_every_report_exactly_once(locations, r_error):
    clusters = cluster_points(locations, r_error)
    assigned = sorted(i for c in clusters for i in c.indices)
    assert assigned == list(range(len(locations)))


@given(locations=point_lists, r_error=r_errors)
@settings(max_examples=80)
def test_centers_lie_within_report_bounding_box(locations, r_error):
    clusters = cluster_points(locations, r_error)
    xs = [p.x for p in locations]
    ys = [p.y for p in locations]
    for cluster in clusters:
        assert min(xs) - 1e-6 <= cluster.center.x <= max(xs) + 1e-6
        assert min(ys) - 1e-6 <= cluster.center.y <= max(ys) + 1e-6


@given(locations=point_lists, r_error=r_errors)
@settings(max_examples=80)
def test_center_is_members_centroid(locations, r_error):
    clusters = cluster_points(locations, r_error)
    for cluster in clusters:
        member_points = [locations[i] for i in cluster.indices]
        cx = sum(p.x for p in member_points) / len(member_points)
        cy = sum(p.y for p in member_points) / len(member_points)
        assert abs(cluster.center.x - cx) < 1e-6
        assert abs(cluster.center.y - cy) < 1e-6


@given(locations=point_lists, r_error=r_errors)
@settings(max_examples=80)
def test_clusters_sorted_by_descending_size(locations, r_error):
    clusters = cluster_points(locations, r_error)
    sizes = [len(c) for c in clusters]
    assert sizes == sorted(sizes, reverse=True)


@given(center=points, r_error=r_errors,
       jitters=st.lists(
           st.tuples(st.floats(min_value=-1.0, max_value=1.0),
                     st.floats(min_value=-1.0, max_value=1.0)),
           min_size=2, max_size=15))
@settings(max_examples=80)
def test_tight_blob_is_never_split(center, r_error, jitters):
    """Reports within a ball of radius r_error/4 must form one cluster."""
    scale = r_error / 4.0
    blob = [
        Point(center.x + dx * scale, center.y + dy * scale)
        for dx, dy in jitters
    ]
    clusters = cluster_points(blob, r_error)
    assert len(clusters) == 1


@given(r_error=r_errors, gap_factor=st.floats(min_value=4.0, max_value=10.0))
@settings(max_examples=40)
def test_two_distant_blobs_are_never_merged(r_error, gap_factor):
    gap = r_error * gap_factor
    blob_a = [Point(0.0, 0.0), Point(r_error / 10.0, 0.0)]
    blob_b = [Point(gap, 0.0), Point(gap + r_error / 10.0, 0.0)]
    clusters = cluster_points(blob_a + blob_b, r_error)
    assert len(clusters) == 2


@given(locations=point_lists, r_error=r_errors)
@settings(max_examples=40)
def test_clustering_is_deterministic(locations, r_error):
    a = cluster_points(locations, r_error)
    b = cluster_points(locations, r_error)
    assert [c.indices for c in a] == [c.indices for c in b]
