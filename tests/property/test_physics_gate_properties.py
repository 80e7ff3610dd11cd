"""The event-neighbour disk query is the DES's one physics gate.

The harness asks only the nodes ``Deployment.event_neighbors`` returns
to compose a report, and ``SensorNode.compose_report`` does not test
``SensingModel.detects`` again.  That is sound only if the two agree on
every node, including nodes on the sensing circle and one ulp to either
side of it, whatever cell size the spatial index was built with.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.geometry import Point, Region
from repro.network.topology import Deployment
from repro.sensors.sensing import SensingConfig, SensingModel

SIDE = 100.0
REGION = Region.square(SIDE)

coords = st.floats(min_value=0.0, max_value=SIDE, allow_nan=False)
radii = st.floats(min_value=0.5, max_value=60.0, allow_nan=False)


def on_circle(centre, r, theta):
    """A point ``detects`` puts exactly ``r`` from ``centre``.

    Starts from the rounded point at bearing ``theta`` and walks its x
    coordinate an ulp at a time toward the circle; returns ``None`` when
    the walk steps over it without landing on it.
    """
    x = centre.x + r * math.cos(theta)
    y = centre.y + r * math.sin(theta)
    for _ in range(64):
        d = Point(x, y).distance_to(centre)
        if d == r:
            return Point(x, y)
        outward = (d < r) == (x >= centre.x)
        x = math.nextafter(x, math.inf if outward else -math.inf)
    return None


def ulp_neighbours(p):
    """``p`` and the four points one ulp from it along an axis."""
    return [
        p,
        Point(math.nextafter(p.x, math.inf), p.y),
        Point(math.nextafter(p.x, -math.inf), p.y),
        Point(p.x, math.nextafter(p.y, math.inf)),
        Point(p.x, math.nextafter(p.y, -math.inf)),
    ]


@settings(max_examples=300, deadline=None)
# Four nodes exactly r_s away along the axes, each with its four
# one-ulp neighbours, under a grid of cell size r_s (the harness's).
@example(
    event=Point(40.0, 40.0), r=20.0, bearings=[], scattered=[],
    cell_scale=1.0,
)
# The node one ulp below (0.5, 1.0) is 0.5 away after rounding but lies
# in the cell below the unpadded bounding box's edge.
@example(
    event=Point(1.0, 1.0), r=0.5, bearings=[], scattered=[],
    cell_scale=None,
)
@given(
    event=st.builds(Point, coords, coords),
    r=radii,
    bearings=st.lists(
        st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False),
        max_size=6,
    ),
    scattered=st.lists(st.builds(Point, coords, coords), max_size=20),
    cell_scale=st.sampled_from([None, 1.0, 0.37, 2.5]),
)
def test_event_neighbours_are_exactly_the_detecting_nodes(
    event, r, bearings, scattered, cell_scale
):
    candidates = list(scattered)
    # Nodes on the circle along the four axes (the grid's bounding-box
    # edges) and the drawn bearings, each with its one-ulp neighbours.
    for theta in [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, *bearings]:
        boundary = on_circle(event, r, theta)
        if boundary is not None:
            candidates.extend(ulp_neighbours(boundary))
    deployment = Deployment(region=REGION)
    for p in candidates:
        if REGION.contains(p) and p not in deployment.positions.values():
            deployment.add(len(deployment), p)
    if cell_scale is not None:
        deployment.ensure_index(r * cell_scale)

    sensing = SensingModel(SensingConfig(sensing_radius=r))
    detecting = [
        node_id
        for node_id, p in sorted(deployment.positions.items())
        if sensing.detects(p, event)
    ]
    assert deployment.event_neighbors(event, r) == detecting

