"""Property-based tests for greedy geographic routing."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.network.geometry import Point, Region
from repro.network.multihop import RoutingTable
from repro.network.topology import Deployment, grid_deployment

coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
node_sets = st.lists(
    st.tuples(coords, coords), min_size=2, max_size=20, unique=True
)


def build_table(positions, radio_range):
    deployment = Deployment(region=Region.square(100.0))
    for i, (x, y) in enumerate(positions):
        deployment.add(i, Point(x, y))
    return RoutingTable(deployment, radio_range=radio_range)


@given(positions=node_sets,
       radio_range=st.floats(min_value=5.0, max_value=150.0,
                             allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_routes_are_loop_free_and_bounded(positions, radio_range):
    table = build_table(positions, radio_range)
    n = len(positions)
    for dst in range(min(n, 4)):
        if dst == n - 1:
            continue
        path = table.route(n - 1, dst)
        if path is not None:
            assert len(path) == len(set(path))  # loop-free
            assert path[0] == n - 1
            assert path[-1] == dst


@given(positions=node_sets)
@settings(max_examples=60, deadline=None)
def test_full_range_always_routes_in_one_hop(positions):
    table = build_table(positions, radio_range=150.0)
    path = table.route(0, len(positions) - 1)
    assert path == [0, len(positions) - 1]


@given(side=st.integers(min_value=2, max_value=6))
@settings(max_examples=30, deadline=None)
def test_grid_is_fully_connected_at_adjacent_range(side):
    """A square grid with range just above the cell pitch routes between
    every pair of nodes.  (Non-square node counts produce anisotropic
    cell pitches for which the premise does not hold.)"""
    n = side * side
    deployment = grid_deployment(n, Region.square(100.0))
    ids = deployment.node_ids()
    # Cell pitch: distance between the first two grid nodes.
    if len(ids) < 2:
        return
    pitch = deployment.position_of(ids[0]).distance_to(
        deployment.position_of(ids[1])
    )
    table = RoutingTable(deployment, radio_range=pitch * 1.5)
    assert table.route(ids[0], ids[-1]) is not None
    assert table.route(ids[-1], ids[0]) is not None


@given(positions=node_sets,
       radio_range=st.floats(min_value=5.0, max_value=60.0,
                             allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_next_hop_is_always_a_neighbor(positions, radio_range):
    table = build_table(positions, radio_range)
    n = len(positions)
    for src in range(min(n, 3)):
        nxt = table.next_hop(src, n - 1)
        if nxt is not None and nxt != n - 1:
            assert nxt in table.neighbors(src)


@given(positions=node_sets)
@settings(max_examples=40, deadline=None)
def test_route_to_self_is_trivial(positions):
    table = build_table(positions, radio_range=30.0)
    assert table.next_hop(0, 0) == 0
