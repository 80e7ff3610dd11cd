"""Grid spatial index: equivalence with the scalar scans + invalidation.

`Deployment.event_neighbors` / `within` / `nearest` dispatch to a
grid-bucket index above the node-count crossover.  The indexed paths
must return results *identical* to the scalar reference scans
(``tests/oracles/topology.py``) for
arbitrary deployments and query radii -- including nodes exactly on the
radius boundary, coincident nodes, and empty deployments -- and the
cached arrays must be invalidated by every mutation (`add`, `remove`,
`move`, direct-`positions` writes followed by `invalidate_index`).
"""

import numpy as np
import pytest

from repro.network.geometry import Point, Region
from repro.network.topology import (
    _INDEX_MIN_NODES,
    Deployment,
    grid_deployment,
    uniform_random_deployment,
)

from tests.oracles.topology import event_neighbors_reference, nearest_reference


@pytest.fixture
def region():
    return Region.square(100.0)


class TestIndexedQueryEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_event_neighbors_identical(self, region, seed):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(0, 350))
        d = uniform_random_deployment(n, region, rng)
        if n >= 2:
            d.move(1, d.position_of(0))  # coincident pair
        for _ in range(8):
            loc = Point(
                float(rng.uniform(-20.0, 120.0)),
                float(rng.uniform(-20.0, 120.0)),
            )
            radius = float(rng.uniform(0.0, 45.0))
            expected = event_neighbors_reference(d, loc, radius)
            assert d._event_neighbors_indexed(loc, radius) == expected
            assert d.event_neighbors(loc, radius) == expected
            assert d.event_neighbors_list(loc.x, loc.y, radius) == expected
            assert d.within(loc, radius) == d.event_neighbors(loc, radius)

    @pytest.mark.parametrize("seed", range(8))
    def test_nearest_identical_with_ties(self, region, seed):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(1, 300))
        d = uniform_random_deployment(n, region, rng)
        if n >= 3:
            d.move(2, d.position_of(0))  # distance tie -> id order decides
        for _ in range(6):
            loc = Point(
                float(rng.uniform(0.0, 100.0)), float(rng.uniform(0.0, 100.0))
            )
            k = int(rng.integers(1, n + 3))
            assert d._nearest_indexed(loc, k) == nearest_reference(d, loc, k)
            assert d.nearest(loc, k) == nearest_reference(d, loc, k)

    def test_node_exactly_on_radius_boundary(self, region):
        """A node exactly `radius` away (3-4-5 triangle) is included by
        both paths -- the inclusive boundary must not flip under the
        vectorised distance computation."""
        d = grid_deployment(100, region)
        anchor = d.position_of(0)
        query = Point(anchor.x + 3.0, anchor.y + 4.0)
        scalar = event_neighbors_reference(d, query, 5.0)
        assert 0 in scalar
        assert d._event_neighbors_indexed(query, 5.0) == scalar

    def test_empty_deployment(self, region):
        d = Deployment(region=region)
        assert d.event_neighbors(Point(50.0, 50.0), 10.0) == []
        assert d._event_neighbors_indexed(Point(50.0, 50.0), 10.0) == []
        assert d.nearest(Point(50.0, 50.0), k=3) == []

    def test_zero_radius_query(self, region):
        d = grid_deployment(100, region)
        target = d.position_of(42)
        assert d.event_neighbors(target, 0.0) == [42]
        assert d._event_neighbors_indexed(target, 0.0) == [42]

    def test_radius_larger_than_field(self, region):
        """Disk covering every cell takes the full-scan branch and must
        still match."""
        d = grid_deployment(100, region)
        loc = Point(50.0, 50.0)
        assert d._event_neighbors_indexed(
            loc, 500.0
        ) == event_neighbors_reference(d, loc, 500.0)
        assert len(d.event_neighbors(loc, 500.0)) == 100

    def test_query_radius_differs_from_cell_size(self, region):
        """The index stays correct when queries use radii far from the
        cell size it was built with."""
        d = grid_deployment(400, region)
        d.ensure_index(cell_size=20.0)
        for radius in (0.5, 3.0, 20.0, 77.0):
            loc = Point(33.0, 61.0)
            assert d._event_neighbors_indexed(
                loc, radius
            ) == event_neighbors_reference(d, loc, radius)


class TestInvalidation:
    def test_add_invalidates(self, region):
        d = grid_deployment(100, region)
        loc = Point(50.0, 50.0)
        before = d.event_neighbors(loc, 10.0)
        d.add(999, Point(50.0, 50.0))
        assert d.event_neighbors(loc, 10.0) == sorted(before + [999])

    def test_remove_invalidates(self, region):
        """Faulty-node isolation must be reflected by the next query."""
        d = grid_deployment(100, region)
        loc = Point(50.0, 50.0)
        neighbors = d.event_neighbors(loc, 12.0)
        isolated = neighbors[0]
        d.remove(isolated)
        after = d.event_neighbors(loc, 12.0)
        assert isolated not in after
        assert after == [n for n in neighbors if n != isolated]

    def test_move_invalidates(self, region):
        d = grid_deployment(100, region)
        loc = Point(50.0, 50.0)
        inside = d.event_neighbors(loc, 12.0)[0]
        d.move(inside, Point(99.0, 99.0))
        assert inside not in d.event_neighbors(loc, 12.0)
        assert inside in d.event_neighbors(Point(99.0, 99.0), 2.0)

    def test_direct_mutation_plus_invalidate_index(self, region):
        d = grid_deployment(100, region)
        loc = Point(50.0, 50.0)
        d.event_neighbors(loc, 10.0)  # build the cache
        d.positions[998] = Point(50.0, 50.0)
        d.invalidate_index()
        assert 998 in d.event_neighbors(loc, 10.0)

    def test_ensure_index_rebuild_on_cell_change(self, region):
        d = grid_deployment(100, region)
        d.ensure_index(20.0)
        grid_a = d._grid
        d.ensure_index(20.0)
        assert d._grid is grid_a  # same cell: no rebuild
        d.ensure_index(5.0)
        assert d._grid is not grid_a

    def test_ensure_index_rejects_bad_cell(self, region):
        d = grid_deployment(100, region)
        with pytest.raises(ValueError):
            d.ensure_index(0.0)

    def test_scalar_crossover_consistency(self, region):
        """Deployments straddling the crossover agree with the scalar
        reference through the public dispatch."""
        rng = np.random.default_rng(7)
        for n in (
            _INDEX_MIN_NODES - 1,
            _INDEX_MIN_NODES,
            _INDEX_MIN_NODES + 1,
        ):
            d = uniform_random_deployment(n, region, rng)
            loc = Point(50.0, 50.0)
            expected = event_neighbors_reference(d, loc, 25.0)
            assert d.event_neighbors(loc, 25.0) == expected
            assert d.event_neighbors_list(loc.x, loc.y, 25.0) == expected
            assert d.nearest(loc, 5) == nearest_reference(d, loc, 5)
