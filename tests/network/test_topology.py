"""Unit tests for deployments and neighbourhood queries."""

import numpy as np
import pytest

from repro.network.geometry import Point, Region
from repro.network.topology import (
    Deployment,
    grid_deployment,
    uniform_random_deployment,
)


class TestDeployment:
    def test_add_and_lookup(self, unit_region):
        d = Deployment(region=unit_region)
        d.add(0, Point(1.0, 2.0))
        assert 0 in d
        assert d.position_of(0) == Point(1.0, 2.0)
        assert len(d) == 1

    def test_duplicate_id_rejected(self, unit_region):
        d = Deployment(region=unit_region)
        d.add(0, Point(1.0, 2.0))
        with pytest.raises(ValueError):
            d.add(0, Point(3.0, 4.0))

    def test_out_of_region_rejected(self, unit_region):
        d = Deployment(region=unit_region)
        with pytest.raises(ValueError):
            d.add(0, Point(-1.0, 0.0))

    def test_remove_deletes_node(self, unit_region):
        d = Deployment(region=unit_region)
        d.add(0, Point(1.0, 2.0))
        d.remove(0)
        assert 0 not in d

    def test_remove_unknown_id_raises(self, unit_region):
        """Isolating a node that is not deployed is a bookkeeping bug
        upstream and must not pass silently."""
        d = Deployment(region=unit_region)
        d.add(0, Point(1.0, 2.0))
        d.remove(0)
        with pytest.raises(KeyError):
            d.remove(0)
        with pytest.raises(KeyError):
            d.remove(99)

    def test_move_updates_position_and_unknown_raises(self, unit_region):
        d = Deployment(region=unit_region)
        d.add(0, Point(1.0, 2.0))
        d.move(0, Point(3.0, 4.0))
        assert d.position_of(0) == Point(3.0, 4.0)
        with pytest.raises(KeyError):
            d.move(1, Point(0.0, 0.0))

    def test_event_neighbors_by_radius(self, unit_region):
        d = Deployment(region=unit_region)
        d.add(0, Point(50.0, 50.0))
        d.add(1, Point(60.0, 50.0))
        d.add(2, Point(90.0, 90.0))
        assert d.event_neighbors(Point(50.0, 50.0), 15.0) == [0, 1]
        assert d.event_neighbors(Point(50.0, 50.0), 5.0) == [0]

    def test_event_neighbors_radius_inclusive(self, unit_region):
        d = Deployment(region=unit_region)
        d.add(0, Point(50.0, 50.0))
        assert d.event_neighbors(Point(50.0, 60.0), 10.0) == [0]

    def test_negative_radius_rejected(self, unit_region):
        d = Deployment(region=unit_region)
        with pytest.raises(ValueError):
            d.event_neighbors(Point(0, 0), -1.0)

    def test_nearest_orders_by_distance_then_id(self, unit_region):
        d = Deployment(region=unit_region)
        d.add(0, Point(10.0, 0.0))
        d.add(1, Point(5.0, 0.0))
        d.add(2, Point(5.0, 0.0))
        assert d.nearest(Point(0.0, 0.0), k=2) == [1, 2]


class TestGridDeployment:
    def test_100_nodes_form_10x10_cell_centres(self, unit_region):
        d = grid_deployment(100, unit_region)
        assert len(d) == 100
        assert d.position_of(0) == Point(5.0, 5.0)
        assert d.position_of(9) == Point(95.0, 5.0)
        assert d.position_of(99) == Point(95.0, 95.0)

    def test_non_square_count_leaves_trailing_cells_empty(self, unit_region):
        d = grid_deployment(7, unit_region)
        assert len(d) == 7

    def test_zero_nodes(self, unit_region):
        assert len(grid_deployment(0, unit_region)) == 0

    def test_negative_count_rejected(self, unit_region):
        with pytest.raises(ValueError):
            grid_deployment(-1, unit_region)

    def test_first_id_offset(self, unit_region):
        d = grid_deployment(4, unit_region, first_id=100)
        assert d.node_ids() == (100, 101, 102, 103)


class TestRandomDeployment:
    def test_all_positions_inside_region(self, unit_region, rng):
        d = uniform_random_deployment(200, unit_region, rng)
        assert len(d) == 200
        for node_id in d.node_ids():
            assert unit_region.contains(d.position_of(node_id))

    def test_reproducible_from_seed(self, unit_region):
        d1 = uniform_random_deployment(
            20, unit_region, np.random.default_rng(5)
        )
        d2 = uniform_random_deployment(
            20, unit_region, np.random.default_rng(5)
        )
        assert all(
            d1.position_of(i) == d2.position_of(i) for i in d1.node_ids()
        )

    def test_roughly_uniform_spread(self, unit_region):
        """Quadrant counts of a large uniform deployment are balanced."""
        d = uniform_random_deployment(
            4000, unit_region, np.random.default_rng(11)
        )
        quadrants = [0, 0, 0, 0]
        for node_id in d.node_ids():
            p = d.position_of(node_id)
            quadrants[(p.x >= 50.0) * 2 + (p.y >= 50.0)] += 1
        for count in quadrants:
            assert 850 <= count <= 1150  # ~1000 each, generous tolerance
