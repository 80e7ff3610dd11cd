"""Unit tests for the mobility model and CH position tracking."""

import numpy as np
import pytest

from repro.network.geometry import Point, Region
from repro.network.mobility import (
    MobilityConfig,
    PositionTracker,
    RandomWaypointMobility,
)
from repro.network.topology import grid_deployment
from repro.simkernel.simulator import Simulator


def build(n=9, seed=1, **config_kwargs):
    sim = Simulator(seed=seed)
    region = Region.square(60.0)
    deployment = grid_deployment(n, region)
    mobility = RandomWaypointMobility(
        deployment,
        region,
        MobilityConfig(**config_kwargs),
        sim.streams.get("mobility"),
    )
    return sim, region, deployment, mobility


class TestRandomWaypoint:
    def test_nodes_move_over_time(self):
        sim, _region, deployment, mobility = build()
        initial = {
            n: deployment.position_of(n) for n in deployment.node_ids()
        }
        mobility.start(sim)
        sim.run(until=30.0)
        moved = [
            initial[n].distance_to(deployment.position_of(n))
            for n in deployment.node_ids()
        ]
        assert sum(1 for d in moved if d > 1.0) >= 7

    def test_positions_stay_inside_region(self):
        sim, region, deployment, mobility = build(speed_min=2.0,
                                                  speed_max=5.0)
        mobility.start(sim)
        sim.run(until=50.0)
        for node_id in deployment.node_ids():
            assert region.contains(deployment.position_of(node_id))

    def test_speed_bounds_respected_per_tick(self):
        sim, _region, deployment, mobility = build(
            speed_min=1.0, speed_max=2.0, tick=1.0
        )
        mobility.start(sim)
        previous = {
            n: deployment.position_of(n) for n in deployment.node_ids()
        }
        sim.run(until=1.0)
        for node_id in deployment.node_ids():
            step = previous[node_id].distance_to(
                deployment.position_of(node_id)
            )
            assert step <= 2.0 + 1e-9

    def test_pause_time_freezes_nodes_at_waypoints(self):
        # Very fast nodes with long pauses spend most time parked.
        sim, _region, deployment, mobility = build(
            speed_min=50.0, speed_max=60.0, pause_time=1000.0
        )
        mobility.start(sim)
        sim.run(until=5.0)
        frozen = {
            n: deployment.position_of(n) for n in deployment.node_ids()
        }
        sim.run(until=10.0)
        for node_id in deployment.node_ids():
            assert (
                frozen[node_id].distance_to(
                    deployment.position_of(node_id)
                )
                < 1e-9
            )

    def test_determinism(self):
        def run_once():
            sim, _r, deployment, mobility = build(seed=5)
            mobility.start(sim)
            sim.run(until=20.0)
            return {
                n: tuple(deployment.position_of(n))
                for n in deployment.node_ids()
            }

        assert run_once() == run_once()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MobilityConfig(speed_min=0.0)
        with pytest.raises(ValueError):
            MobilityConfig(speed_min=2.0, speed_max=1.0)
        with pytest.raises(ValueError):
            MobilityConfig(pause_time=-1.0)
        with pytest.raises(ValueError):
            MobilityConfig(tick=0.0)


class TestPositionTracker:
    def test_live_mode_always_sees_truth(self):
        sim, _region, deployment, mobility = build()
        tracker = PositionTracker(deployment, refresh_interval=None)
        mobility.start(sim)
        tracker.start(sim)
        sim.run(until=20.0)
        assert tracker.view is deployment
        assert max(tracker.staleness().values()) == 0.0

    def test_snapshot_mode_goes_stale_between_refreshes(self):
        sim, _region, deployment, mobility = build(
            speed_min=2.0, speed_max=3.0
        )
        tracker = PositionTracker(deployment, refresh_interval=1000.0)
        mobility.start(sim)
        tracker.start(sim)
        sim.run(until=30.0)
        assert max(tracker.staleness().values()) > 5.0

    def test_refresh_clears_staleness(self):
        sim, _region, deployment, mobility = build(
            speed_min=2.0, speed_max=3.0
        )
        tracker = PositionTracker(deployment, refresh_interval=1000.0)
        mobility.start(sim)
        sim.run(until=30.0)
        tracker.refresh()
        assert max(tracker.staleness().values()) == 0.0
        assert tracker.view.positions == deployment.positions

    def test_periodic_refresh_bounds_staleness(self):
        sim, _region, deployment, mobility = build(
            speed_min=1.0, speed_max=1.0
        )
        tracker = PositionTracker(deployment, refresh_interval=2.0)
        mobility.start(sim)
        tracker.start(sim)
        sim.run(until=40.0)
        # At speed 1 and refresh every 2, drift is at most ~2 units.
        assert max(tracker.staleness().values()) <= 2.0 + 1e-6

    def test_invalid_refresh_rejected(self):
        _sim, _region, deployment, _mobility = build()
        with pytest.raises(ValueError):
            PositionTracker(deployment, refresh_interval=0.0)
