"""Unit tests for ground-truth event generation."""

import math

import numpy as np
import pytest

from repro.network.geometry import Point, Region
from repro.sensors.generator import EventGenerator


class TestDraws:
    def test_locations_inside_region(self, unit_region, rng):
        gen = EventGenerator(unit_region, rng)
        for _ in range(200):
            assert unit_region.contains(gen.draw_location())

    def test_event_ids_are_unique_and_increasing(self, unit_region, rng):
        gen = EventGenerator(unit_region, rng)
        ids = [gen.next_event().event_id for _ in range(10)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 10

    def test_event_time_is_stamped(self, unit_region, rng):
        gen = EventGenerator(unit_region, rng)
        assert gen.next_event(time=3.5).time == 3.5

    def test_generated_counter(self, unit_region, rng):
        gen = EventGenerator(unit_region, rng)
        events = [gen.next_event(), *gen.next_batch(3)]
        assert [event.event_id for event in events] == [1, 2, 3, 4]

    @pytest.mark.parametrize("region", [
        Region.square(100.0), Region(-30.5, 12.25, 70.0, 99.5),
    ])
    def test_draws_equal_numpy_uniform(self, region):
        """Each axis is rng.uniform(lo, hi), from the same stream
        position."""
        rng, twin = np.random.default_rng(21), np.random.default_rng(21)
        gen = EventGenerator(region, rng)
        for _ in range(200):
            assert gen.draw_location() == Point(
                twin.uniform(region.x_min, region.x_max),
                twin.uniform(region.y_min, region.y_max),
            )
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_uniformity_over_quadrants(self, unit_region):
        gen = EventGenerator(unit_region, np.random.default_rng(3))
        counts = [0, 0, 0, 0]
        for _ in range(4000):
            p = gen.draw_location()
            counts[(p.x >= 50.0) * 2 + (p.y >= 50.0)] += 1
        for c in counts:
            assert 850 <= c <= 1150


class TestBatches:
    def test_batch_respects_min_separation(self, unit_region, rng):
        gen = EventGenerator(unit_region, rng, min_separation=10.0)
        for _ in range(50):
            batch = gen.next_batch(3)
            for i in range(3):
                for j in range(i + 1, 3):
                    d = batch[i].location.distance_to(batch[j].location)
                    assert d >= 10.0

    def test_batch_without_constraint(self, unit_region, rng):
        gen = EventGenerator(unit_region, rng)
        assert len(gen.next_batch(5)) == 5

    def test_impossible_separation_raises(self, rng):
        tiny = Region.square(1.0)
        gen = EventGenerator(
            tiny, rng, min_separation=10.0, max_rejections=100
        )
        with pytest.raises(RuntimeError):
            gen.next_batch(2)

    def test_invalid_batch_size_rejected(self, unit_region, rng):
        gen = EventGenerator(unit_region, rng)
        with pytest.raises(ValueError):
            gen.next_batch(0)

    def test_invalid_min_separation_rejected(self, unit_region, rng):
        with pytest.raises(ValueError):
            EventGenerator(unit_region, rng, min_separation=0.0)

    @pytest.mark.parametrize("separation", [math.nan, math.inf])
    def test_non_finite_min_separation_rejected(
        self, unit_region, rng, separation
    ):
        """NaN compares false, so it would place a batch with no
        separation at all."""
        with pytest.raises(ValueError, match="finite"):
            EventGenerator(unit_region, rng, min_separation=separation)

