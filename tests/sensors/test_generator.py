"""Unit tests for ground-truth event generation."""

import numpy as np
import pytest

from repro.network.geometry import Point, Region
from repro.obs.spans import SpanCollector
from repro.sensors.generator import EventGenerator
from repro.simkernel.simulator import Simulator


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
        gen.next_event()
        gen.next_batch(3)
        assert gen.generated == 4

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


class TestDrive:
    def test_drive_fires_count_rounds_at_interval(self, unit_region):
        sim = Simulator(seed=1)
        gen = EventGenerator(unit_region, sim.streams.get("events"))
        seen = []
        gen.drive(sim, interval=10.0, count=5,
                  on_event=lambda e: seen.append((sim.now, e.event_id)))
        sim.run()
        assert [t for t, _ in seen] == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_drive_with_batches(self, unit_region):
        sim = Simulator(seed=1)
        gen = EventGenerator(
            unit_region, sim.streams.get("events"), min_separation=5.0
        )
        seen = []
        gen.drive(sim, interval=10.0, count=3, batch_size=2,
                  on_event=lambda e: seen.append(e.event_id))
        sim.run()
        assert len(seen) == 6

    def test_drive_validates_arguments(self, unit_region):
        sim = Simulator(seed=1)
        gen = EventGenerator(unit_region, sim.streams.get("events"))
        with pytest.raises(ValueError):
            gen.drive(sim, interval=0.0, count=1, on_event=print)
        with pytest.raises(ValueError):
            gen.drive(sim, interval=1.0, count=0, on_event=print)
        with pytest.raises(ValueError):
            gen.drive(sim, interval=1.0, count=1, on_event=print,
                      batch_size=0)

    def test_drive_emits_generated_spans(self, unit_region):
        spans = SpanCollector()
        sim = Simulator(seed=1, spans=spans)
        gen = EventGenerator(unit_region, sim.streams.get("events"))
        seen = []
        gen.drive(sim, interval=5.0, count=2, on_event=seen.append)
        sim.run()
        generated = spans.spans("events.generated")
        assert [span.time for span in generated] == [5.0, 10.0]
        assert [span.args for span in generated] == [
            {"event_id": e.event_id, "x": e.location.x, "y": e.location.y}
            for e in seen
        ]
