"""Unit tests for the simulator loop, clock, event order, and timers."""

import pytest

from repro.obs.spans import SpanCollector
from repro.simkernel.errors import SchedulingError
from repro.simkernel.simulator import Simulator


def _noop():
    pass


class TestScheduling:
    def test_after_fires_at_relative_time(self, sim):
        fired = []
        sim.after(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_at_fires_at_absolute_time(self, sim):
        fired = []
        sim.at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_scheduling_in_past_raises(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SchedulingError):
            sim.at(1.0, _noop)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SchedulingError):
            sim.after(-1.0, _noop)

    def test_nan_time_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.at(float("nan"), _noop)
        with pytest.raises(SchedulingError):
            sim.after(float("nan"), _noop)
        assert sim.pending == 0

    def test_non_callable_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.at(1.0, "not callable")
        with pytest.raises(SchedulingError):
            sim.after(1.0, "not callable")
        assert sim.pending == 0

    def test_scheduling_at_now_is_allowed(self, sim):
        fired = []

        def outer():
            sim.at(sim.now, lambda: fired.append("inner"))
            fired.append("outer")

        sim.after(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]

    def test_args_forwarded(self, sim):
        seen = []
        sim.after(1.0, lambda a, b: seen.append((a, b)), 1, 2)
        sim.at(2.0, lambda a: seen.append(a), "x", priority=3)
        sim.run()
        assert seen == [(1, 2), "x"]


class TestOrdering:
    """Events fire in the total order (time, priority, insertion)."""

    def test_fires_in_time_order(self, sim):
        order = []
        sim.at(3.0, order.append, 3)
        sim.at(1.0, order.append, 1)
        sim.at(2.0, order.append, 2)
        sim.run()
        assert order == [1, 2, 3]

    def test_same_time_preserves_insertion_order(self, sim):
        order = []
        for i in range(10):
            sim.at(5.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_priority_breaks_time_ties(self, sim):
        order = []
        sim.at(5.0, order.append, "late", priority=1)
        sim.at(5.0, order.append, "early", priority=-1)
        sim.at(5.0, order.append, "mid", priority=0)
        sim.run()
        assert order == ["early", "mid", "late"]


class TestRun:
    def test_run_until_stops_clock_at_bound(self, sim):
        sim.after(100.0, _noop)
        end = sim.run(until=10.0)
        assert end == 10.0
        assert sim.now == 10.0
        assert sim.pending == 1  # the far event is still queued

    def test_run_until_advances_clock_even_with_no_events(self, sim):
        assert sim.run(until=42.0) == 42.0

    def test_run_is_not_reentrant(self, sim):
        def nested():
            sim.run()

        sim.after(1.0, nested)
        with pytest.raises(SchedulingError):
            sim.run()

    def test_events_fired_counter(self, sim):
        for i in range(7):
            sim.after(float(i + 1), _noop)
        sim.run()
        assert sim.events_fired == 7

    def test_determinism_same_seed_same_trace(self):
        def build_and_run(seed):
            s = Simulator(seed=seed)
            out = []
            rng = s.streams.get("x")
            s.every(1.0, lambda: out.append(round(float(rng.random()), 9)),
                    count=20)
            s.run()
            return out

        assert build_and_run(7) == build_and_run(7)
        assert build_and_run(7) != build_and_run(8)


class TestSpanContext:
    """Each event fires under the span context current when scheduled."""

    def test_events_fire_under_their_scheduling_context(self):
        spans = SpanCollector()
        sim = Simulator(seed=0, spans=spans)
        seen = []

        def record(tag):
            seen.append((tag, sim.now, spans.current))

        spans.current = 11
        sim.at(1.0, record, "at")
        spans.current = 12
        sim.after(1.0, record, "after")  # same instant as "at"
        spans.current = 13
        sim.every(0.75, record, "every", count=2)
        spans.current = 0
        sim.run()
        assert seen == [
            ("every", 0.75, 13),
            ("at", 1.0, 11),
            ("after", 1.0, 12),
            ("every", 1.5, 13),
        ]

    def test_nested_schedule_inherits_the_callbacks_context(self):
        spans = SpanCollector()
        sim = Simulator(seed=0, spans=spans)
        seen = []

        def outer():
            sim.after(1.0, lambda: seen.append(("inner", spans.current)))
            seen.append(("outer", spans.current))

        spans.current = 21
        sim.at(1.0, outer)
        spans.current = 22
        sim.at(1.5, lambda: seen.append(("other", spans.current)))
        spans.current = 0
        sim.run()
        assert seen == [("outer", 21), ("other", 22), ("inner", 21)]


class TestTimers:
    def test_every_fires_periodically(self, sim):
        times = []
        sim.every(2.0, lambda: times.append(sim.now), count=3)
        sim.run()
        assert times == [2.0, 4.0, 6.0]

    def test_count_exhaustion_stops_ticking(self, sim):
        timer = sim.every(1.0, _noop, count=2)
        sim.run()
        assert timer.fired == 2
        assert sim.pending == 0
        assert sim.now == 2.0

    def test_invalid_interval_raises(self, sim):
        with pytest.raises(SchedulingError):
            sim.every(0.0, _noop)

    def test_invalid_count_raises(self, sim):
        with pytest.raises(SchedulingError):
            sim.every(1.0, _noop, count=0)
