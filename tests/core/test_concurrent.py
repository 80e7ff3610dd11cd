"""Unit tests for concurrent-event circle tracking (§3.3)."""

import math

import pytest

from repro.core.concurrent import CircleTracker
from repro.obs.spans import SpanCollector
from repro.simkernel.simulator import Simulator


def make_tracker(sim, r_error=5.0, t_out=1.0):
    groups = []
    tracker = CircleTracker(
        sim,
        r_error=r_error,
        t_out=t_out,
        # Each group is recorded as its node ids, in delivery order.
        on_group_rows=lambda rows: groups.append([row[0] for row in rows]),
    )
    return tracker, groups


def spanned_sim():
    """A simulator whose spans show the circle each report joined."""
    return Simulator(seed=42, spans=SpanCollector())


def report_circles(sim):
    """The circle id of each report, from its ``window.report`` span."""
    return [span.args["circle"] for span in sim.spans.spans("window.report")]


class TestCircleLifecycle:
    def test_first_report_opens_a_circle(self):
        sim = spanned_sim()
        tracker, groups = make_tracker(sim)
        tracker.on_report_row(0, 10.0, 10.0)
        (opened,) = sim.spans.spans("window.open")
        assert (opened.args["x"], opened.args["y"]) == (10.0, 10.0)
        assert report_circles(sim) == [opened.args["circle"]]
        tracker.flush()
        assert groups == [[0]]

    def test_nearby_report_joins_existing_circle(self):
        sim = spanned_sim()
        tracker, groups = make_tracker(sim)
        tracker.on_report_row(0, 10.0, 10.0)
        tracker.on_report_row(1, 12.0, 11.0)
        first, second = report_circles(sim)
        assert first == second
        tracker.flush()
        assert groups == [[0, 1]]

    def test_distant_report_opens_new_circle(self):
        sim = spanned_sim()
        tracker, groups = make_tracker(sim)
        tracker.on_report_row(0, 10.0, 10.0)
        tracker.on_report_row(1, 40.0, 40.0)
        first, second = report_circles(sim)
        assert first != second
        tracker.flush()
        assert groups == [[0], [1]]

    def test_circle_closes_after_t_out(self, sim):
        tracker, groups = make_tracker(sim, t_out=1.0)
        tracker.on_report_row(0, 10.0, 10.0)
        tracker.on_report_row(1, 11.0, 10.0)
        sim.run()
        assert groups == [[0, 1]]

    def test_late_report_misses_closed_circle(self, sim):
        tracker, groups = make_tracker(sim, t_out=1.0)
        tracker.on_report_row(0, 10.0, 10.0)
        sim.run()  # closes at t=1
        tracker.on_report_row(1, 10.5, 10.0)
        sim.run()
        assert len(groups) == 2  # the straggler formed its own group


class TestConcurrentEvents:
    def test_two_separated_events_close_independently(self, sim):
        tracker, groups = make_tracker(sim, r_error=5.0, t_out=1.0)
        tracker.on_report_row(0, 10.0, 10.0)
        sim.after(0.5, tracker.on_report_row, 1, 60.0, 60.0)
        sim.run()
        assert len(groups) == 2
        assert set(groups[0]) == {0}

    def test_overlapping_circles_wait_for_all_timers(self, sim):
        """§3.3 step 4: overlapping circles are processed as one union
        only after every member circle's T_out has elapsed."""
        tracker, groups = make_tracker(sim, r_error=5.0, t_out=1.0)
        # Two circles with centres 8 apart: overlap (< 2 * r_error).
        tracker.on_report_row(0, 10.0, 10.0)
        sim.after(0.8, tracker.on_report_row, 1, 18.0, 10.0)
        sim.run()
        assert len(groups) == 1
        assert set(groups[0]) == {0, 1}
        # The union closed at the LATER circle's expiry (1.8), not 1.0.
        assert sim.now == pytest.approx(1.8)

    def test_chain_of_overlaps_closes_transitively(self, sim):
        tracker, groups = make_tracker(sim, r_error=5.0, t_out=1.0)
        tracker.on_report_row(0, 10.0, 10.0)
        sim.after(0.3, tracker.on_report_row, 1, 18.0, 10.0)
        sim.after(0.6, tracker.on_report_row, 2, 26.0, 10.0)
        sim.run()
        assert len(groups) == 1
        assert set(groups[0]) == {0, 1, 2}

    def test_non_overlapping_groups_stay_apart(self, sim):
        tracker, groups = make_tracker(sim, r_error=5.0, t_out=1.0)
        tracker.on_report_row(0, 10.0, 10.0)
        tracker.on_report_row(1, 11.0, 10.0)
        tracker.on_report_row(2, 80.0, 80.0)
        sim.run()
        assert len(groups) == 2
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1, 2]


class TestFlush:
    def test_flush_closes_open_circles_immediately(self, sim):
        tracker, groups = make_tracker(sim, t_out=100.0)
        tracker.on_report_row(0, 10.0, 10.0)
        tracker.on_report_row(1, 70.0, 70.0)
        tracker.flush()
        assert len(groups) == 2
        # Nothing is left open: the pending expiry timers close nothing.
        sim.run()
        assert groups == [[0], [1]]

    def test_flush_on_empty_tracker_is_noop(self, sim):
        tracker, groups = make_tracker(sim)
        tracker.flush()
        assert groups == []


class TestValidation:
    def test_bad_parameters_rejected(self, sim):
        with pytest.raises(ValueError):
            CircleTracker(sim, r_error=0.0, t_out=1.0, on_group_rows=print)
        with pytest.raises(ValueError):
            CircleTracker(sim, r_error=5.0, t_out=0.0, on_group_rows=print)

    @pytest.mark.parametrize("r_error", [math.nan, math.inf])
    def test_non_finite_r_error_rejected(self, sim, r_error):
        with pytest.raises(ValueError, match="r_error"):
            CircleTracker(sim, r_error=r_error, t_out=1.0, on_group_rows=print)

    @pytest.mark.parametrize("t_out", [math.nan, math.inf])
    def test_non_finite_t_out_rejected(self, sim, t_out):
        with pytest.raises(ValueError, match="t_out"):
            CircleTracker(sim, r_error=5.0, t_out=t_out, on_group_rows=print)

    def test_reports_sorted_within_group(self, sim):
        tracker, groups = make_tracker(sim)
        tracker.on_report_row(5, 10.0, 10.0)
        tracker.on_report_row(2, 10.5, 10.0)
        sim.run()
        assert groups[0] == [2, 5]

        # Equal (time, node_id) keys keep arrival order: one node
        # reports twice at one instant from two locations in one
        # circle.  The first report is the larger in x and y, so a sort
        # on any key wider than (time, node_id) would swap them.
        delivered = []
        tracker = CircleTracker(
            sim, r_error=5.0, t_out=1.0, on_group_rows=delivered.append
        )
        tracker.on_report_row(3, 10.5, 10.5)
        tracker.on_report_row(3, 10.0, 10.0)
        sim.run()
        assert delivered == [[(3, 10.5, 10.5, 1.0), (3, 10.0, 10.0, 1.0)]]
