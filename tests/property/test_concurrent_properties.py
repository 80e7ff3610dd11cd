"""Property-based tests for the concurrent-event circle tracker."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.concurrent import CircleTracker
from repro.core.decision_kernel import ReportBuffer
from repro.simkernel.simulator import Simulator

coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
arrival = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
report_specs = st.lists(
    st.tuples(coords, coords, arrival), min_size=1, max_size=25
)


def drive_tracker(specs, r_error=5.0, t_out=1.0):
    """Feed timed reports through a tracker; return closed groups.

    Each group is a list of ``(node_id, arrival_time)`` pairs in the
    order the tracker delivered its rows.
    """
    sim = Simulator(seed=0)
    groups = []
    buffer = ReportBuffer(capacity=2)

    def on_group_rows(rows):
        # Read at delivery: the buffer resets once every circle closed.
        groups.append(list(zip(
            buffer.ids[rows].tolist(), buffer.times[rows].tolist()
        )))

    tracker = CircleTracker(
        sim, r_error=r_error, t_out=t_out, buffer=buffer,
        on_group_rows=on_group_rows,
    )
    for node_id, (x, y, t) in enumerate(specs):
        sim.at(t, tracker.on_report_row, node_id, x, y)
    sim.run()
    tracker.flush()
    return groups


@given(specs=report_specs)
@settings(max_examples=60, deadline=None)
def test_every_report_lands_in_exactly_one_group(specs):
    groups = drive_tracker(specs)
    seen = sorted(node for group in groups for node, _t in group)
    assert seen == list(range(len(specs)))


@given(specs=report_specs)
@settings(max_examples=60, deadline=None)
def test_groups_are_nonempty_and_time_sorted(specs):
    for group in drive_tracker(specs):
        assert group
        # Handed-over rows are in (time, node_id) lexsort order.
        assert group == sorted(group, key=lambda r: (r[1], r[0]))


@given(specs=report_specs,
       r_error=st.floats(min_value=1.0, max_value=20.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_simultaneous_nearby_reports_group_together(specs, r_error):
    """Any two reports at the same instant within r_error of the first
    report's circle centre must share a group."""
    # Force all reports to arrive at t=0 within a tiny blob.
    blob = [(10.0 + (x % 1.0), 10.0 + (y % 1.0), 0.0)
            for x, y, _t in specs]
    groups = drive_tracker(blob, r_error=r_error)
    assert len(groups) == 1


@given(gap=st.floats(min_value=25.0, max_value=80.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_far_simultaneous_reports_stay_apart(gap):
    specs = [(10.0, 10.0, 0.0), (10.0 + gap, 10.0, 0.0)]
    groups = drive_tracker(specs, r_error=5.0)
    assert len(groups) == 2


@given(specs=report_specs)
@settings(max_examples=40, deadline=None)
def test_tracker_is_deterministic(specs):
    a = drive_tracker(specs)
    b = drive_tracker(specs)
    assert [[node for node, _t in g] for g in a] == [
        [node for node, _t in g] for g in b
    ]
