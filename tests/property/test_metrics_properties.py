"""Differential: the bisected ``score_run`` against the full scan.

:func:`repro.experiments.metrics.score_run` bisects a time-sorted index
of the upheld decisions; :func:`tests.oracles.metrics.score_run` is the
original events x decisions scan.  For any ground truth and any decision
log -- in any order, with equal times, decisions exactly on a window
edge, rejected verdicts and ties in distance -- both must return the
same outcomes and the same false-positive count.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.metrics import score_run
from repro.network.geometry import Point
from repro.sensors.generator import GroundTruthEvent
from repro.service.session import DecisionRecord
from tests.oracles.metrics import score_run as scan_score_run

# A coarse coordinate grid puts several decisions at equal distances
# from an event, and some exactly at r_error (3-4-5 triangles).
COORDS = st.sampled_from(
    [40.0, 43.0, 44.0, 45.0, 47.0, 50.0, 53.0, 54.0, 55.0, 56.0, 60.0]
)
LOCATIONS = st.builds(Point, COORDS, COORDS)
FREE_TIMES = st.floats(min_value=-1.0, max_value=60.0)


@st.composite
def scoring_cases(draw):
    round_interval = draw(st.sampled_from([10.0, 2.5, 0.1, 7.3]))
    offset = draw(st.one_of(
        st.none(),
        st.sampled_from([0.0, 0.05, 1.0, 5.0]),
        st.floats(min_value=0.0, max_value=12.0),
    ))
    deadline = round_interval if offset is None else offset

    # Rounds stamped k * interval, each with 0-4 concurrent events (one
    # shared time), plus a few events at free times.
    timed = []
    for k in range(draw(st.integers(0, 5))):
        t = k * round_interval
        concurrent = draw(st.integers(0, 4))
        timed += [(t, draw(LOCATIONS)) for _ in range(concurrent)]
    timed += draw(st.lists(st.tuples(FREE_TIMES, LOCATIONS), max_size=3))
    events = [
        GroundTruthEvent(event_id, t, location)
        for event_id, (t, location) in enumerate(timed)
    ]

    # Decision times on every window edge (and one ulp before), or free.
    edges = []
    for t, _ in timed:
        edges += [
            t, math.nextafter(t, -math.inf), t + deadline,
            math.nextafter(t + deadline, -math.inf), t + round_interval,
        ]
        if offset is not None:
            edges.append(t + offset)
    times = (
        st.one_of(st.sampled_from(edges), FREE_TIMES) if edges else FREE_TIMES
    )
    decisions = [
        DecisionRecord(
            decision_id=draw(st.integers(0, 15)),  # repeats are allowed
            time=draw(times),
            occurred=draw(st.booleans()),
            location=draw(st.one_of(st.none(), LOCATIONS)),
            supporters=(),
            dissenters=(),
        )
        for _ in range(draw(st.integers(0, 16)))
    ]
    decisions = draw(st.permutations(decisions))
    r_error = draw(
        st.one_of(st.none(), st.sampled_from([0.0, 3.0, 5.0, 100.0]))
    )
    return events, decisions, round_interval, r_error, offset


@settings(max_examples=400, deadline=None)
@given(case=scoring_cases())
def test_bisected_score_run_equals_the_scan(case):
    events, decisions, round_interval, r_error, offset = case
    expected = scan_score_run(
        events, decisions, round_interval,
        r_error=r_error, quiet_window_offset=offset,
    )
    got = score_run(
        events, decisions, round_interval,
        r_error=r_error, quiet_window_offset=offset,
    )
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(case=scoring_cases(), data=st.data())
def test_unique_id_logs_in_any_order_score_as_the_scan(case, data):
    """With unique ids, as every host mints them: a shuffled log and the
    same log in time order each score as the scan scores them."""
    events, decisions, round_interval, r_error, offset = case
    unique = [d._replace(decision_id=i) for i, d in enumerate(decisions)]
    shuffled = data.draw(st.permutations(unique))
    in_time_order = sorted(unique, key=lambda d: (d.time, d.decision_id))
    for log in (shuffled, in_time_order):
        assert score_run(
            events, log, round_interval,
            r_error=r_error, quiet_window_offset=offset,
        ) == scan_score_run(
            events, log, round_interval,
            r_error=r_error, quiet_window_offset=offset,
        )
