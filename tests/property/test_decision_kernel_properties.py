"""Hypothesis op-stream differential: decision kernel vs object oracle.

Random report streams -- duplicates, unknown senders, excluded nodes,
implausible claims, degenerate all-coincident clusters, ties in both
time and node id -- are replayed through the object-path oracle
:class:`~tests.oracles.location.LocationDecisionEngine` and the
:class:`~repro.core.decision_kernel.DecisionKernel`,
asserting bit-identical decisions, trust-update call sequences, and
final trust state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.geometry import Point

from tests.core.test_decision_kernel import (
    assert_identical,
    kernel_decide,
    make_deployment,
    make_pair,
)
from tests.oracles.location import LocationReport

_coords = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
_jitter = st.floats(
    min_value=-6.0, max_value=6.0, allow_nan=False, allow_infinity=False
)
# Includes 0.0 so consecutive reports can share an arrival time,
# exercising the node-id tie-break of the (time, node_id) sort.
_dt = st.sampled_from([0.0, 0.0625, 0.125, 0.25])


@st.composite
def scenarios(draw):
    n_nodes = draw(st.integers(min_value=1, max_value=24))
    positions = {
        i: Point(draw(_coords), draw(_coords)) for i in range(n_nodes)
    }
    reports = []
    t = 0.0
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        # Senders above n_nodes - 1 are unknown to the deployment.
        sender = draw(st.integers(min_value=0, max_value=n_nodes + 2))
        kind = draw(st.sampled_from(
            ["honest", "coincident", "implausible", "anywhere"]
        ))
        if kind == "honest" and sender in positions:
            base = positions[sender]
            location = Point(
                base.x + draw(_jitter), base.y + draw(_jitter)
            )
        elif kind == "coincident":
            # Degenerate mass: many reports at the exact same point.
            location = Point(50.0, 50.0)
        elif kind == "implausible":
            location = Point(
                draw(st.floats(min_value=300.0, max_value=400.0,
                               allow_nan=False)),
                draw(st.floats(min_value=300.0, max_value=400.0,
                               allow_nan=False)),
            )
        else:
            location = Point(draw(_coords), draw(_coords))
        t += draw(_dt)
        reports.append(
            LocationReport(node_id=sender, location=location, time=t)
        )
    excluded = tuple(sorted(draw(st.sets(
        st.integers(min_value=0, max_value=n_nodes - 1), max_size=3
    ))))
    return positions, reports, excluded


@given(scenario=scenarios(), use_trust=st.booleans())
@settings(max_examples=60, deadline=None)
def test_kernel_bit_identical_to_oracle(scenario, use_trust):
    positions, reports, excluded = scenario
    deployment = make_deployment(positions)
    engine, kernel = make_pair(
        deployment, positions.keys(), use_trust=use_trust
    )
    obj = engine.decide(reports, excluded_nodes=excluded)
    arr = kernel_decide(kernel, reports, excluded=excluded)
    assert_identical(obj, arr)
    if use_trust:
        assert engine.voter.trust.calls == kernel.voter.trust.calls
        assert (engine.voter.trust.export_state()
                == kernel.voter.trust.export_state())


@given(scenario=scenarios())
@settings(max_examples=30, deadline=None)
def test_repeated_windows_keep_trust_in_lockstep(scenario):
    """Three consecutive windows over the same stream: trust state must
    track identically across windows, not just within one."""
    positions, reports, excluded = scenario
    deployment = make_deployment(positions)
    engine, kernel = make_pair(deployment, positions.keys())
    for _ in range(3):
        obj = engine.decide(reports, excluded_nodes=excluded)
        arr = kernel_decide(kernel, reports, excluded=excluded)
        assert_identical(obj, arr)
        assert (engine.voter.trust.export_state()
                == kernel.voter.trust.export_state())
