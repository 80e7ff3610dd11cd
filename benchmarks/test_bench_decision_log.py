"""Service read microbench: a decision-log tail costs the same at any log size.

``GET /v1/sessions/<key>/decisions?since=N`` asks the session for the
decisions after id ``N``.  The session bisects its strictly ascending
ids and serialises only the tail, so reading the last five decisions
should take about as long with 10^2, 10^3 or 10^4 decisions logged.
Compare the three rows of the ``decision_log tail`` group; the full
log read is there for scale.
"""

import pytest

from repro.core.decision_kernel import Verdict
from repro.network.geometry import Point, Region
from repro.network.topology import grid_deployment
from repro.service.session import SessionConfig, TrustSession


def _logged_session(n_decisions):
    session = TrustSession(
        grid_deployment(9, Region.square(30.0)),
        SessionConfig(mode="location"),
    )
    verdict = Verdict(True, Point(15.0, 15.0), (0, 1, 2), (3,))
    for i in range(n_decisions):
        session.record(verdict, now=float(i))
    return session


@pytest.mark.parametrize("n_decisions", [100, 1_000, 10_000])
def test_decision_log_tail_read(benchmark, n_decisions):
    """Five decisions after a cursor, from logs 100x apart in size."""
    session = _logged_session(n_decisions)
    since = session.decisions[-6].decision_id
    benchmark.group = "decision_log tail"
    tail = benchmark(session.decision_log, since)
    assert [d["decision_id"] for d in tail] == [
        d.decision_id for d in session.decisions[-5:]
    ]


def test_decision_log_full_read_at_10k(benchmark):
    """The whole 10^4-decision log, for scale."""
    session = _logged_session(10_000)
    benchmark.group = "decision_log tail"
    assert len(benchmark(session.decision_log)) == 10_000
