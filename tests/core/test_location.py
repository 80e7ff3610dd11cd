"""Unit tests for the location-determination decision pipeline (§3.2).

Windows are fed to :class:`~repro.core.decision_kernel.DecisionKernel`
the way the circle tracker delivers them: one ``(node_id, x, y, time)``
row per report, handed over sorted by ``(time, node_id)``.
"""

import pytest

from repro.core.baseline import MajorityVoter
from repro.core.binary import CtiVoter
from repro.core.decision_kernel import DecisionKernel
from repro.core.trust import TrustParameters, TrustTable
from repro.network.geometry import Point, Region
from repro.network.topology import Deployment

from tests.core.test_decision_kernel import kernel_decide
from tests.oracles.location import LocationReport


def make_engine(positions, voter=None, r_s=20.0, r_error=5.0):
    deployment = Deployment(region=Region.square(100.0))
    for node_id, pos in positions.items():
        deployment.add(node_id, pos)
    if voter is None:
        table = TrustTable(
            TrustParameters(lam=0.25, fault_rate=0.1),
            node_ids=positions.keys(),
        )
        voter = CtiVoter(table)
    return (
        DecisionKernel(
            deployment=deployment,
            sensing_radius=r_s,
            r_error=r_error,
            voter=voter,
        ),
        voter,
    )


CROWD = {
    0: Point(45.0, 45.0),
    1: Point(55.0, 45.0),
    2: Point(45.0, 55.0),
    3: Point(55.0, 55.0),
    4: Point(50.0, 40.0),
}


class TestDecisions:
    def test_unanimous_reports_yield_located_event(self):
        engine, _ = make_engine(CROWD)
        reports = [
            LocationReport(node_id=i, location=Point(50.0, 50.0))
            for i in CROWD
        ]
        decisions = kernel_decide(engine, reports)
        assert len(decisions) == 1
        assert decisions[0].occurred
        assert decisions[0].location.distance_to(Point(50.0, 50.0)) < 0.01
        assert decisions[0].supporters == (0, 1, 2, 3, 4)

    def test_no_reports_yield_no_decisions(self):
        engine, _ = make_engine(CROWD)
        assert kernel_decide(engine, []) == []

    def test_lone_false_report_is_outvoted(self):
        """A single liar's cluster loses to the silent trusted majority."""
        engine, _ = make_engine(CROWD)
        reports = [LocationReport(node_id=0, location=Point(50.0, 50.0))]
        decisions = kernel_decide(engine, reports)
        assert len(decisions) == 1
        assert not decisions[0].occurred
        assert decisions[0].supporters == (0,)
        assert set(decisions[0].dissenters) == {1, 2, 3, 4}

    def test_outlier_report_forms_losing_side_cluster(self):
        """§3.2: localisation errors beyond r_error are thrown out --
        the good cluster still wins and is well-located."""
        engine, _ = make_engine(CROWD)
        reports = [
            LocationReport(node_id=0, location=Point(50.0, 50.0)),
            LocationReport(node_id=1, location=Point(50.5, 49.5)),
            LocationReport(node_id=2, location=Point(49.4, 50.2)),
            LocationReport(node_id=3, location=Point(70.0, 70.0)),  # liar
        ]
        decisions = kernel_decide(engine, reports)
        occurred = [d for d in decisions if d.occurred]
        assert len(occurred) == 1
        assert occurred[0].location.distance_to(Point(50.0, 50.0)) < 2.0
        rejected = [d for d in decisions if not d.occurred]
        assert any(d.supporters == (3,) for d in rejected)

    def test_duplicate_reports_from_one_node_keep_earliest(self):
        engine, _ = make_engine(CROWD)
        reports = [
            LocationReport(node_id=0, location=Point(50.0, 50.0), time=1.0),
            LocationReport(node_id=0, location=Point(80.0, 80.0), time=2.0),
        ]
        decisions = kernel_decide(engine, reports)
        all_supporters = [d.supporters for d in decisions]
        assert ((0,) in all_supporters)
        # The node's second (conflicting) report is ignored entirely.
        assert len([d for d in decisions if 0 in d.supporters]) == 1

    def test_out_of_order_duplicate_reports_keep_earliest(self):
        """Reports arriving out of time order, with duplicates: the
        window is decided in (time, node_id) order, so earliest-wins
        must still hold."""
        engine, _ = make_engine(CROWD)
        reports = [
            # Later duplicate listed first; also out of time order
            # across nodes to force the fallback sort.
            LocationReport(node_id=0, location=Point(80.0, 80.0), time=3.0),
            LocationReport(node_id=1, location=Point(50.0, 50.0), time=2.0),
            LocationReport(node_id=0, location=Point(50.0, 50.0), time=1.0),
            LocationReport(node_id=1, location=Point(80.0, 80.0), time=2.5),
        ]
        decisions = kernel_decide(engine, reports)
        winning = [d for d in decisions if d.occurred or d.supporters]
        # Both nodes' earliest (coincident) claims form one cluster at
        # (50, 50); the later conflicting claims never enter play.
        located = [
            d for d in winning
            if d.location.distance_to(Point(50.0, 50.0)) < 0.01
        ]
        assert len(located) == 1
        assert located[0].supporters == (0, 1)
        assert all(
            d.location.distance_to(Point(80.0, 80.0)) > 0.01
            for d in decisions
        )

    def test_excluded_nodes_are_invisible(self):
        engine, _ = make_engine(CROWD)
        reports = [
            LocationReport(node_id=i, location=Point(50.0, 50.0))
            for i in CROWD
        ]
        decisions = kernel_decide(engine, reports, excluded=[0, 1])
        assert decisions[0].supporters == (2, 3, 4)
        assert 0 not in decisions[0].dissenters

    def test_implausible_claim_rejected_at_the_gate(self):
        """A report claiming an event far beyond the sender's sensing
        radius (+ slack) is §2.1's by-definition false alarm: dropped
        before clustering and penalised directly."""
        engine, voter = make_engine(CROWD)
        reports = [
            LocationReport(node_id=0, location=Point(95.0, 95.0)),
        ]
        decisions = kernel_decide(engine, reports)
        assert decisions == []  # nothing left to cluster
        assert voter.trust.ti(0) < 1.0

    def test_unsupported_cluster_refutes_itself(self):
        """A borderline claim that passes the gate but whose implied
        event location has no claimant among its own event neighbours
        is rejected without a vote, and the claimant penalised."""
        engine, voter = make_engine(CROWD)
        # Node 3 at (55, 55) claims (76, 55): 21 away (within the
        # r_s + r_error = 25 gate) but more than r_s = 20 from every
        # node, itself included.
        reports = [
            LocationReport(node_id=3, location=Point(76.0, 55.0)),
        ]
        decisions = kernel_decide(engine, reports)
        assert len(decisions) == 1
        assert not decisions[0].occurred
        assert voter.votes_taken == 0  # refuted without a vote
        assert voter.trust.ti(3) < 1.0


class TestTrustIntegration:
    def test_losing_reporters_are_penalized(self):
        engine, voter = make_engine(CROWD)
        reports = [LocationReport(node_id=0, location=Point(50.0, 50.0))]
        kernel_decide(engine, reports)
        assert voter.trust.ti(0) < 1.0
        assert voter.trust.ti(1) == 1.0

    def test_trusted_minority_beats_untrusted_majority_on_location(self):
        table = TrustTable(
            TrustParameters(lam=0.25, fault_rate=0.1), node_ids=CROWD.keys()
        )
        for _ in range(8):
            for liar in (2, 3, 4):
                table.penalize(liar)
        engine, _ = make_engine(CROWD, voter=CtiVoter(table))
        reports = [
            LocationReport(node_id=0, location=Point(50.0, 50.0)),
            LocationReport(node_id=1, location=Point(50.3, 49.8)),
        ]
        decisions = kernel_decide(engine, reports)
        assert decisions[0].occurred  # 2 trusted beat 3 distrusted

    def test_majority_voter_backend(self):
        engine, _ = make_engine(CROWD, voter=MajorityVoter())
        reports = [
            LocationReport(node_id=i, location=Point(50.0, 50.0))
            for i in (0, 1, 2)
        ]
        decisions = kernel_decide(engine, reports)
        assert decisions[0].occurred  # 3 vs 2 headcount


class TestValidation:
    def test_bad_radii_rejected(self):
        deployment = Deployment(region=Region.square(10.0))
        voter = MajorityVoter()
        with pytest.raises(ValueError):
            DecisionKernel(deployment, 0.0, 5.0, voter)
        with pytest.raises(ValueError):
            DecisionKernel(deployment, 20.0, -1.0, voter)
