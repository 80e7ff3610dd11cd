"""Differential tests: the decision kernel vs the object-path oracle.

:class:`~repro.core.decision_kernel.DecisionKernel` must be
*bit-identical* to the oracle
:class:`~tests.oracles.location.LocationDecisionEngine` -- same
decisions, same supporter/dissenter tuples, same trust-update call
sequence in the same order, same final trust state.  These tests drive
both pipelines over the same randomized windows (duplicates, excluded
nodes, implausible claims, unknown senders; up to about 70 rows) and
compare everything.
"""

import random

import numpy as np
import pytest

from repro.core.baseline import MajorityVoter
from repro.core.binary import CtiVoter
from repro.core.decision_kernel import DecisionKernel, ReportBuffer
from repro.core.trust import TrustParameters, TrustTable
from repro.network.geometry import Point, Region
from repro.network.topology import Deployment

from tests.oracles.location import LocationDecisionEngine, LocationReport


class RecordingTrustTable(TrustTable):
    """Trust table that logs every batch update with its exact args.

    Also asserts every id handed in is a plain Python int -- np.int64
    leaking through would corrupt partition-memo keys and fingerprints.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def penalize_many(self, node_ids):
        ids = list(node_ids)
        assert all(type(i) is int for i in ids), ids
        self.calls.append(("penalize_many", tuple(ids)))
        super().penalize_many(ids)

    def reward_many(self, node_ids):
        ids = list(node_ids)
        assert all(type(i) is int for i in ids), ids
        self.calls.append(("reward_many", tuple(ids)))
        super().reward_many(ids)

    def cti_vote(
        self,
        reporters,
        non_reporters,
        apply_updates=True,
        tie_breaks_to_occurred=False,
    ):
        r = tuple(reporters)
        nr = tuple(non_reporters)
        assert all(type(i) is int for i in r + nr), (r, nr)
        self.calls.append(("cti_vote", r, nr))
        return super().cti_vote(
            r,
            nr,
            apply_updates=apply_updates,
            tie_breaks_to_occurred=tie_breaks_to_occurred,
        )


def make_deployment(positions):
    deployment = Deployment(region=Region.square(100.0))
    for node_id, pos in positions.items():
        deployment.add(node_id, pos)
    return deployment


def make_pair(deployment, node_ids, r_s=20.0, r_error=5.0,
              use_trust=True, min_cluster_fraction=0.0):
    """Build (engine, kernel) with independent but identical voters."""
    if use_trust:
        params = TrustParameters(lam=0.25, fault_rate=0.1)
        voter_obj = CtiVoter(RecordingTrustTable(params, node_ids))
        voter_arr = CtiVoter(RecordingTrustTable(params, node_ids))
    else:
        voter_obj = MajorityVoter()
        voter_arr = MajorityVoter()
    engine = LocationDecisionEngine(
        deployment=deployment,
        sensing_radius=r_s,
        r_error=r_error,
        voter=voter_obj,
        min_cluster_fraction=min_cluster_fraction,
    )
    kernel = DecisionKernel(
        deployment=deployment,
        sensing_radius=r_s,
        r_error=r_error,
        voter=voter_arr,
        min_cluster_fraction=min_cluster_fraction,
    )
    return engine, kernel


def kernel_decide(kernel, reports, excluded=(), buffer=None):
    """Feed reports to the kernel the way the circle tracker does.

    Rows are appended in arrival order and the closed window is
    delivered as a (time, node_id)-lexsorted row-index array.
    """
    buf = buffer if buffer is not None else ReportBuffer(capacity=4)
    rows = [
        buf.append(r.node_id, r.location.x, r.location.y, r.time)
        for r in reports
    ]
    idx = np.asarray(rows, dtype=np.intp)
    order = np.lexsort((buf.ids[idx], buf.times[idx]))
    return kernel.decide_rows(buf, idx[order], excluded_nodes=excluded)


def assert_identical(obj_decisions, arr_decisions):
    assert len(arr_decisions) == len(obj_decisions)
    for obj_d, arr_d in zip(obj_decisions, arr_decisions):
        assert arr_d.occurred == obj_d.occurred
        # Bit-identity, not closeness.
        assert arr_d.location == obj_d.location
        assert arr_d.supporters == obj_d.supporters
        assert arr_d.dissenters == obj_d.dissenters
        assert arr_d.vote == obj_d.vote
        for node_id in arr_d.supporters + arr_d.dissenters:
            assert type(node_id) is int


def random_window(rng, n_nodes, positions):
    """A messy report window: noise, duplicates, liars, unknowns."""
    reports = []
    t = 0.0
    sites = [
        Point(rng.uniform(10.0, 90.0), rng.uniform(10.0, 90.0))
        for _ in range(rng.randint(1, 3))
    ]
    for node_id in range(n_nodes):
        for site in sites:
            if rng.random() < 0.6:
                t += rng.random() * 0.05
                reports.append(LocationReport(
                    node_id=node_id,
                    location=Point(
                        site.x + rng.uniform(-4.0, 4.0),
                        site.y + rng.uniform(-4.0, 4.0),
                    ),
                    time=t,
                ))
    # Ballot-stuffing duplicates (later conflicting claims).
    for _ in range(rng.randint(0, 4)):
        if not reports:
            break
        t += rng.random() * 0.05
        reports.append(LocationReport(
            node_id=rng.choice(reports).node_id,
            location=Point(rng.uniform(0, 100), rng.uniform(0, 100)),
            time=t,
        ))
    # Implausible claims (far outside r_s + r_error of the sender).
    for _ in range(rng.randint(0, 3)):
        t += rng.random() * 0.05
        reports.append(LocationReport(
            node_id=rng.randrange(n_nodes),
            location=Point(
                rng.uniform(400.0, 500.0), rng.uniform(400.0, 500.0)
            ),
            time=t,
        ))
    # A sender the CH has never heard of.
    if rng.random() < 0.5:
        t += 0.01
        reports.append(LocationReport(
            node_id=n_nodes + 100, location=Point(50.0, 50.0), time=t
        ))
    rng.shuffle(reports)
    return reports


class TestRandomizedDifferential:
    @pytest.mark.parametrize("seed", range(25))
    def test_kernel_matches_oracle(self, seed):
        rng = random.Random(seed)
        n_nodes = rng.randint(2, 40)
        positions = {
            i: Point(rng.uniform(0, 100), rng.uniform(0, 100))
            for i in range(n_nodes)
        }
        deployment = make_deployment(positions)
        use_trust = seed % 5 != 4  # every fifth seed: majority baseline
        engine, kernel = make_pair(
            deployment, positions.keys(), use_trust=use_trust
        )
        excluded = tuple(sorted(rng.sample(
            range(n_nodes), rng.randint(0, min(3, n_nodes))
        )))
        buf = ReportBuffer(capacity=2)  # force growth along the way
        for _window in range(3):
            reports = random_window(rng, n_nodes, positions)
            obj = engine.decide(reports, excluded_nodes=excluded)
            arr = kernel_decide(kernel, reports, excluded, buffer=buf)
            buf.reset()
            assert_identical(obj, arr)
        if use_trust:
            assert (engine.voter.trust.calls
                    == kernel.voter.trust.calls)
            assert (engine.voter.trust.export_state()
                    == kernel.voter.trust.export_state())

    @pytest.mark.parametrize("seed", range(5))
    def test_min_cluster_fraction_filter_matches(self, seed):
        rng = random.Random(1000 + seed)
        positions = {
            i: Point(rng.uniform(0, 100), rng.uniform(0, 100))
            for i in range(12)
        }
        deployment = make_deployment(positions)
        engine, kernel = make_pair(
            deployment, positions.keys(), min_cluster_fraction=0.4
        )
        reports = random_window(rng, 12, positions)
        obj = engine.decide(reports)
        arr = kernel_decide(kernel, reports)
        assert_identical(obj, arr)


class TestEdgeCases:
    def test_empty_window(self):
        deployment = make_deployment({0: Point(10.0, 10.0)})
        _engine, kernel = make_pair(deployment, [0])
        buf = ReportBuffer()
        assert kernel.decide_rows(buf, np.empty(0, dtype=np.intp)) == []

    def test_all_excluded_window(self):
        positions = {0: Point(10.0, 10.0), 1: Point(12.0, 10.0)}
        deployment = make_deployment(positions)
        engine, kernel = make_pair(deployment, positions.keys())
        reports = [
            LocationReport(node_id=0, location=Point(11.0, 10.0), time=1.0),
            LocationReport(node_id=1, location=Point(11.0, 10.0), time=2.0),
        ]
        obj = engine.decide(reports, excluded_nodes=(0, 1))
        arr = kernel_decide(kernel, reports, excluded=(0, 1))
        assert obj == [] and arr == []
        assert engine.voter.trust.calls == kernel.voter.trust.calls == []

    def test_empty_deployment_drops_everything(self):
        deployment = Deployment(region=Region.square(100.0))
        engine, kernel = make_pair(deployment, [])
        reports = [
            LocationReport(node_id=7, location=Point(50.0, 50.0), time=1.0)
        ]
        obj = engine.decide(reports)
        arr = kernel_decide(kernel, reports)
        assert obj == [] and arr == []
        assert engine.voter.trust.calls == kernel.voter.trust.calls == []

    def test_self_refuting_cluster_penalises_supporters(self):
        # Node 0 claims an event at (24, 0): plausible (within
        # r_s + r_error = 25 of the sender) but no node lies within
        # r_s = 20 of the claimed location, so the cluster's supporter
        # set is disjoint from its event neighbours.
        positions = {0: Point(0.0, 0.0), 1: Point(0.0, 60.0)}
        deployment = make_deployment(positions)
        engine, kernel = make_pair(deployment, positions.keys())
        reports = [
            LocationReport(node_id=0, location=Point(24.0, 0.0), time=1.0)
        ]
        obj = engine.decide(reports)
        arr = kernel_decide(kernel, reports)
        assert_identical(obj, arr)
        assert len(arr) == 1
        assert not arr[0].occurred and arr[0].vote is None
        assert engine.voter.trust.calls == kernel.voter.trust.calls
        assert ("penalize_many", (0,)) in kernel.voter.trust.calls

    def test_all_coincident_reports_form_one_cluster(self):
        positions = {
            i: Point(40.0 + i, 50.0) for i in range(6)
        }
        deployment = make_deployment(positions)
        engine, kernel = make_pair(deployment, positions.keys())
        reports = [
            LocationReport(
                node_id=i, location=Point(45.0, 50.0), time=float(i)
            )
            for i in range(6)
        ]
        obj = engine.decide(reports)
        arr = kernel_decide(kernel, reports)
        assert_identical(obj, arr)
        assert len(arr) == 1
        assert arr[0].supporters == (0, 1, 2, 3, 4, 5)


class TestReportBuffer:
    def test_growth_preserves_rows(self):
        buf = ReportBuffer(capacity=2)
        for i in range(17):
            row = buf.append(i, float(i), -float(i), 0.5 * i)
            assert row == i
        assert len(buf) == 17
        assert buf.ids[:17].tolist() == list(range(17))
        assert buf.xs[:17].tolist() == [float(i) for i in range(17)]
        assert buf.ys[:17].tolist() == [-float(i) for i in range(17)]
        assert buf.times[:17].tolist() == [0.5 * i for i in range(17)]

    def test_reset_reuses_capacity(self):
        buf = ReportBuffer(capacity=4)
        for i in range(4):
            buf.append(i, 0.0, 0.0, 0.0)
        capacity = len(buf.ids)
        buf.reset()
        assert len(buf) == 0
        assert buf.append(9, 1.0, 2.0, 3.0) == 0
        assert len(buf.ids) == capacity

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            ReportBuffer(capacity=0)


class TestKernelValidation:
    def test_rejects_bad_parameters(self):
        deployment = make_deployment({0: Point(1.0, 1.0)})
        table = TrustTable(TrustParameters(), [0])
        voter = CtiVoter(table)
        with pytest.raises(ValueError, match="sensing_radius"):
            DecisionKernel(deployment, 0.0, 5.0, voter)
        with pytest.raises(ValueError, match="r_error"):
            DecisionKernel(deployment, 20.0, -1.0, voter)
        with pytest.raises(ValueError, match="min_cluster_fraction"):
            DecisionKernel(
                deployment, 20.0, 5.0, voter, min_cluster_fraction=1.5
            )
