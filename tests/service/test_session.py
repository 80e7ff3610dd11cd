"""Unit tests for the standalone trust session and its id allocator."""

import json
import math

import numpy as np
import pytest

from repro.clusterctl.head import ClusterHead
from repro.core.decision_kernel import Verdict
from repro.core.trust import TrustParameters
from repro.network.geometry import Point, Region
from repro.network.topology import grid_deployment
from repro.service.ids import IdAllocator
from repro.service.session import SessionConfig, TrustSession
from tests.golden.builders import rotating_run


def make_deployment(n=9, side=30.0):
    return grid_deployment(n, Region.square(side))


def make_session(mode="location", n=9, **config_kwargs):
    config_kwargs.setdefault("trust", TrustParameters(lam=0.25, fault_rate=0.1))
    return TrustSession(
        make_deployment(n=n), SessionConfig(mode=mode, **config_kwargs)
    )


class TestIdAllocator:
    def test_next_protocol(self):
        alloc = IdAllocator()
        assert [next(alloc) for _ in range(3)] == [1, 2, 3]
        assert alloc.peek() == 4
        assert next(alloc) == 4

    def test_reset_and_start(self):
        alloc = IdAllocator(start=10)
        assert next(alloc) == 10
        alloc.reset()
        assert next(alloc) == 1
        alloc.reset(7)
        assert alloc.peek() == 7

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            IdAllocator(start=-1)
        with pytest.raises(ValueError):
            IdAllocator().reset(-2)


class TestBinarySession:
    def test_ingest_close_decides(self):
        session = make_session(mode="binary")
        for node in (0, 1, 2, 3, 4):
            assert session.ingest(node)
        records = session.close_window(now=1.0)
        assert len(records) == 1
        record = records[0]
        assert record.decision_id == 1
        assert record.time == 1.0
        assert record.occurred
        assert record.supporters == (0, 1, 2, 3, 4)
        assert set(record.dissenters) == set(range(5, 9))
        assert session.windows_closed == 1
        # Reporters were rewarded from TI=1.0 (no-op at the ceiling);
        # silent nodes were penalized below 1.0.
        assert session.query_ti(0) == 1.0
        assert session.query_ti(5) < 1.0

    def test_decide_binary_returns_one_verdict(self):
        """One unlocated verdict over the sorted partition, logged by
        nobody until ``record``."""
        session = make_session(mode="binary")
        verdicts = session.decide_binary([6, 2, 2, 0, 7, 4], 3.0)
        assert verdicts == [
            Verdict(True, None, (0, 2, 4, 6, 7), (1, 3, 5, 8), 0)
        ]
        assert type(verdicts[0]) is Verdict
        assert session.decisions == []
        record = session.record(verdicts[0], 3.0)
        assert record[2:] == verdicts[0][:4]
        assert session.decisions == [record]

    def test_close_without_reports_is_noop(self):
        session = make_session(mode="binary")
        assert session.close_window(now=1.0) == []
        assert session.windows_closed == 0
        assert session.decisions == []

    def test_diagnosed_sender_dropped_on_ingest(self):
        session = make_session(mode="binary", diagnosis_threshold=0.6)
        # Node 8 stays silent through enough windows to sink below 0.6.
        for window in range(6):
            for node in range(8):
                session.ingest(node)
            session.close_window(now=float(window))
            if session.diagnosed():
                break
        assert session.diagnosed() == (8,)
        assert not session.ingest(8)
        assert session.pending_reports() == 0


class TestLocationSession:
    def test_clustered_reports_decide(self):
        session = make_session(mode="location")
        event = Point(15.0, 15.0)
        for node in (0, 1, 2, 3, 4):
            assert session.ingest(node, x=event.x, y=event.y, time=0.5)
        (record,) = session.close_window(now=1.0)
        assert record.occurred
        assert record.location is not None
        assert record.supporters == (0, 1, 2, 3, 4)

    def test_report_without_coordinates_dropped(self):
        session = make_session(mode="location")
        assert not session.ingest(0)
        assert session.pending_reports() == 0

    def test_duplicate_report_is_idempotent(self):
        one = make_session(mode="location")
        dup = make_session(mode="location")
        for session, repeats in ((one, 1), (dup, 3)):
            for _ in range(repeats):
                session.ingest(0, x=10.0, y=10.0, time=0.5)
            session.ingest(1, x=10.5, y=10.5, time=0.6)
            session.close_window(now=1.0)
        strip = lambda r: (r.time, r.occurred, r.location, r.supporters,
                           r.dissenters)
        assert [strip(r) for r in one.decisions] == [
            strip(r) for r in dup.decisions
        ]
        assert one.tis() == dup.tis()

    def test_equal_keys_decide_on_the_first_arrival(self):
        # One node reports twice at one instant from two locations in
        # one circle.  The window is sorted by (time, node_id), stably:
        # the first-arrived report survives dedupe.  It is the larger in
        # x and y, so a sort on any wider key would keep the other.
        session = make_session(mode="location")
        session.ingest(3, x=15.5, y=15.5, time=0.5)
        session.ingest(3, x=15.0, y=15.0, time=0.5)
        (record,) = session.close_window(now=1.0)
        assert record.supporters == (3,)
        assert record.location == Point(15.5, 15.5)


def state_text(session):
    return json.dumps(session.export_state(), sort_keys=True)


class TestReplay:
    @pytest.mark.parametrize("mode", ["binary", "location"])
    def test_replay_needs_an_empty_open_window(self, mode):
        source = make_session(mode=mode, journal=True)
        for node in range(5):
            source.ingest(node, x=15.0, y=15.0, time=0.5)
        source.close_window(now=1.0)
        (record,) = source.journal_records()

        session = make_session(mode=mode)
        session.ingest(0, x=15.0, y=15.0, time=1.5)
        before = state_text(session)
        with pytest.raises(RuntimeError, match="empty open window"):
            session.replay_window(record)
        assert state_text(session) == before


class TestInputRule:
    @pytest.mark.parametrize("mode", ["binary", "location"])
    @pytest.mark.parametrize("node", [10**6, -1, 9])
    def test_node_outside_deployment_is_rejected(self, mode, node):
        session = make_session(mode=mode)  # nodes 0..8
        session.ingest(0, x=15.0, y=15.0, time=0.5)
        before = state_text(session)
        with pytest.raises(ValueError, match="not in the deployment"):
            session.ingest(node, x=15.0, y=15.0, time=0.5)
        assert state_text(session) == before
        session.close_window(now=1.0)
        assert node not in session.tis()

    @pytest.mark.parametrize("mode", ["binary", "location"])
    @pytest.mark.parametrize("field", ["x", "y", "time"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_rejected(self, mode, field, value):
        session = make_session(mode=mode)
        report = {"x": 15.0, "y": 15.0, "time": 0.5, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            session.ingest(0, **report)
        assert session.pending_reports() == 0

    @pytest.mark.parametrize("mode", ["binary", "location"])
    @pytest.mark.parametrize("field", ["x", "y", "time"])
    @pytest.mark.parametrize("value", [True, False, "2.5"])
    def test_bools_and_strings_are_not_numbers(self, mode, field, value):
        session = make_session(mode=mode)
        session.ingest(0, x=15.0, y=15.0, time=0.5)
        before = state_text(session)
        report = {"x": 15.0, "y": 15.0, "time": 0.5, field: value}
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            session.ingest(1, **report)
        assert state_text(session) == before

    def test_no_report_value_is_converted(self):
        session = make_session()
        with pytest.raises(ValueError, match="must be a number"):
            session.ingest(0, x=True, y="15", time=False)
        assert session.pending_reports() == 0

    @pytest.mark.parametrize("mode", ["binary", "location"])
    @pytest.mark.parametrize("value", [True, "2.5", 10**400],
                             ids=["bool", "text", "10**400"])
    def test_close_time_must_be_a_finite_number(self, mode, value):
        session = make_session(mode=mode)
        session.ingest(0, x=15.0, y=15.0, time=0.5)
        before = state_text(session)
        with pytest.raises(ValueError, match="time must be"):
            session.close_window(now=value)
        assert state_text(session) == before

    def test_check_report_normalises_without_ingesting(self):
        session = make_session()
        assert session.check_report(3, 1, 2, 0) == (3, 1.0, 2.0, 0.0)
        assert session.check_report(3) == (3, None, None, 0.0)
        assert session.check_report(np.int64(3)) == (3, None, None, 0.0)
        assert type(session.check_report(np.int64(3))[0]) is int
        assert session.pending_reports() == 0

    @pytest.mark.parametrize("node", [1.7, 1.0, True, "1", None])
    def test_non_integer_node_ids_are_rejected(self, node):
        session = make_session()
        with pytest.raises(ValueError, match="must be an integer"):
            session.check_report(node, 15.0, 15.0, 0.5)
        assert session.pending_reports() == 0


class TestStateRoundTrip:
    def test_json_round_trip_preserves_behaviour(self):
        session = make_session(mode="binary", diagnosis_threshold=0.3)
        for window in range(3):
            for node in range(6):
                session.ingest(node)
            session.close_window(now=float(window))
        session.ingest(0)  # leave an open window mid-stream

        state = json.loads(json.dumps(session.export_state()))
        clone = make_session(mode="binary", diagnosis_threshold=0.3)
        clone.import_state(state)

        assert clone.tis() == session.tis()
        assert clone.diagnosed() == session.diagnosed()
        assert clone.decisions == session.decisions
        assert clone.pending_reports() == session.pending_reports()

        # Both continue identically -- including minted decision ids.
        for s in (session, clone):
            for node in range(1, 6):
                s.ingest(node)
            s.close_window(now=10.0)
        assert clone.decisions == session.decisions
        assert clone.tis() == session.tis()

    def test_trust_values_export_as_plain_positive_floats(self):
        session = make_session(mode="binary")
        doc = session.export_state()
        doc["trust"] = [[0, -0.0], [1, 2], [2, 1.5]]
        session.import_state(json.loads(json.dumps(doc)))
        trust = session.export_state()["trust"]
        assert trust[:3] == [[0, 0.0], [1, 2.0], [2, 1.5]]
        for _, v in trust:
            assert type(v) is float
            assert math.copysign(1.0, v) == 1.0
        assert '"trust": [[0, 0.0], [1, 2.0], [2, 1.5], [3, 0.0]' in (
            state_text(session)
        )

    @pytest.mark.parametrize("field, value", [
        ("trust", [[0, -1.0]]),
        ("decisions", [{"decision_id": 1}]),
        ("next_decision_id", -5),
        ("next_decision_id", math.inf),
        ("pending", [[0, 1.0, 1.0, 0.5], [10**6, 1.0, 1.0, 0.5]]),
        ("pending", [[0, True, 1.0, 0.5]]),
        ("pending", [[0, 1.0, "2.5", 0.5]]),
        ("pending", [[0, 1.0, 1.0, False]]),
        ("decisions", [{
            "decision_id": 1, "time": True, "occurred": True,
            "location": [True, "2.5"], "supporters": [0], "dissenters": [],
        }]),
        ("decisions", [{
            "decision_id": 1, "time": 1.0, "occurred": True,
            "location": [1.0, "2.5"], "supporters": [0], "dissenters": [],
        }]),
    ], ids=["trust", "decisions", "next_decision_id", "infinite-id",
            "pending", "pending-x-bool", "pending-y-text",
            "pending-time-bool", "decision-time-bool", "decision-y-text"])
    def test_rejected_import_leaves_session_unchanged(self, field, value):
        session = make_session(diagnosis_threshold=0.3)
        for node in range(5):
            session.ingest(node, x=15.0, y=15.0, time=0.5)
        session.close_window(now=1.0)
        session.ingest(0, x=15.0, y=15.0, time=1.5)
        before = state_text(session)
        doc = session.export_state()
        doc["members"] = [0, 1]
        doc[field] = value
        with pytest.raises(
            (ValueError, KeyError, TypeError, OverflowError)
        ):
            session.import_state(doc)
        assert state_text(session) == before

    def test_location_pending_rows_need_coordinates(self):
        session = make_session()
        session.ingest(0, x=15.0, y=15.0, time=0.5)
        before = state_text(session)
        doc = session.export_state()
        doc["pending"] = [[1, 15.0, 15.0, 0.5], [0, None, 15.0, 0.5]]
        with pytest.raises(ValueError, match="x must be a number"):
            session.import_state(doc)
        assert state_text(session) == before

    def test_import_rejects_wrong_mode(self):
        binary = make_session(mode="binary")
        location = make_session(mode="location")
        with pytest.raises(ValueError):
            location.import_state(binary.export_state())

    def test_journal_requires_flag(self):
        session = make_session(mode="binary")
        with pytest.raises(RuntimeError):
            session.journal_records()


class TestDecisionLog:
    def logged_session(self, ids):
        session = make_session(mode="binary")
        doc = session.export_state()
        doc["decisions"] = [
            {"decision_id": i, "time": float(i), "occurred": i % 2 == 0,
             "location": None, "supporters": [0], "dissenters": [1]}
            for i in ids
        ]
        doc["next_decision_id"] = ids[-1] + 1 if ids else 0
        session.import_state(doc)
        return session

    @pytest.mark.parametrize("ids", [
        [], [0], [7], [0, 1, 2], list(range(2, 152, 3)),
    ], ids=["empty", "zero", "one", "dense", "sparse-50"])
    def test_since_equals_the_filtered_log(self, ids):
        session = self.logged_session(ids)
        full = session.decision_log()
        assert [d["decision_id"] for d in full] == ids
        lowest = ids[0] if ids else 0
        highest = ids[-1] if ids else 0
        for since in range(lowest - 3, highest + 4):
            assert session.decision_log(since) == [
                d for d in full if d["decision_id"] > since
            ], since


class TestDecisionIdIsolation:
    """Regression: sessions are reproducible without global id resets."""

    def test_private_allocators_are_independent(self):
        streams = []
        for _ in range(2):
            session = make_session(mode="binary")
            for window in range(3):
                for node in range(5):
                    session.ingest(node)
                session.close_window(now=float(window))
            streams.append([r.decision_id for r in session.decisions])
        # Bit-identical ids on both passes -- creating and running the
        # first session did not advance any state the second one sees.
        assert streams[0] == streams[1] == [1, 2, 3]

    def test_cluster_head_accepts_explicit_allocator(self):
        deployment = make_deployment()
        config = SessionConfig(mode="binary")
        ch = ClusterHead(
            node_id=100,
            position=Point(15.0, 15.0),
            deployment=deployment,
            config=config,
            id_allocator=IdAllocator(start=500),
        )
        assert ch.session.ids.peek() == 500

    def test_cluster_heads_share_their_runs_stream(self):
        """A run's heads, and their shadow seats, number decisions from
        the run's one allocator; two standalone heads each start at 1."""
        deployment = make_deployment()
        config = SessionConfig(mode="binary")
        a = ClusterHead(1, Point(0, 0), deployment, config)
        b = ClusterHead(2, Point(0, 0), deployment, config)
        assert next(a.session.ids) == next(b.session.ids) == 1

        run = rotating_run(level=1, faulty_count=15).run(5)
        heads = list(run._heads.values())
        assert len(heads) > 1
        assert all(ch.session.ids is heads[0].session.ids for ch in heads)
        seats = [seat for mirror in run._mirrors for seat in mirror.seats]
        minted = [
            d.decision_id
            for logger in heads + seats
            for d in logger.decisions
        ]
        assert len(seats) > 1 and len(minted) > len(heads)
        assert sorted(minted) == list(range(1, len(minted) + 1))
