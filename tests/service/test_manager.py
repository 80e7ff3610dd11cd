"""SessionManager: capacity cap, LRU eviction, and thread safety."""

import sys
import threading

import pytest

from repro.core.trust import TrustParameters
from repro.network.geometry import Region
from repro.network.topology import grid_deployment
from repro.service.manager import SessionManager
from repro.service.session import SessionConfig, TrustSession


def make_factory(n=9, side=30.0):
    deployment = grid_deployment(n, Region.square(side))
    config = SessionConfig(
        mode="binary", trust=TrustParameters(lam=0.25, fault_rate=0.1)
    )

    def factory(key):
        return TrustSession(deployment, config)

    return factory


def touch(manager, key):
    """One succeeding request on ``key``: its session, built if new."""
    with manager.locked(key) as session:
        return session


def resident(manager, key):
    """The resident session for ``key`` (touching it), or None."""
    try:
        with manager.locked(key, create=False) as session:
            return session
    except KeyError:
        return None


class TestLifecycle:
    def test_locked_returns_the_resident_session(self):
        manager = SessionManager(make_factory())
        created = touch(manager, "t1")
        assert resident(manager, "t1") is created
        assert touch(manager, "t1") is created
        assert "t1" in manager
        assert len(manager) == 1
        assert resident(manager, "missing") is None

    def test_remove(self):
        manager = SessionManager(make_factory())
        touch(manager, "t1")
        assert manager.remove("t1")
        assert not manager.remove("t1")
        assert len(manager) == 0

    def test_stats(self):
        manager = SessionManager(make_factory(), max_sessions=2)
        for key in ("a", "b", "c"):
            touch(manager, key)
        stats = manager.stats()
        assert stats["sessions"] == 2
        assert stats["max_sessions"] == 2
        assert stats["created"] == 3
        assert stats["evicted"] == 1


class TestEviction:
    def test_cap_evicts_least_recently_used(self):
        manager = SessionManager(make_factory(), max_sessions=3)
        for key in ("a", "b", "c"):
            touch(manager, key)
        resident(manager, "a")  # touch: "b" is now the LRU entry
        touch(manager, "d")
        assert sorted(manager.keys()) == ["a", "c", "d"]

    def test_busy_slot_is_skipped(self):
        manager = SessionManager(make_factory(), max_sessions=2)
        touch(manager, "a")
        touch(manager, "b")
        with manager.locked("a"):  # "a" is LRU but mid-operation
            touch(manager, "c")
        assert sorted(manager.keys()) == ["a", "c"]

    def test_unlimited_by_default(self):
        manager = SessionManager(make_factory())
        for i in range(64):
            touch(manager, f"t{i}")
        assert len(manager) == 64
        assert manager.stats()["evicted"] == 0


class TestLocked:
    def test_locked_creates_by_default(self):
        manager = SessionManager(make_factory())
        with manager.locked("t1") as session:
            assert session.ingest(0)
        assert resident(manager, "t1") is session

    def test_locked_without_create_raises(self):
        manager = SessionManager(make_factory())
        with pytest.raises(KeyError):
            with manager.locked("missing", create=False):
                pass

    def test_failed_first_request_leaves_no_session(self):
        manager = SessionManager(make_factory())
        with pytest.raises(ValueError):
            with manager.locked("t1") as session:
                session.ingest(0)
                raise ValueError("rejected")
        assert manager.keys() == []
        assert manager.stats()["created"] == 0

    def test_failed_request_keeps_a_resident_session(self):
        manager = SessionManager(make_factory())
        with manager.locked("t1") as session:
            session.ingest(0)
        with pytest.raises(ValueError):
            with manager.locked("t1"):
                raise ValueError("rejected")
        assert resident(manager, "t1") is session
        assert session.pending_reports() == 1


class TestConcurrency:
    def test_parallel_ingest_distinct_keys(self):
        manager = SessionManager(make_factory())
        windows, errors = 16, []

        def work(key):
            try:
                for window in range(windows):
                    with manager.locked(key) as session:
                        for node in range(5):
                            session.ingest(node)
                        session.close_window(now=float(window))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Every session saw exactly its own traffic: identical outcomes.
        reference = resident(manager, "t0")
        for i in range(8):
            session = resident(manager, f"t{i}")
            assert session.windows_closed == windows
            assert session.tis() == reference.tis()
            assert [r.decision_id for r in session.decisions] == [
                r.decision_id for r in reference.decisions
            ]

    def test_parallel_ingest_shared_key(self):
        manager = SessionManager(make_factory())
        barrier = threading.Barrier(4)
        errors = []

        def work():
            try:
                barrier.wait()
                for _ in range(50):
                    with manager.locked("shared") as session:
                        session.ingest(0)
                        session.close_window(now=1.0)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        session = resident(manager, "shared")
        assert session.windows_closed == 200
        assert len(session.decisions) == 200


def test_failed_first_requests_race_without_losing_updates():
    """All threads hit each new key at once, half of them failing.

    A session a failed first request built is dropped; a request that
    was waiting on it must look the key up afresh, not ingest into the
    dropped session.  So every key ends resident with exactly its
    successful ingests.
    """
    manager = SessionManager(make_factory())
    n_threads, rounds = 8, 200
    barrier = threading.Barrier(n_threads)
    errors = []

    def work(index):
        try:
            for round_ in range(rounds):
                barrier.wait(timeout=10)
                try:
                    with manager.locked(f"r{round_}") as session:
                        if (index + round_) % 2 == 0:
                            raise ValueError("rejected")
                        session.ingest(0)
                except ValueError:
                    pass
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(manager) == rounds
    for round_ in range(rounds):
        assert resident(manager, f"r{round_}").pending_reports() == (
            n_threads // 2
        )
