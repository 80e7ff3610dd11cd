"""Multi-tenant session registry: many trust sessions, one process.

:class:`SessionManager` holds tens of thousands of independent
:class:`~repro.service.session.TrustSession` objects keyed by a
tenant/cluster id string.  It provides the three things the HTTP layer
(and any embedding server) needs:

* **lazy creation** -- unknown keys are built by the injected factory
  on first touch, and dropped if no request on them succeeds;
* **bounded residency** -- a max-session cap with LRU eviction of idle
  sessions (an ``OrderedDict`` move-to-end on every touch *is* the LRU
  order, so eviction is O(1) and needs no clock);
* **safe concurrency** -- one :class:`threading.Lock` per session plus
  a registry lock, so ingests for different tenants run in parallel
  while a single session's window state is never raced.

Eviction drops a session and its state.  A client that must keep a
session reads ``GET /v1/sessions/<key>/state`` first and ``PUT``s it
back later (see ``docs/service.md``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from repro.service.session import TrustSession

__all__ = ["SessionManager", "SessionSlot"]


class SessionSlot:
    """One managed session, its ingest lock, and whether a request on
    it has succeeded."""

    __slots__ = ("key", "session", "lock", "used")

    def __init__(self, key: str, session: TrustSession) -> None:
        self.key = key
        self.session = session
        self.lock = threading.Lock()
        self.used = False


class SessionManager:
    """A capped, LRU-evicting registry of trust sessions.

    Parameters
    ----------
    factory:
        ``factory(key) -> TrustSession`` builder for unknown keys.
    max_sessions:
        Residency cap; reaching it evicts (drops) the least-recently-used
        idle session.  ``0`` means unbounded.
    """

    def __init__(
        self,
        factory: Callable[[str], TrustSession],
        max_sessions: int = 0,
    ) -> None:
        if max_sessions < 0:
            raise ValueError(
                f"max_sessions must be non-negative, got {max_sessions}"
            )
        self._factory = factory
        self.max_sessions = max_sessions
        self._slots: "OrderedDict[str, SessionSlot]" = OrderedDict()
        self._lock = threading.Lock()
        self.created = 0
        self.evicted = 0

    # ------------------------------------------------------------------
    # Lookup / creation
    # ------------------------------------------------------------------
    def _get_slot(self, key: str) -> Optional[SessionSlot]:
        """The slot for ``key`` if resident (touches LRU order)."""
        with self._lock:
            slot = self._slots.get(key)
            if slot is not None:
                self._slots.move_to_end(key)
            return slot

    def _get_or_create_slot(self, key: str) -> SessionSlot:
        """The slot for ``key``, building (and possibly evicting) as needed."""
        with self._lock:
            slot = self._slots.get(key)
            if slot is not None:
                self._slots.move_to_end(key)
                return slot
            if self.max_sessions and len(self._slots) >= self.max_sessions:
                self._evict_lru_locked(
                    len(self._slots) - self.max_sessions + 1
                )
            slot = SessionSlot(key, self._factory(key))
            self._slots[key] = slot
            self.created += 1
        return slot

    @contextmanager
    def locked(self, key: str, create: bool = True) -> Iterator[TrustSession]:
        """Context manager: the session for ``key`` under its own lock.

        With ``create=False`` raises :class:`KeyError` for non-resident
        keys instead of building one.  If the block raises on a session
        no request has yet succeeded on, the session is dropped, so a
        rejected first request leaves none behind.  A slot dropped or
        evicted while this call waited for its lock is looked up afresh.
        """
        while True:
            slot = (
                self._get_or_create_slot(key) if create
                else self._get_slot(key)
            )
            if slot is None:
                raise KeyError(key)
            with slot.lock:
                with self._lock:
                    if self._slots.get(key) is not slot:
                        continue
                try:
                    yield slot.session
                except BaseException:
                    if not slot.used:
                        with self._lock:
                            if self._slots.get(key) is slot:
                                del self._slots[key]
                                self.created -= 1
                    raise
                slot.used = True
                return

    # ------------------------------------------------------------------
    # Eviction / removal
    # ------------------------------------------------------------------
    def _evict_lru_locked(self, count: int) -> None:
        """Drop up to ``count`` idle sessions, oldest-touched first.

        Sessions whose lock is currently held (mid-ingest on another
        thread) are skipped -- evicting those would hand the worker a
        dangling session.  Caller holds the registry lock.
        """
        evicted = 0
        for key in list(self._slots):
            if evicted >= count:
                break
            if self._slots[key].lock.locked():
                continue
            del self._slots[key]
            evicted += 1
        self.evicted += evicted

    def remove(self, key: str) -> bool:
        """Drop ``key`` outright; True if it was resident."""
        with self._lock:
            return self._slots.pop(key, None) is not None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._slots)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._slots

    def keys(self) -> List[str]:
        """Resident session keys, least-recently-used first."""
        with self._lock:
            return list(self._slots)

    def stats(self) -> Dict[str, int]:
        """Registry counters for health endpoints and benchmarks."""
        with self._lock:
            return {
                "sessions": len(self._slots),
                "max_sessions": self.max_sessions,
                "created": self.created,
                "evicted": self.evicted,
            }
