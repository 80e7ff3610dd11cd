"""Explicit id allocation for reproducible sessions.

:class:`IdAllocator` is a tiny resettable counter that can be *owned*.
Each bare :class:`~repro.service.session.TrustSession` defaults to its
own allocator, so two sessions fed the same report stream mint the same
decision ids; a DES run owns one that every cluster head it installs
shares, so ids stay unique across the run's heads and number each run
alike whatever ran before it in the process.
"""

from __future__ import annotations

__all__ = ["IdAllocator"]


class IdAllocator:
    """A resettable monotonic id source (``next(alloc)`` yields ints).

    Drop-in for ``itertools.count`` on the allocation side -- the same
    ``next()`` protocol -- plus the two operations a count cannot do:
    :meth:`peek` (what id comes next, for state export) and
    :meth:`reset` (rewind, for state import).
    """

    __slots__ = ("_next_id",)

    def __init__(self, start: int = 1) -> None:
        if start < 0:
            raise ValueError(f"start must be non-negative, got {start}")
        self._next_id = start

    def __next__(self) -> int:
        value = self._next_id
        self._next_id = value + 1
        return value

    def __iter__(self) -> "IdAllocator":
        return self

    def peek(self) -> int:
        """The id the next ``next()`` call will return (no side effect)."""
        return self._next_id

    def reset(self, start: int = 1) -> None:
        """Rewind the stream so the next id is ``start``."""
        if start < 0:
            raise ValueError(f"start must be non-negative, got {start}")
        self._next_id = start

    def __repr__(self) -> str:
        return f"IdAllocator(next={self._next_id})"
