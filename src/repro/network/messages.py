"""Typed message payloads exchanged over the radio channel.

Every message the protocol sends is a tuple record: a
``typing.NamedTuple`` whose constructor mints the message id.  A sweep
builds one per report and one per verdict, and a tuple record costs
about a third of a frozen dataclass to build (see "Records" in
``docs/protocol.md``).  Using types (rather than dicts) keeps handler
dispatch explicit and lets tests assert on exact payloads.

The first two fields of every message are ``sender`` and
``message_id`` (:class:`Message`).  Besides them the radio reads only
``named``, the ids a message names, and a message without it names
nobody: a wide-open broadcast reaches an endpoint that does not hear
unnamed messages only when it is named (``RadioChannel.broadcast``).

>>> a = EventReportMessage(sender=3, event_id=7)
>>> b = EventReportMessage(3, a.message_id + 5)
>>> b.message_id - a.message_id
5
>>> a.sender = 4  # doctest: +IGNORE_EXCEPTION_DETAIL
Traceback (most recent call last):
    ...
AttributeError: can't set attribute
"""

from __future__ import annotations

import itertools
from typing import Dict, NamedTuple, Optional, Protocol, Tuple

from repro.network.geometry import Point, PolarOffset

_message_ids = itertools.count(1)


def _next_message_id() -> int:
    return next(_message_ids)


def reset_message_ids(start: int = 1) -> None:
    """Rewind the process-global message-id stream (test isolation)."""
    global _message_ids
    _message_ids = itertools.count(start)


class Message(Protocol):
    """What the radio and every endpoint need from a message.

    Attributes
    ----------
    sender:
        Node id of the transmitting endpoint.
    message_id:
        Globally unique id assigned at construction (unless given);
        used for tracing and duplicate suppression.
    """

    sender: int
    message_id: int


class _EventReportFields(NamedTuple):
    sender: int
    message_id: int
    event_id: Optional[int]
    offset: Optional[PolarOffset]
    claimed: bool


class EventReportMessage(_EventReportFields):
    """A sensing node's report of a detected event (§2, §3.2).

    ``offset`` is the claimed event position as ``(r, theta)`` relative
    to the reporting node.  DES sensors always encode one; a binary
    cluster head ignores it (the report then simply asserts "an event
    happened inside my sensing radius"), and a location cluster head
    drops a report that carries none.
    """

    __slots__ = ()

    def __new__(
        cls,
        sender: int,
        message_id: Optional[int] = None,
        event_id: Optional[int] = None,
        offset: Optional[PolarOffset] = None,
        claimed: bool = True,
    ) -> "EventReportMessage":
        if message_id is None:
            message_id = next(_message_ids)
        return tuple.__new__(
            cls, (sender, message_id, event_id, offset, claimed)
        )


class _AnnouncementFields(NamedTuple):
    sender: int
    message_id: int
    decision_id: int
    occurred: bool
    location: Optional[Point]
    reporters: Tuple[int, ...]
    non_reporters: Tuple[int, ...]


class ChDecisionAnnouncement(_AnnouncementFields):
    """Cluster head's verdict on an event window.

    Broadcast so that (a) the base station learns of events, and (b)
    *smart* malicious nodes can observe outcomes to steer their own
    trust-index estimates.  It names its reporters and non-reporters,
    the only sensors whose trust the verdict moves.
    """

    __slots__ = ()

    @property
    def named(self) -> Tuple[int, ...]:
        """The reporters, then the non-reporters."""
        return self.reporters + self.non_reporters

    def __new__(
        cls,
        sender: int,
        message_id: Optional[int] = None,
        decision_id: int = 0,
        occurred: bool = False,
        location: Optional[Point] = None,
        reporters: Tuple[int, ...] = (),
        non_reporters: Tuple[int, ...] = (),
    ) -> "ChDecisionAnnouncement":
        if message_id is None:
            message_id = next(_message_ids)
        return tuple.__new__(
            cls,
            (
                sender, message_id, decision_id, occurred, location,
                reporters, non_reporters,
            ),
        )


class _TransferFields(NamedTuple):
    sender: int
    message_id: int
    table: Dict[int, float]
    cluster_id: int
    round_number: int


class TiTableTransfer(_TransferFields):
    """Trust-index table hand-off (outgoing CH -> base station -> new CH).

    The table maps node id to the accumulated fault variable ``v`` (the
    TI itself is derived, so shipping ``v`` preserves full state).  It
    defaults to a new empty dict.
    """

    __slots__ = ()

    def __new__(
        cls,
        sender: int,
        message_id: Optional[int] = None,
        table: Optional[Dict[int, float]] = None,
        cluster_id: int = 0,
        round_number: int = 0,
    ) -> "TiTableTransfer":
        if message_id is None:
            message_id = next(_message_ids)
        if table is None:
            table = {}
        return tuple.__new__(
            cls, (sender, message_id, table, cluster_id, round_number)
        )


class _DisagreementFields(NamedTuple):
    sender: int
    message_id: int
    decision_id: int
    occurred: bool
    location: Optional[Point]
    suspected_ch: int


class ScHDisagreement(_DisagreementFields):
    """Shadow cluster head's dissent escalated to the base station (§3.4)."""

    __slots__ = ()

    def __new__(
        cls,
        sender: int,
        message_id: Optional[int] = None,
        decision_id: int = 0,
        occurred: bool = False,
        location: Optional[Point] = None,
        suspected_ch: int = -1,
    ) -> "ScHDisagreement":
        if message_id is None:
            message_id = next(_message_ids)
        return tuple.__new__(
            cls,
            (
                sender, message_id, decision_id, occurred, location,
                suspected_ch,
            ),
        )
