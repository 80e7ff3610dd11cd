"""Typed message payloads exchanged over the radio channel.

Every message the protocol sends is a tuple record, a plain
``typing.NamedTuple``.  A sweep builds one per report and one per
verdict, and a tuple record costs about a third of a frozen dataclass to
build (see "Records" in ``docs/protocol.md``).  Using types (rather
than dicts) keeps handler dispatch explicit and lets tests assert on
exact payloads.

The first two fields of every message are ``sender`` and
``message_id`` (:class:`Message`).  A record mints nothing: a sender in
a run passes ``message_id=next(sim.message_ids)`` from its simulator,
and a message built outside a run keeps the default id 0.  Besides
those two fields the radio reads only ``named``, the ids a message
names, and a message without it names nobody: a wide-open broadcast
reaches an endpoint that does not hear unnamed messages only when it is
named (``RadioChannel.broadcast``).

>>> report = EventReportMessage(sender=3, message_id=12)
>>> report.message_id, report.offset
(12, None)
>>> EventReportMessage(sender=3).message_id
0
>>> report.sender = 4  # doctest: +IGNORE_EXCEPTION_DETAIL
Traceback (most recent call last):
    ...
AttributeError: can't set attribute
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Protocol, Tuple

from repro.network.geometry import Point, PolarOffset


class Message(Protocol):
    """What the radio and every endpoint need from a message.

    Attributes
    ----------
    sender:
        Node id of the transmitting endpoint.
    message_id:
        The id its run gave it (``Simulator.message_ids``), unique
        within the run; used for tracing.
    """

    sender: int
    message_id: int


class EventReportMessage(NamedTuple):
    """A sensing node's report of a detected event (§2, §3.2).

    ``offset`` is the claimed event position as ``(r, theta)`` relative
    to the reporting node.  Sensors in a location run encode one, and a
    location cluster head drops a report that carries none.  A binary
    cluster head reads only who reported, so sensors in a binary run
    send ``offset=None``: the report simply asserts "an event happened
    inside my sensing radius".
    """

    sender: int
    message_id: int = 0
    offset: Optional[PolarOffset] = None


class ChDecisionAnnouncement(NamedTuple):
    """Cluster head's verdict on an event window.

    Broadcast so that (a) the base station learns of events, and (b)
    *smart* malicious nodes can observe outcomes to steer their own
    trust-index estimates.  It names its reporters and non-reporters,
    the only sensors whose trust the verdict moves.
    """

    sender: int
    message_id: int = 0
    decision_id: int = 0
    occurred: bool = False
    location: Optional[Point] = None
    reporters: Tuple[int, ...] = ()
    non_reporters: Tuple[int, ...] = ()

    @property
    def named(self) -> Tuple[int, ...]:
        """The reporters, then the non-reporters."""
        return self.reporters + self.non_reporters


class TiTableTransfer(NamedTuple):
    """Trust-index table hand-off (outgoing CH -> base station -> new CH).

    The table maps node id to the accumulated fault variable ``v`` (the
    TI itself is derived, so shipping ``v`` preserves full state).  It
    defaults to an empty read-only mapping.
    """

    sender: int
    message_id: int = 0
    table: Mapping[int, float] = MappingProxyType({})


class ScHDisagreement(NamedTuple):
    """Shadow cluster head's dissent escalated to the base station (§3.4)."""

    sender: int
    message_id: int = 0
    decision_id: int = 0
    occurred: bool = False
    location: Optional[Point] = None
    suspected_ch: int = -1
