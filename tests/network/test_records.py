"""The contract of the tuple records built per report, event and verdict.

Points, polar offsets, every radio message, ground-truth events,
verdicts, decision records and event outcomes are
``typing.NamedTuple`` records.  They must stay what their frozen
dataclass predecessors were to every caller: immutable, picklable (spawn
workers pickle them), built by keyword or position, and printed the
same.  A message mints no id: its sender takes one from its run.
"""

import pickle

import pytest

from repro.core.decision_kernel import Verdict
from repro.experiments.metrics import EventOutcome
from repro.network.geometry import Point, PolarOffset
from repro.network.messages import (
    ChDecisionAnnouncement,
    EventReportMessage,
    ScHDisagreement,
    TiTableTransfer,
)
from repro.network.multihop import RelayAck, RelayedMessage
from repro.sensors.generator import GroundTruthEvent
from repro.service.session import DecisionRecord
from tests.network.test_multihop import build_chain

OFFSET = PolarOffset(r=1.0, theta=0.5)

#: One instance of every record type, built by keyword.
RECORDS = [
    Point(x=1.5, y=-2.0),
    OFFSET,
    EventReportMessage(sender=3, offset=OFFSET),
    ChDecisionAnnouncement(
        sender=100, decision_id=4, occurred=True, location=Point(1.0, 2.0),
        reporters=(0, 1), non_reporters=(2,),
    ),
    TiTableTransfer(sender=100, table={0: 0.5}),
    ScHDisagreement(sender=7, decision_id=4, suspected_ch=100),
    RelayedMessage(sender=1, payload=EventReportMessage(sender=1),
                   origin=1, destination=5),
    RelayAck(sender=5, relay_id=3),
    GroundTruthEvent(event_id=1, time=10.0, location=Point(5.0, 5.0)),
    DecisionRecord(
        decision_id=4, time=2.5, occurred=True, location=Point(1.0, 2.0),
        supporters=(0, 1), dissenters=(2,),
    ),
    Verdict(
        occurred=True, location=Point(1.0, 2.0), supporters=(0, 1),
        dissenters=(2,), span_id=5,
    ),
    EventOutcome(
        event_id=1, time=10.0, location=Point(5.0, 5.0), detected=True,
        localisation_error=0.5,
    ),
]
IDS = [type(record).__name__ for record in RECORDS]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_records_refuse_assignment(record):
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_records_survive_pickle(record):
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is type(record)
    assert clone == record
    assert repr(clone) == repr(record)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(record):
    cls = type(record)
    assert cls(*record) == record
    assert cls(**record._asdict()) == record


def test_reprs_are_the_dataclass_reprs():
    assert repr(Point(1.5, -2.0)) == "Point(x=1.5, y=-2.0)"
    assert repr(
        EventReportMessage(sender=3, message_id=7, offset=OFFSET)
    ) == (
        "EventReportMessage(sender=3, message_id=7, "
        "offset=PolarOffset(r=1.0, theta=0.5))"
    )
    assert repr(RECORDS[9]) == (
        "DecisionRecord(decision_id=4, time=2.5, occurred=True, "
        "location=Point(x=1.0, y=2.0), supporters=(0, 1), dissenters=(2,))"
    )


def test_negative_polar_range_is_refused():
    with pytest.raises(ValueError, match="non-negative"):
        PolarOffset(r=-1.0, theta=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        PolarOffset(-1.0, 0.0)


def test_equal_values_hash_equal():
    assert hash(Point(1.0, 2.0)) == hash(Point(1.0, 2.0))
    assert len({RECORDS[9], RECORDS[9]._replace()}) == 1
    assert RECORDS[9]._replace(occurred=False) != RECORDS[9]


def sent_messages(channel):
    """Record every message ``channel`` transmits, in send order."""
    sent = []
    unicast = channel.unicast

    def recording_unicast(sender, destination, message):
        sent.append(message)
        return unicast(sender, destination, message)

    channel.unicast = recording_unicast
    return sent


def test_message_ids_are_minted_once_per_construction_in_order():
    """A record mints nothing: built outside a run it keeps id 0, and
    copies keep the id they were given.  In a run each sender takes one
    id from its run's stream per message it builds, in the order it
    builds them, and the next run numbers its messages from 1 again."""
    messages = [
        EventReportMessage(sender=1),
        ChDecisionAnnouncement(sender=1),
        TiTableTransfer(sender=1),
        ScHDisagreement(sender=1),
        RelayedMessage(sender=1),
        RelayAck(sender=1),
    ]
    assert [m.message_id for m in messages] == [0] * 6
    given = EventReportMessage(sender=1, message_id=7)
    assert pickle.loads(pickle.dumps(given)).message_id == 7
    assert given._replace(sender=2).message_id == 7

    for _ in range(2):
        sim, channel, relays, delivered = build_chain(n=3)
        sent = sent_messages(channel)
        for _ in range(2):
            relays[0].originate(EventReportMessage(sender=0), destination=2)
            sim.run()
        # Per relay: send (0 -> 1), ack (1 -> 0), forward (1 -> 2),
        # ack (2 -> 1).  Each hop builds only what it transmits, so the
        # ids sent are the run's ids, with no gap.
        assert [type(m).__name__ for m in sent] == [
            "RelayedMessage", "RelayAck", "RelayedMessage", "RelayAck",
        ] * 2
        assert [m.message_id for m in sent] == [1, 2, 3, 4, 5, 6, 7, 8]
        assert len(delivered) == 2


def test_relay_ids_follow_their_own_stream():
    """Relay ids come from the run's relay stream, not its message
    stream: every hop of one relay keeps the id the origin took."""
    sim, channel, relays, _delivered = build_chain(n=3)
    sent = sent_messages(channel)
    first = relays[0].originate(EventReportMessage(sender=0), destination=2)
    second = relays[0].originate(EventReportMessage(sender=0), destination=2)
    sim.run()
    assert (first, second) == (1, 2)
    assert sorted({m.relay_id for m in sent}) == [1, 2]
    assert len({m.message_id for m in sent}) == len(sent) == 8
    assert next(sim.relay_ids) == 3


def test_ti_transfers_default_to_fresh_tables():
    """The default table is empty and read-only: no transfer can fill a
    table another transfer shares."""
    a = TiTableTransfer(sender=1)
    b = TiTableTransfer(sender=1)
    assert a.table == {} and b.table == {}
    with pytest.raises(TypeError):
        a.table[0] = 1.0
    assert b.table == {}
