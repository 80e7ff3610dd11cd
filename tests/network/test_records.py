"""The contract of the tuple records built per report, event and verdict.

Points, polar offsets, every radio message, ground-truth events,
decision records, majority votes and event outcomes are
``typing.NamedTuple`` records.  They must stay what their frozen
dataclass predecessors were to every caller: immutable, picklable (spawn
workers pickle them), built by keyword or position, printed the same,
and -- for messages -- minting one id per construction, in order.
"""

import pickle

import pytest

from repro.core.baseline import MajorityVoteResult
from repro.experiments.metrics import EventOutcome
from repro.network.geometry import Point, PolarOffset
from repro.network.messages import (
    ChDecisionAnnouncement,
    EventReportMessage,
    ScHDisagreement,
    TiTableTransfer,
    reset_message_ids,
)
from repro.network.multihop import RelayAck, RelayedMessage
from repro.sensors.generator import GroundTruthEvent
from repro.service.session import DecisionRecord

OFFSET = PolarOffset(r=1.0, theta=0.5)

#: One instance of every record type, built by keyword.
RECORDS = [
    Point(x=1.5, y=-2.0),
    OFFSET,
    EventReportMessage(sender=3, event_id=2, offset=OFFSET),
    ChDecisionAnnouncement(
        sender=100, decision_id=4, occurred=True, location=Point(1.0, 2.0),
        reporters=(0, 1), non_reporters=(2,),
    ),
    TiTableTransfer(sender=100, table={0: 0.5}, cluster_id=1),
    ScHDisagreement(sender=7, decision_id=4, suspected_ch=100),
    RelayedMessage(sender=1, payload=EventReportMessage(sender=1),
                   origin=1, destination=5),
    RelayAck(sender=5, relay_id=3),
    GroundTruthEvent(event_id=1, time=10.0, location=Point(5.0, 5.0)),
    DecisionRecord(
        decision_id=4, time=2.5, occurred=True, location=Point(1.0, 2.0),
        supporters=(0, 1), dissenters=(2,),
    ),
    MajorityVoteResult(
        occurred=True, reporters=(0, 1), non_reporters=(2,), tie=False
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
        EventReportMessage(sender=3, message_id=7, event_id=2, offset=OFFSET)
    ) == (
        "EventReportMessage(sender=3, message_id=7, event_id=2, "
        "offset=PolarOffset(r=1.0, theta=0.5), claimed=True)"
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


def test_message_ids_are_minted_once_per_construction_in_order():
    reset_message_ids(50)
    try:
        minted = [
            EventReportMessage(sender=1).message_id,
            ChDecisionAnnouncement(sender=1).message_id,
            TiTableTransfer(sender=1).message_id,
            ScHDisagreement(sender=1).message_id,
            RelayedMessage(sender=1).message_id,
            RelayAck(sender=1).message_id,
        ]
        assert minted == [50, 51, 52, 53, 54, 55]
        # A given id is kept and mints nothing; copies mint nothing.
        given = EventReportMessage(sender=1, message_id=7)
        assert given.message_id == 7
        pickle.loads(pickle.dumps(given))
        given._replace(sender=2)
        assert EventReportMessage(sender=1).message_id == 56
    finally:
        reset_message_ids()


def test_relay_ids_follow_their_own_stream():
    first = RelayedMessage(sender=1)
    second = RelayedMessage(sender=1)
    assert second.relay_id == first.relay_id + 1
    assert second.message_id == first.message_id + 1
    forwarded = RelayedMessage(sender=2, relay_id=first.relay_id, hop=1)
    assert forwarded.relay_id == first.relay_id
    assert RelayedMessage(sender=1).relay_id == second.relay_id + 1


def test_ti_transfers_default_to_fresh_tables():
    a = TiTableTransfer(sender=1)
    b = TiTableTransfer(sender=1)
    assert a.table == {} and b.table == {}
    assert a.table is not b.table
