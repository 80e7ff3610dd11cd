"""Unit tests for typed message payloads."""

import pytest

from repro.network.messages import (
    ChDecisionAnnouncement,
    EventReportMessage,
    ScHDisagreement,
    TiTableTransfer,
)


class TestEventReport:
    def test_reports_are_frozen(self):
        report = EventReportMessage(sender=1)
        with pytest.raises(Exception):
            report.sender = 2


class TestOtherMessages:
    def test_decision_announcement_carries_partitions(self):
        msg = ChDecisionAnnouncement(
            sender=100,
            decision_id=3,
            occurred=True,
            reporters=(1, 2),
            non_reporters=(3,),
        )
        assert 1 in msg.reporters
        assert 3 in msg.non_reporters

    def test_ti_table_transfer_defaults_empty(self):
        msg = TiTableTransfer(sender=100)
        assert msg.table == {}

    def test_disagreement_identifies_suspect(self):
        msg = ScHDisagreement(sender=7, suspected_ch=100, decision_id=2)
        assert msg.suspected_ch == 100

    def test_message_ids_monotonically_increase(self):
        a = EventReportMessage(sender=1)
        b = EventReportMessage(sender=1)
        assert b.message_id > a.message_id
