"""Unit tests for the base station's registry and arbitration (§2, §3.4)."""

import pytest

from repro.clusterctl.base_station import BaseStation
from repro.core.trust import TrustParameters
from repro.network.geometry import Point
from repro.network.messages import (
    ChDecisionAnnouncement,
    ScHDisagreement,
    TiTableTransfer,
)
from repro.obs.spans import SpanCollector
from repro.simkernel.simulator import Simulator


def make_bs(spans=None, **kwargs):
    sim = Simulator(seed=1, spans=spans)
    bs = BaseStation(
        node_id=999,
        position=Point(-10.0, -10.0),
        trust_params=TrustParameters(lam=0.25, fault_rate=0.1),
        **kwargs,
    )
    bs.attach(sim, channel=None)
    return sim, bs


class TestRegistry:
    def test_transfer_populates_registry(self):
        _sim, bs = make_bs()
        bs.on_message(TiTableTransfer(sender=100, table={0: 0.0, 1: 2.0}))
        assert bs.ti_of(0) == 1.0
        assert bs.ti_of(1) < 1.0
        assert bs.registry.ti(1) == bs.ti_of(1)

    def test_unknown_node_defaults_to_full_trust(self):
        _sim, bs = make_bs()
        assert bs.ti_of(42) == 1.0

    def test_candidate_approval_uses_threshold(self):
        _sim, bs = make_bs(ch_ti_threshold=0.8)
        bs.on_message(TiTableTransfer(sender=100, table={1: 2.0}))
        assert not bs.approves_candidate(1)
        assert bs.approves_candidate(2)

    def test_table_for_new_ch_round_trips(self):
        _sim, bs = make_bs()
        bs.on_message(TiTableTransfer(sender=100, table={5: 1.5}))
        exported = bs.table_for_new_ch()
        assert exported[5] == pytest.approx(1.5)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            make_bs(ch_ti_threshold=1.5)


def announce(ch=100, decision_id=1, occurred=True):
    return ChDecisionAnnouncement(
        sender=ch, decision_id=decision_id, occurred=occurred
    )


def dissent(sch, ch=100, decision_id=1, occurred=False):
    return ScHDisagreement(
        sender=sch, suspected_ch=ch, decision_id=decision_id,
        occurred=occurred,
    )


class TestArbitration:
    def test_two_dissenting_schs_depose_the_ch(self):
        reelections = []
        _sim, bs = make_bs(
            on_reelection=reelections.append
        )
        bs.bind_ch(100)
        bs.on_message(announce())
        bs.on_message(dissent(101))
        assert bs.resolutions == []  # one dissent: vote still 1-1 pending
        bs.on_message(dissent(102))
        assert len(bs.resolutions) == 1
        resolution = bs.resolutions[0]
        assert resolution.ch_was_wrong
        assert resolution.final_verdict is False
        assert reelections == [100]

    def test_deposition_emits_a_span(self):
        spans = SpanCollector()
        _sim, bs = make_bs(spans=spans)
        bs.bind_ch(100)
        bs.on_message(announce(decision_id=7))
        bs.on_message(dissent(101, decision_id=7))
        bs.on_message(dissent(102, decision_id=7))
        (depose,) = spans.spans("bs.depose")
        assert depose.args == {"ch": 100, "decision_id": 7}

    def test_deposed_ch_loses_trust(self):
        _sim, bs = make_bs()
        bs.bind_ch(100)
        bs.on_message(announce())
        bs.on_message(dissent(101))
        bs.on_message(dissent(102))
        assert bs.ti_of(100) < 1.0

    def test_single_dissent_never_deposes(self):
        _sim, bs = make_bs()
        bs.bind_ch(100)
        bs.on_message(announce())
        bs.on_message(dissent(101))
        assert bs.resolutions == []
        assert bs.ti_of(100) == 1.0

    def test_dissent_arriving_before_announcement_still_resolves(self):
        _sim, bs = make_bs()
        bs.bind_ch(100)
        bs.on_message(dissent(101))
        bs.on_message(dissent(102))
        assert bs.resolutions == []  # CH verdict unknown yet
        bs.on_message(announce())
        assert len(bs.resolutions) == 1

    def test_agreeing_schs_never_trigger_dispute(self):
        _sim, bs = make_bs()
        bs.bind_ch(100)
        bs.on_message(announce())
        # SCH "dissents" that actually agree with the CH verdict.
        bs.on_message(dissent(101, occurred=True))
        bs.on_message(dissent(102, occurred=True))
        assert bs.resolutions == []

    def test_disputes_tracked_per_decision(self):
        _sim, bs = make_bs()
        bs.bind_ch(100)
        bs.on_message(announce(decision_id=1))
        bs.on_message(announce(decision_id=2))
        bs.on_message(dissent(101, decision_id=1))
        bs.on_message(dissent(102, decision_id=2))
        assert bs.resolutions == []  # one dissent each: no majority
        bs.on_message(dissent(102, decision_id=1))
        assert len(bs.resolutions) == 1
        assert bs.resolutions[0].decision_id == 1

    def test_repeated_dissent_from_one_sch_counts_once(self):
        """A shadow's dissent delivered twice (a duplicating link) is one
        vote: 1-1 stays pending, and the second shadow decides."""
        reelections = []
        _sim, bs = make_bs(
            on_reelection=reelections.append
        )
        bs.bind_ch(100)
        bs.on_message(announce())
        bs.on_message(dissent(101))
        bs.on_message(dissent(101))
        assert bs.resolutions == []
        assert bs.ti_of(100) == 1.0
        assert reelections == []
        bs.on_message(dissent(102))
        assert len(bs.resolutions) == 1
        assert reelections == [100]

    def test_final_location_is_the_first_dissenting_location(self):
        _sim, bs = make_bs()
        bs.bind_ch(100)
        bs.on_message(announce())
        first, second = Point(1.0, 2.0), Point(3.0, 4.0)
        bs.on_message(ScHDisagreement(
            sender=101, suspected_ch=100, decision_id=1, occurred=False,
            location=first,
        ))
        bs.on_message(ScHDisagreement(
            sender=101, suspected_ch=100, decision_id=1, occurred=False,
            location=second,
        ))
        bs.on_message(ScHDisagreement(
            sender=102, suspected_ch=100, decision_id=1, occurred=False,
            location=second,
        ))
        (resolution,) = bs.resolutions
        assert resolution.final_location == first
