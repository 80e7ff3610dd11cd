"""Unit tests for shadow cluster heads (§3.4)."""

import json
from pathlib import Path

import pytest

from repro.clusterctl.head import ClusterHead
from repro.clusterctl.shadow import (
    HeadMirror,
    ShadowClusterHead,
    appoint_shadows,
)
from repro.core.trust import TrustParameters
from repro.network.geometry import Point, Region
from repro.network.messages import EventReportMessage, ScHDisagreement
from repro.network.node import NetworkNode
from repro.network.radio import ChannelConfig, RadioChannel
from repro.network.topology import Deployment
from repro.obs.spans import SpanCollector
from repro.service.session import SessionConfig
from repro.simkernel.simulator import Simulator
from tests.golden.builders import (
    ROTATING_RUNS,
    rotating_document,
    rotating_run,
)
from tests.oracles.shadow import tap_seat_mirror

GOLDEN_ROTATION = (
    Path(__file__).resolve().parent.parent / "golden" / "exp4_rotation.json"
)


class Collector(NetworkNode):
    def __init__(self, node_id):
        super().__init__(node_id, Point(0.0, 0.0))
        self.received = []

    def on_message(self, message):
        self.received.append(message)


class InvertingSeat(ShadowClusterHead):
    """A bad monitor: a seat that inverts every verdict it adopts.  The
    base station's vote masks it as it masks a corrupt CH."""

    def adopt(self, verdicts):
        super().adopt([v._replace(occurred=not v.occurred) for v in verdicts])


def build(corrupt_sch=False, spans=None):
    """A 4-node binary cluster with one CH, one SCH and a BS collector."""
    sim = Simulator(seed=1, spans=spans)
    channel = RadioChannel(
        sim, ChannelConfig(loss_probability=0.0, propagation_delay=0.001)
    )
    deployment = Deployment(region=Region.square(100.0))
    for i, pos in enumerate(
        [Point(45.0, 45.0), Point(55.0, 45.0),
         Point(45.0, 55.0), Point(55.0, 55.0)]
    ):
        deployment.add(i, pos)
    config = SessionConfig(
        mode="binary",
        sensing_radius=20.0,
        r_error=5.0,
        trust=TrustParameters(lam=0.25, fault_rate=0.1),
    )
    bs = Collector(999)
    channel.register(bs)
    ch = ClusterHead(
        node_id=100, position=Point(50.0, 50.0),
        deployment=deployment, config=config, t_out=1.0,
    )
    channel.register(ch)
    # The SCH snoops the CH's inbound traffic through its mirror's tap.
    seat = (101, Point(50.0, 52.0))
    mirror = appoint_shadows(
        ch, [] if corrupt_sch else [seat], base_station_id=999
    )
    if corrupt_sch:
        inverting = InvertingSeat(*seat, mirror, base_station_id=999)
        channel.register(inverting)
        mirror.seats.append(inverting)
    (sch,) = mirror.seats
    # Register dummy sensor endpoints so broadcasts have receivers.
    for i in range(4):
        channel.register(Collector(i))
    return sim, channel, ch, sch, bs


def send_reports(channel, ch, senders):
    for s in senders:
        # Reports travel over the channel so the tap mirrors them.
        channel.unicast(channel.node(s), 100, EventReportMessage(sender=s))


class TestMirroring:
    def test_sch_computes_same_decisions_as_ch(self):
        sim, channel, ch, sch, _bs = build()
        send_reports(channel, ch, (0, 1, 2))
        sim.run()
        assert len(ch.decisions) == 1
        assert len(sch.decisions) == 1
        assert sch.decisions[0].occurred == ch.decisions[0].occurred

    def test_honest_ch_produces_no_disagreements(self):
        sim, channel, ch, sch, bs = build()
        for _ in range(3):
            send_reports(channel, ch, (0, 1, 2))
            sim.run()
        assert sch.disagreements == []
        assert len(sch.decisions) - len(sch.disagreements) == 3
        assert not any(
            isinstance(m, ScHDisagreement) for m in bs.received
        )

    def test_sch_trust_state_mirrors_ch(self):
        sim, channel, ch, sch, _bs = build()
        send_reports(channel, ch, (0, 1, 2))
        sim.run()
        for node_id in range(4):
            assert sch.trust.ti(node_id) == pytest.approx(
                ch.trust.ti(node_id)
            )


class TestDisagreement:
    def test_corrupt_sch_dissents_against_honest_ch(self):
        """Inverting the SCH's verdict must produce a dissent -- the
        same machinery that catches a corrupt CH from the SCH side."""
        sim, channel, ch, sch, bs = build(corrupt_sch=True)
        send_reports(channel, ch, (0, 1, 2))
        sim.run()
        assert len(sch.disagreements) == 1
        dissent = sch.disagreements[0]
        assert dissent.suspected_ch == 100
        assert dissent.occurred != ch.decisions[0].occurred
        assert any(isinstance(m, ScHDisagreement) for m in bs.received)

    def test_dissent_references_decision_id(self):
        sim, channel, ch, sch, _bs = build(corrupt_sch=True)
        send_reports(channel, ch, (0, 1, 2))
        sim.run()
        assert sch.disagreements[0].decision_id == ch.decisions[0].decision_id

    def test_dissent_emits_a_span(self):
        spans = SpanCollector()
        sim, channel, ch, _sch, _bs = build(corrupt_sch=True, spans=spans)
        send_reports(channel, ch, (0, 1, 2))
        sim.run()
        (disagree,) = spans.spans("sch.disagree")
        assert disagree.args == {
            "sch": 101, "ch": 100, "decision_id": ch.decisions[0].decision_id,
        }


class TestOneMirrorPerHead:
    """Both seats of a head share one mirror, and what they decide is
    what one private mirror per seat decided."""

    def test_a_window_mints_the_heads_ids_then_each_seats(self):
        """A location window of k verdicts: the head's k ids, then seat
        A's k, then seat B's k, all consecutive."""
        sim = Simulator(seed=1)
        channel = RadioChannel(
            sim, ChannelConfig(loss_probability=0.0, propagation_delay=0.001)
        )
        deployment = Deployment(region=Region.square(100.0))
        positions = [
            Point(40.0 + 5.0 * (i % 5), 40.0 + 5.0 * (i // 5))
            for i in range(25)
        ]
        for i, position in enumerate(positions):
            deployment.add(i, position)
        config = SessionConfig(
            mode="location", sensing_radius=20.0, r_error=5.0,
            trust=TrustParameters(lam=0.25, fault_rate=0.1),
        )
        ch = ClusterHead(
            node_id=100, position=Point(50.0, 50.0),
            deployment=deployment, config=config, t_out=1.0,
        )
        channel.register(ch)
        mirror = appoint_shadows(
            ch, [(101, Point(50.0, 52.0)), (102, Point(52.0, 50.0))]
        )
        for i in range(len(positions)):
            channel.register(Collector(i))
        # Two events 8 apart: their r_error circles overlap, so one
        # window closes both and decides each.
        events = (Point(46.0, 50.0), Point(54.0, 50.0))
        for i, position in enumerate(positions):
            channel.unicast(channel.node(i), 100, EventReportMessage(
                sender=i, offset=position.offset_to(events[i % 2]),
            ))
        sim.run()
        k = len(ch.decisions)
        assert k == 2
        assert len({d.time for d in ch.decisions}) == 1
        seat_a, seat_b = mirror.seats
        assert [d.decision_id for d in ch.decisions] == [1, 2]
        assert [d.decision_id for d in seat_a.decisions] == [3, 4]
        assert [d.decision_id for d in seat_b.decisions] == [5, 6]
        for seat in (seat_a, seat_b):
            assert [d[1:] for d in seat.decisions] == [
                d[1:] for d in ch.decisions
            ]
            assert len(seat.decisions) - len(seat.disagreements) == k

    def test_seats_ignore_reports_sent_to_them(self):
        """A seat's only input is its mirror: a report addressed to the
        seat itself changes nothing."""
        sim, channel, _ch, sch, _bs = build()
        channel.unicast(channel.node(0), 101, EventReportMessage(sender=0))
        sim.run()
        assert sch.decisions == [] and sch.mirror.decisions == []

    @pytest.mark.parametrize("name", sorted(ROTATING_RUNS))
    def test_each_head_has_one_tap_and_one_mirror(self, name):
        calls, overrides = ROTATING_RUNS[name]
        run = rotating_run(**overrides)
        end_leadership = run._end_leadership
        leaderships = []

        def checked_end_leadership():
            shadows = run.rounds[-1].shadows
            mirrors = {m.watched_ch_id: m for m in run._mirrors}
            assert len(mirrors) == len(run._mirrors)
            for host, ch in run._heads.items():
                taps = run.channel._taps.get(ch.node_id, [])
                if not shadows[host]:
                    assert taps == [] and ch.node_id not in mirrors
                    continue
                mirror = mirrors.pop(ch.node_id)
                assert taps == [mirror]
                assert type(mirror) is HeadMirror
                assert tuple(s.node_id for s in mirror.seats) == (
                    shadows[host]
                )
                assert all(seat.mirror is mirror for seat in mirror.seats)
            assert mirrors == {}
            leaderships.append(run.rounds[-1].round_number)
            end_leadership()
            assert not any(run.channel._taps.values())

        run._end_leadership = checked_end_leadership
        for n_rounds in calls:
            run.run(n_rounds)
        assert len(leaderships) == len(run.rounds) > 0

    @pytest.mark.parametrize("name", ["lossy_level1", "corrupt_heads"])
    def test_seats_decide_as_one_private_mirror_per_seat(self, name):
        """Differential: an oracle per seat -- the private mirror every
        SCH used to run on its own tap -- rides along each rotating
        leadership, and each seat's verdicts and its mirror's trust table
        must equal the oracle's, bit for bit."""
        calls, overrides = ROTATING_RUNS[name]
        run = rotating_run(**overrides)
        appoint, end_leadership = run._appoint_shadows, run._end_leadership
        pairs = []
        compared = []

        def appoint_with_oracles(ch, members, trust):
            seat_ids = appoint(ch, members, trust)
            if seat_ids:
                mirror = run._mirrors[-1]
                pairs.extend(
                    (mirror, seat, tap_seat_mirror(
                        ch, seat.node_id, seat.position, trust
                    ))
                    for seat in mirror.seats
                )
            return seat_ids

        def end_leadership_and_compare():
            end_leadership()
            for mirror, seat, oracle in pairs:
                oracle.flush()
                run.channel.remove_tap(mirror.watched_ch_id, oracle)
                assert [d[1:] for d in seat.decisions] == [
                    d[1:] for d in oracle.decisions
                ]
                assert mirror.trust.export_state() == (
                    oracle.trust.export_state()
                )
                assert mirror.trust.tis() == oracle.trust.tis()
                compared.append(len(seat.decisions))
            pairs.clear()

        run._appoint_shadows = appoint_with_oracles
        run._end_leadership = end_leadership_and_compare
        for n_rounds in calls:
            run.run(n_rounds)
        assert len(compared) >= len(run.rounds) and sum(compared) > 0
        # The oracles only listened: the run is still the pinned one.
        fixture = json.loads(GOLDEN_ROTATION.read_text())[name]
        document = json.loads(json.dumps(rotating_document(run)))
        assert document == {key: fixture[key] for key in document}
