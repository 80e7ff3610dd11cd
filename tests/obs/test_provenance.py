"""Unit tests for decision-provenance reconstruction.

The fixtures hand-build small span forests shaped exactly like the
emitters in the radio / window / voter / cluster-head produce them, so
each structural rule of :class:`ProvenanceIndex` is pinned down without
running a simulation (the end-to-end shape is covered by the
``exp2_provenance`` golden fixture and
``tests/experiments/test_observability.py``).
"""

import pytest

from repro.obs.provenance import ProvenanceIndex
from repro.obs.spans import SpanCollector


def span(i, parent, category, time=0.0, **args):
    return {
        "id": i,
        "parent": parent,
        "category": category,
        "time": time,
        "args": args,
    }


def location_forest():
    """One sensed event, three reports (one dropped), one decision."""
    return [
        span(1, 0, "event", 0.0, event_id=1, x=10.0, y=10.0),
        span(2, 1, "report", 0.0, node=5, message_id=100),
        span(3, 1, "report", 0.0, node=6, message_id=101),
        span(4, 1, "report", 0.0, node=7, message_id=102),
        span(5, 2, "radio.transmit", 0.0, receiver=99),
        span(6, 3, "radio.transmit", 0.0, receiver=99),
        span(7, 4, "radio.transmit", 0.0, receiver=99),
        span(8, 5, "radio.deliver", 0.1),
        span(9, 8, "window.open", 0.1, circle=1, expires_at=0.6),
        span(10, 8, "window.report", 0.1, circle=1, node=5),
        span(11, 6, "radio.deliver", 0.2),
        span(12, 11, "window.report", 0.2, circle=1, node=6),
        span(13, 7, "radio.drop", 0.2, reason="loss"),
        span(14, 9, "window.close", 0.6, circles=[1], reports=2),
        span(15, 14, "window.filter", 0.6, window=2, kept=[5, 6], gated=[]),
        span(
            16, 15, "window.cluster", 0.6,
            x=10.0, y=10.0, members=[5, 6], dissenters=[7],
        ),
        span(
            17, 16, "trust.vote", 0.6,
            occurred=True, tie=False, cti_r=1.9, cti_nr=0.9,
            reporters=[5, 6], non_reporters=[7],
            ti_r=[0.95, 0.95], ti_nr=[0.9], applied=True,
        ),
        span(18, 17, "trust.reward", 0.6, nodes=[5, 6], ti=[0.96, 0.96]),
        span(19, 17, "trust.penalize", 0.6, nodes=[7], ti=[0.85]),
        span(
            20, 16, "ch.decision", 0.6,
            decision_id=1, occurred=True, x=10.0, y=10.0,
            supporters=[5, 6], dissenters=[7],
        ),
        span(21, 20, "ch.diagnosis", 0.6, node=7, ti=0.25),
        span(22, 20, "radio.transmit", 0.6, receiver=5),
        span(23, 20, "radio.drop", 0.6, reason="loss"),
    ]


class TestDecisionProvenance:
    @pytest.fixture()
    def prov(self):
        return ProvenanceIndex(location_forest())

    def test_decision_ids(self, prov):
        assert prov.decision_ids() == [1]

    def test_unknown_decision_raises(self, prov):
        with pytest.raises(KeyError, match="decision_id=99"):
            prov.decision_provenance(99)

    def test_verdict_and_location(self, prov):
        record = prov.decision_provenance(1)
        assert record["type"] == "decision"
        assert record["span"] == 20
        assert record["occurred"] is True
        assert record["location"] == [10.0, 10.0]
        assert record["supporters"] == [5, 6]
        assert record["dissenters"] == [7]

    def test_evidence_traces_each_report_to_the_event(self, prov):
        evidence = prov.decision_provenance(1)["evidence"]
        assert [e["node"] for e in evidence] == [5, 6]
        by_node = {e["node"]: e for e in evidence}
        assert by_node[5] == {
            "node": 5,
            "window_report_span": 10,
            "deliver_span": 8,
            "transmit_span": 5,
            "report_span": 2,
            "message_id": 100,
            "event_id": 1,
            "quiet": False,
        }

    def test_dropped_report_is_the_missing_half(self, prov):
        dropped = prov.decision_provenance(1)["dropped_reports"]
        assert dropped == [{
            "node": 7,
            "message_id": 102,
            "reason": "loss",
            "drop_span": 13,
            "report_span": 4,
        }]

    def test_window_filter_and_cluster(self, prov):
        record = prov.decision_provenance(1)
        assert record["window"]["close_span"] == 14
        assert record["window"]["circles"] == [1]
        assert record["window"]["filter"]["kept"] == [5, 6]
        assert record["cluster"]["members"] == [5, 6]
        assert record["cluster"]["dissenters"] == [7]

    def test_vote_and_trust_transitions(self, prov):
        record = prov.decision_provenance(1)
        assert record["vote"]["cti_r"] == 1.9
        assert record["vote"]["ti_r"] == [0.95, 0.95]
        assert record["vote"]["applied"] is True
        assert record["trust"]["rewarded"]["nodes"] == [5, 6]
        assert record["trust"]["penalized"]["nodes"] == [7]
        assert record["trust"]["gate_penalized"] is None

    def test_diagnoses_and_announcement(self, prov):
        record = prov.decision_provenance(1)
        assert record["diagnoses"] == [
            {"node": 7, "ti": 0.25, "span": 21}
        ]
        # One announcement copy transmitted, one dropped at send (the
        # at-send drop parents straight under the decision span).
        assert record["announcement"] == {"transmits": 1, "dropped": 1}

    def test_to_records_yields_one_per_decision(self, prov):
        records = list(prov.to_records())
        assert len(records) == 1
        assert records[0]["decision_id"] == 1


class TestBinaryWindowScoping:
    def test_circle_minus_one_scopes_by_time_interval(self):
        # Binary mode reuses circle -1 for every window, so reports are
        # scoped to the window's open/close interval instead.
        forest = [
            span(1, 0, "event", 0.0, event_id=1),
            span(2, 1, "report", 0.0, node=1, message_id=1),
            span(3, 2, "radio.transmit", 0.0),
            span(4, 3, "radio.deliver", 0.1),
            span(5, 4, "window.open", 0.1, circle=-1, expires_at=0.6),
            span(6, 4, "window.report", 0.1, circle=-1, node=1),
            span(7, 5, "window.close", 0.6, circles=[-1], reports=1),
            # A later window's report must not leak into the first.
            span(8, 0, "event", 2.0, event_id=2),
            span(9, 8, "report", 2.0, node=2, message_id=2),
            span(10, 9, "radio.transmit", 2.0),
            span(11, 10, "radio.deliver", 2.1),
            span(12, 11, "window.open", 2.1, circle=-1, expires_at=2.6),
            span(13, 11, "window.report", 2.1, circle=-1, node=2),
        ]
        prov = ProvenanceIndex(forest)
        close = prov.span(7)
        reports = prov._window_reports(close, None)
        assert [r["id"] for r in reports] == [6]

    def test_each_window_gets_its_reports_in_record_order(self):
        """A binary window takes the circle -1 reports from its open to
        its close, both ends included; a merged location window takes
        every report on any of its circles, interleaved as recorded."""
        forest = [
            span(1, 0, "event", 0.0, event_id=1),
            span(2, 1, "window.open", 0.0, circle=-1),
            span(3, 1, "window.report", 0.0, circle=-1, node=1),
            span(4, 1, "window.report", 0.5, circle=-1, node=2),
            span(5, 2, "window.close", 0.5, circles=[-1]),
            span(6, 0, "window.report", 0.7, circle=-1, node=3),
            span(7, 0, "event", 1.0, event_id=2),
            span(8, 7, "window.open", 1.0, circle=-1),
            span(9, 7, "window.report", 1.0, circle=-1, node=4),
            span(10, 8, "window.close", 1.5, circles=[-1]),
            span(11, 0, "window.open", 2.0, circle=7),
            span(12, 0, "window.report", 2.0, circle=8, node=5),
            span(13, 0, "window.report", 2.1, circle=7, node=6),
            span(14, 0, "window.report", 2.2, circle=8, node=7),
            span(15, 11, "window.close", 2.5, circles=[8, 7]),
        ]
        prov = ProvenanceIndex(forest)

        def reports(close):
            window = prov._window_reports(prov.span(close), None)
            return [r["id"] for r in window]

        assert reports(5) == [3, 4]
        assert reports(10) == [9]
        assert reports(15) == [12, 13, 14]


class TestWalks:
    def test_lineage_nearest_first_and_stops_at_root(self):
        prov = ProvenanceIndex(location_forest())
        chain = [r["id"] for r in prov.lineage(10)]
        assert chain == [10, 8, 5, 2, 1]

    def test_lineage_stops_cleanly_at_evicted_parent(self):
        # Drop the root event, as the ring buffer would.
        records = [r for r in location_forest() if r["id"] != 1]
        prov = ProvenanceIndex(records)
        chain = [r["id"] for r in prov.lineage(10)]
        assert chain == [10, 8, 5, 2]

    def test_descendants_filter_and_order(self):
        prov = ProvenanceIndex(location_forest())
        below = prov.descendants(16, ("trust.reward", "trust.penalize"))
        assert [r["id"] for r in below] == [18, 19]

    def test_accepts_live_collector(self):
        spans = SpanCollector()
        root = spans.point("event", event_id=3)
        spans.point("report", parent=root, node=2, message_id=9)
        prov = ProvenanceIndex(spans)
        assert [r["id"] for r in prov.lineage(2)] == [2, 1]


class TestNodeView:
    def test_every_mention_of_the_node_in_order(self):
        prov = ProvenanceIndex(location_forest())
        hits = prov.node_view(7)
        assert [r["category"] for r in hits] == [
            "report",          # its own claim
            "window.cluster",  # listed as dissenter
            "trust.penalize",  # TI lowered
            "ch.decision",     # outvoted
            "ch.diagnosis",    # finally diagnosed
        ]

    def test_gated_node_shows_the_filter(self):
        forest = location_forest()
        forest[14]["args"]["gated"] = [6]
        prov = ProvenanceIndex(forest)
        assert any(
            r["category"] == "window.filter" for r in prov.node_view(6)
        )
