"""Decision provenance: walk span lineage back to root causes.

:mod:`repro.obs.spans` records *what happened* as a forest of causally
linked point spans; this module answers *why*.  A
:class:`ProvenanceIndex` ingests the span records of one run and, for
any ``ch.decision`` span, reconstructs the complete evidence chain:

* the sensed (or quiet-window) ``event`` at the root,
* each node's ``report`` and its ``radio.transmit`` / ``radio.deliver``
  hops -- including reports that never arrived (``radio.drop``, with
  the drop reason and any ``chaos.intercept`` that caused it),
* the collection window (``window.open`` / ``window.report`` /
  ``window.close``), the plausibility gate (``window.filter``) and the
  event cluster (``window.cluster``),
* the CTI vote (``trust.vote`` with per-supporter CTI contributions)
  and the resulting TI transitions (``trust.reward`` /
  ``trust.penalize``),
* the verdict's fallout: ``ch.diagnosis`` spans and the announcement
  broadcast.

The index is pure read-side tooling: it consumes ``spans.jsonl``
records (or a live :class:`~repro.obs.spans.SpanCollector`) and holds
no simulation state.  ``tibfit-repro explain`` renders its output.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["ProvenanceIndex"]

#: Categories that tie a span to one or more node ids through ``nodes``
#: list args (trust transitions) -- used by :meth:`ProvenanceIndex.node_view`.
_NODE_LIST_CATEGORIES = ("trust.penalize", "trust.reward")


def _normalise(record) -> Dict[str, object]:
    """Accept either a span record dict or a Span object."""
    if isinstance(record, dict):
        return record
    return {
        "id": record.span_id,
        "parent": record.parent_id,
        "category": record.category,
        "time": record.time,
        "args": dict(record.args),
    }


class ProvenanceIndex:
    """Lineage queries over one run's span records.

    Parameters
    ----------
    records:
        Span records -- the dicts of
        :meth:`repro.obs.spans.SpanCollector.to_records` (typically read
        back from ``spans.jsonl``), or a live collector / iterable of
        :class:`~repro.obs.spans.Span` objects.

    Notes
    -----
    The ring buffer may have evicted the oldest spans of a very long
    run; lineage walks stop cleanly at missing parents, and the manifest
    ``spans_evicted`` count says whether that can happen at all.
    """

    def __init__(self, records: Iterable) -> None:
        self.by_id: Dict[int, Dict[str, object]] = {}
        self.children: Dict[int, List[int]] = {}
        self._by_category: Dict[str, List[int]] = {}
        for raw in records:
            record = _normalise(raw)
            span_id = record["id"]
            self.by_id[span_id] = record
            self.children.setdefault(record["parent"], []).append(span_id)
            self._by_category.setdefault(record["category"], []).append(
                span_id
            )
        #: ``decision_id`` -> ``ch.decision`` span id.
        self.decisions: Dict[int, int] = {}
        for span_id in self._by_category.get("ch.decision", ()):
            args = self.by_id[span_id]["args"]
            self.decisions[args["decision_id"]] = span_id
        # ``window.report`` spans by circle id, each with its position
        # in the records so a window's reports keep record order.
        self._circle_reports: Dict[
            object, List[Tuple[int, Dict[str, object]]]
        ] = {}
        for position, span_id in enumerate(
            self._by_category.get("window.report", ())
        ):
            record = self.by_id[span_id]
            self._circle_reports.setdefault(
                record["args"].get("circle"), []
            ).append((position, record))
        # Every binary window reports on circle -1: sorted by time, one
        # window's reports are the slice its open/close interval bisects.
        self._binary_reports = sorted(
            self._circle_reports.get(-1, ()),
            key=lambda row: (row[1]["time"], row[0]),
        )
        self._binary_times = [row[1]["time"] for row in self._binary_reports]

    # ------------------------------------------------------------------
    # Generic walks
    # ------------------------------------------------------------------
    def span(self, span_id: int) -> Optional[Dict[str, object]]:
        """The span record for ``span_id`` (None when evicted/unknown)."""
        return self.by_id.get(span_id)

    def lineage(self, span_id: int) -> List[Dict[str, object]]:
        """The span and its ancestors, nearest first, up to the root.

        Stops at parent 0 (a root) or at a parent the ring buffer has
        evicted.  Cycles are impossible by construction (parents are
        always older spans), but the walk is bounded anyway.
        """
        chain: List[Dict[str, object]] = []
        seen = set()
        while span_id and span_id not in seen:
            seen.add(span_id)
            record = self.by_id.get(span_id)
            if record is None:
                break
            chain.append(record)
            span_id = record["parent"]
        return chain

    def descendants(
        self, span_id: int, categories: Optional[tuple] = None
    ) -> List[Dict[str, object]]:
        """Every span below ``span_id`` (optionally category-filtered)."""
        out: List[Dict[str, object]] = []
        stack = list(self.children.get(span_id, ()))
        while stack:
            child_id = stack.pop()
            record = self.by_id[child_id]
            if categories is None or record["category"] in categories:
                out.append(record)
            stack.extend(self.children.get(child_id, ()))
        out.sort(key=lambda r: r["id"])
        return out

    def _child_of(
        self, span_id: int, category: str
    ) -> Optional[Dict[str, object]]:
        for child_id in self.children.get(span_id, ()):
            record = self.by_id[child_id]
            if record["category"] == category:
                return record
        return None

    def _ancestor_of(
        self, span_id: int, category: str
    ) -> Optional[Dict[str, object]]:
        for record in self.lineage(span_id):
            if record["category"] == category:
                return record
        return None

    # ------------------------------------------------------------------
    # Decision provenance
    # ------------------------------------------------------------------
    def decision_ids(self) -> List[int]:
        """Every decision id with a ``ch.decision`` span, ascending."""
        return sorted(self.decisions)

    def decision_provenance(self, decision_id: int) -> Dict[str, object]:
        """The full evidence chain behind one CH verdict.

        Raises ``KeyError`` when ``decision_id`` has no ``ch.decision``
        span (never announced, or evicted from the ring buffer).
        """
        span_id = self.decisions.get(decision_id)
        if span_id is None:
            raise KeyError(
                f"no ch.decision span for decision_id={decision_id}"
            )
        decision = self.by_id[span_id]
        args = decision["args"]

        cluster = self._ancestor_of(span_id, "window.cluster")
        filter_span = self._ancestor_of(span_id, "window.filter")
        close = self._ancestor_of(span_id, "window.close")

        # The vote funnels through CtiVoter under the cluster span
        # (location mode) or the window.close span (binary mode).
        vote = None
        for anchor in (cluster, close):
            if anchor is not None:
                vote = self._child_of(anchor["id"], "trust.vote")
                if vote is not None:
                    break

        rewarded = penalized = None
        if vote is not None:
            rewarded = self._child_of(vote["id"], "trust.reward")
            penalized = self._child_of(vote["id"], "trust.penalize")
        gate_penalized = (
            self._child_of(filter_span["id"], "trust.penalize")
            if filter_span is not None
            else None
        )

        reports = self._window_reports(close, cluster)
        evidence = [self._report_evidence(r) for r in reports]
        dropped = self._dropped_reports(evidence)

        diagnoses = [
            {
                "node": d["args"]["node"],
                "ti": d["args"]["ti"],
                "span": d["id"],
            }
            for d in self.descendants(span_id, ("ch.diagnosis",))
        ]
        announced = self.descendants(span_id, ("radio.transmit",))
        # At-send drops parent straight under the decision (no transmit
        # span exists); died-in-flight drops sit under their transmit.
        # Both are descendants of the decision span.
        announce_dropped = len(self.descendants(span_id, ("radio.drop",)))

        return {
            "type": "decision",
            "decision_id": decision_id,
            "span": span_id,
            "time": decision["time"],
            "occurred": args["occurred"],
            "location": (
                None
                if args.get("x") is None
                else [args["x"], args["y"]]
            ),
            "supporters": list(args["supporters"]),
            "dissenters": list(args["dissenters"]),
            "cluster": None if cluster is None else {
                "span": cluster["id"],
                "x": cluster["args"]["x"],
                "y": cluster["args"]["y"],
                "members": list(cluster["args"]["members"]),
                "dissenters": list(cluster["args"]["dissenters"]),
            },
            "window": None if close is None else {
                "close_span": close["id"],
                "time": close["time"],
                "reports": close["args"].get("reports"),
                "circles": list(close["args"].get("circles", ())),
                "filter": None if filter_span is None else {
                    "span": filter_span["id"],
                    "kept": list(filter_span["args"]["kept"]),
                    "gated": list(filter_span["args"]["gated"]),
                },
            },
            "evidence": evidence,
            "dropped_reports": dropped,
            "vote": None if vote is None else {
                "span": vote["id"],
                "occurred": vote["args"]["occurred"],
                "tie": vote["args"]["tie"],
                "cti_r": vote["args"]["cti_r"],
                "cti_nr": vote["args"]["cti_nr"],
                "reporters": list(vote["args"]["reporters"]),
                "non_reporters": list(vote["args"]["non_reporters"]),
                "ti_r": list(vote["args"]["ti_r"]),
                "ti_nr": list(vote["args"]["ti_nr"]),
                "applied": vote["args"]["applied"],
            },
            "trust": {
                "rewarded": self._transition(rewarded),
                "penalized": self._transition(penalized),
                "gate_penalized": self._transition(gate_penalized),
            },
            "diagnoses": diagnoses,
            "announcement": (
                None
                if not announced and not announce_dropped
                else {
                    "transmits": len(announced),
                    "dropped": announce_dropped,
                }
            ),
        }

    def to_records(self) -> Iterator[Dict[str, object]]:
        """One provenance record per decision (``provenance.jsonl``)."""
        for decision_id in self.decision_ids():
            yield self.decision_provenance(decision_id)

    # ------------------------------------------------------------------
    # Node view
    # ------------------------------------------------------------------
    def node_view(self, node_id: int) -> List[Dict[str, object]]:
        """Every span that names ``node_id``, in emission order.

        Covers the node's own reports, window joins, trust transitions
        (with the post-transition TI), gate filterings, and diagnoses
        -- the raw material for "why was node N diagnosed?".
        """
        hits: List[Dict[str, object]] = []
        for record in self.by_id.values():
            args = record["args"]
            category = record["category"]
            if category in ("report", "window.report", "ch.diagnosis"):
                if args.get("node") == node_id:
                    hits.append(record)
            elif category in _NODE_LIST_CATEGORIES:
                if node_id in args.get("nodes", ()):
                    hits.append(record)
            elif category == "window.filter":
                if node_id in args.get("gated", ()):
                    hits.append(record)
            elif category == "window.cluster":
                if node_id in args.get("members", ()) or node_id in args.get(
                    "dissenters", ()
                ):
                    hits.append(record)
            elif category == "ch.decision":
                if node_id in args.get("supporters", ()) or node_id in (
                    args.get("dissenters", ())
                ):
                    hits.append(record)
        hits.sort(key=lambda r: r["id"])
        return hits

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _transition(record) -> Optional[Dict[str, object]]:
        if record is None:
            return None
        return {
            "span": record["id"],
            "nodes": list(record["args"]["nodes"]),
            "ti": list(record["args"]["ti"]),
        }

    def _window_reports(self, close, cluster) -> List[Dict[str, object]]:
        """The ``window.report`` spans of one closed collection window,
        in record order.

        Location mode: the close span lists its merged circle ids and
        every report span carries its circle id (unique per run), so
        membership is a direct match.  Binary mode reuses circle -1 for
        every window, so reports are scoped to the window's open/close
        interval instead.
        """
        if close is None:
            return []
        circles = set(close["args"].get("circles", ()))
        if circles == {-1}:
            open_span = self._ancestor_of(close["id"], "window.open")
            start = open_span["time"] if open_span is not None else 0.0
            rows = self._binary_reports[
                bisect_left(self._binary_times, start):
                bisect_right(self._binary_times, close["time"])
            ]
        else:
            rows = [
                row
                for circle in circles
                for row in self._circle_reports.get(circle, ())
            ]
        # Positions are unique, so the sort never compares two records.
        return [record for _, record in sorted(rows)]

    def _report_evidence(self, window_report) -> Dict[str, object]:
        """One window row traced back to its origin event."""
        deliver = self._ancestor_of(window_report["id"], "radio.deliver")
        transmit = self._ancestor_of(window_report["id"], "radio.transmit")
        origin = self._ancestor_of(window_report["id"], "report")
        event = self._ancestor_of(window_report["id"], "event")
        return {
            "node": window_report["args"].get("node"),
            "window_report_span": window_report["id"],
            "deliver_span": None if deliver is None else deliver["id"],
            "transmit_span": None if transmit is None else transmit["id"],
            "report_span": None if origin is None else origin["id"],
            "message_id": (
                None if origin is None
                else origin["args"].get("message_id")
            ),
            "event_id": (
                None if event is None else event["args"].get("event_id")
            ),
            "quiet": (
                False if event is None
                else bool(event["args"].get("quiet", False))
            ),
        }

    def _hop_drops(self, report_id: int) -> List[Dict[str, object]]:
        """The radio-hop drops of one report span.

        At-send drops are direct ``radio.drop`` children of the report;
        died-in-flight drops sit one level deeper, under the report's
        ``radio.transmit``.  Depth is deliberately bounded to those two
        shapes: an unbounded descendant walk would also sweep up drops
        of the *announcement* broadcast, which nests below the decision
        and therefore below this report's causal chain.
        """
        out: List[Dict[str, object]] = []
        for child_id in self.children.get(report_id, ()):
            child = self.by_id[child_id]
            if child["category"] == "radio.drop":
                out.append(child)
            elif child["category"] == "radio.transmit":
                for grand_id in self.children.get(child_id, ()):
                    grand = self.by_id[grand_id]
                    if grand["category"] == "radio.drop":
                        out.append(grand)
        out.sort(key=lambda r: r["id"])
        return out

    def _dropped_reports(self, evidence) -> List[Dict[str, object]]:
        """Sibling reports of this window's events that never arrived.

        For every root event feeding the window, find its ``report``
        children whose radio hop ended in a ``radio.drop`` -- the
        "expected but missing" half of the explanation.
        """
        event_spans = set()
        for item in evidence:
            if item["report_span"] is not None:
                origin = self.by_id.get(item["report_span"])
                if origin is not None and origin["parent"]:
                    event_spans.add(origin["parent"])
        dropped: List[Dict[str, object]] = []
        for event_span in sorted(event_spans):
            for report in self.descendants(event_span, ("report",)):
                for drop in self._hop_drops(report["id"]):
                    dropped.append(
                        {
                            "node": report["args"].get("node"),
                            "message_id": report["args"].get("message_id"),
                            "reason": drop["args"].get("reason"),
                            "drop_span": drop["id"],
                            "report_span": report["id"],
                        }
                    )
        return dropped
