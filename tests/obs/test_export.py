"""Unit tests for artifact export, schemas, and validation."""

import json
import math
import re

import pytest

from repro.obs.export import (
    MANIFEST_SCHEMA_VERSION,
    SchemaError,
    build_manifest,
    chrome_trace,
    metrics_records,
    read_jsonl,
    validate_artifacts,
    validate_manifest,
    validate_metrics_record,
    validate_provenance_record,
    validate_span_record,
    write_chrome_trace,
    write_json,
    write_jsonl,
)


class TestManifest:
    def test_build_and_validate_roundtrip(self):
        doc = build_manifest(
            kind="simulation-run",
            config={"mode": "binary", "n_nodes": 10},
            seed=7,
            timings={"build_s": 0.01, "run_s": 0.5},
            counts={"events": 40},
        )
        validate_manifest(doc)
        assert doc["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert doc["seed"] == 7
        assert doc["counts"]["events"] == 40
        assert isinstance(doc["repro_version"], str)

    def test_missing_field_named_in_error(self):
        doc = build_manifest("x", {}, 0)
        del doc["seed"]
        with pytest.raises(SchemaError, match="seed"):
            validate_manifest(doc)

    def test_wrong_schema_version_rejected(self):
        doc = build_manifest("x", {}, 0)
        doc["schema_version"] = 999
        with pytest.raises(SchemaError, match="schema_version"):
            validate_manifest(doc)

    def test_non_numeric_timing_rejected(self):
        doc = build_manifest("x", {}, 0, timings={"run_s": 1.0})
        doc["timings"]["run_s"] = "fast"
        with pytest.raises(SchemaError, match="timings"):
            validate_manifest(doc)

    def test_boolean_seed_rejected(self):
        doc = build_manifest("x", {}, 0)
        doc["seed"] = True
        with pytest.raises(SchemaError, match="seed"):
            validate_manifest(doc)


class TestMetricsRecords:
    def test_registry_snapshot_records_validate(self):
        records = metrics_records(
            {"radio.sent": 3}, {"des.events_fired": 10},
            {"trust.vote.margin": [0.5]},
        )
        assert [record["type"] for record in records] == [
            "gauge", "counter", "histogram",
        ]
        for record in records:
            validate_metrics_record(record)

    def test_histogram_sum_adds_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16 twice; a compensated sum
        # (math.fsum, or sum() from Python 3.12) would read 1e16 + 2.
        values = [1e16, 1.0, 1.0]
        (record,) = metrics_records({}, {}, {"h": values})
        assert record["sum"] == (0.0 + 1e16 + 1.0) + 1.0 == 1e16
        assert record["sum"] != math.fsum(values)

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError, match="type"):
            validate_metrics_record({"name": "x", "type": "summary"})

    def test_histogram_requires_aggregates(self):
        with pytest.raises(SchemaError, match="count"):
            validate_metrics_record({"name": "h", "type": "histogram"})

    def test_empty_histogram_needs_no_quantiles(self):
        validate_metrics_record(
            {"name": "h", "type": "histogram",
             "count": 0, "sum": 0.0, "mean": 0.0}
        )


def _span(i, parent, category, time=0.0, **args):
    return {
        "id": i, "parent": parent, "category": category,
        "time": time, "args": args,
    }


#: One well-formed args object for each category whose args
#: ``ProvenanceIndex`` reads.
INDEXED_ARGS = {
    "ch.decision": dict(
        decision_id=4, occurred=True, supporters=[1, 2], dissenters=[3],
        x=None, y=None,
    ),
    "window.cluster": dict(x=1.0, y=2, members=[1, 2], dissenters=[3]),
    "window.filter": dict(kept=[1, 2], gated=[]),
    "trust.vote": dict(
        occurred=False, tie=True, cti_r=1.0, cti_nr=1.0, reporters=[1],
        non_reporters=[2], ti_r=[1.0], ti_nr=[1.0], applied=True,
    ),
    "trust.reward": dict(nodes=[1], ti=[0.9]),
    "trust.penalize": dict(nodes=[2], ti=[0.7]),
    "ch.diagnosis": dict(node=2, ti=0.2),
}


class TestSpanRecords:
    def test_valid_record_passes(self):
        validate_span_record(_span(2, 1, "report", 0.5, node=3))

    def test_root_span_has_parent_zero(self):
        validate_span_record(_span(1, 0, "event"))

    def test_nonpositive_id_rejected(self):
        with pytest.raises(SchemaError, match="positive"):
            validate_span_record(_span(0, 0, "event"))

    def test_parent_must_be_older(self):
        # Parents are always emitted before their children.
        with pytest.raises(SchemaError, match="not older"):
            validate_span_record(_span(3, 3, "report"))
        with pytest.raises(SchemaError, match="not older"):
            validate_span_record(_span(3, 7, "report"))

    def test_empty_category_rejected(self):
        with pytest.raises(SchemaError, match="category"):
            validate_span_record(_span(1, 0, ""))

    def test_args_must_be_object(self):
        record = _span(1, 0, "event")
        record["args"] = [1, 2]
        with pytest.raises(SchemaError, match="args"):
            validate_span_record(record)

    @pytest.mark.parametrize("category", sorted(INDEXED_ARGS))
    def test_args_the_index_reads_are_checked(self, category):
        args = INDEXED_ARGS[category]
        validate_span_record(_span(1, 0, category, **args))
        for key in args:
            field = re.escape(repr(key))
            missing = {k: v for k, v in args.items() if k != key}
            with pytest.raises(SchemaError, match=f"missing.*{field}"):
                validate_span_record(_span(1, 0, category, **missing))
            with pytest.raises(SchemaError, match=f"{field}.*wrong type"):
                validate_span_record(
                    _span(1, 0, category, **{**args, key: "text"})
                )

    def test_decision_location_may_be_a_number(self):
        args = {**INDEXED_ARGS["ch.decision"], "x": 1.5, "y": 2}
        validate_span_record(_span(1, 0, "ch.decision", **args))

    def test_boolean_decision_id_rejected(self):
        args = {**INDEXED_ARGS["ch.decision"], "decision_id": True}
        with pytest.raises(SchemaError, match="boolean"):
            validate_span_record(_span(1, 0, "ch.decision", **args))


class TestProvenanceRecords:
    def make_record(self):
        from tests.obs.test_provenance import location_forest

        from repro.obs.provenance import ProvenanceIndex

        return ProvenanceIndex(location_forest()).decision_provenance(1)

    def test_real_decision_chain_validates(self):
        record = self.make_record()
        validate_provenance_record(record)
        json.dumps(record)  # and serialises

    def test_wrong_type_rejected(self):
        record = self.make_record()
        record["type"] = "diagnosis"
        with pytest.raises(SchemaError, match="decision"):
            validate_provenance_record(record)

    def test_evidence_items_need_window_report_span(self):
        record = self.make_record()
        del record["evidence"][0]["window_report_span"]
        with pytest.raises(SchemaError, match="window_report_span"):
            validate_provenance_record(record)

    def test_vote_shape_checked_when_present(self):
        record = self.make_record()
        record["vote"]["cti_r"] = "high"
        with pytest.raises(SchemaError, match="cti_r"):
            validate_provenance_record(record)

    def test_null_vote_allowed(self):
        record = self.make_record()
        record["vote"] = None
        validate_provenance_record(record)


class TestChromeTrace:
    def make_spans(self):
        return [
            _span(1, 0, "event", 0.0, event_id=1),
            _span(2, 1, "radio.deliver", 0.1),
            _span(3, 2, "window.open", 0.1, circle=4),
            _span(4, 3, "window.close", 0.6, circles=[4], reports=1),
        ]

    def test_every_span_becomes_an_instant(self):
        doc = chrome_trace(self.make_spans())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == [
            "event", "radio.deliver", "window.open", "window.close",
        ]
        assert instants[1]["tid"] == "radio"  # top-level category lane
        assert instants[1]["ts"] == pytest.approx(0.1e6)  # microseconds

    def test_window_pairs_become_durations(self):
        doc = chrome_trace(self.make_spans())
        bars = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(bars) == 1
        assert bars[0]["name"] == "window[4]"
        assert bars[0]["dur"] == pytest.approx(0.5e6)
        assert bars[0]["args"] == {"open": 3, "close": 4}

    def test_unmatched_close_is_skipped(self):
        spans = self.make_spans()[:2] + [
            _span(3, 2, "window.close", 0.6, circles=[9], reports=0)
        ]
        doc = chrome_trace(spans)
        assert not [e for e in doc["traceEvents"] if e["ph"] == "X"]

    def test_document_shape(self):
        doc = chrome_trace([])
        assert doc == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_written_on_one_unindented_line(self, tmp_path):
        path = write_chrome_trace(
            tmp_path / "spans_chrome.json", self.make_spans()
        )
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert json.loads(text) == chrome_trace(self.make_spans())


class TestFileIO:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [{"a": 1}, {"b": [1, 2]}]
        write_jsonl(path, records)
        assert read_jsonl(path) == records

    def test_read_jsonl_names_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(SchemaError, match="bad.jsonl:2"):
            read_jsonl(path)

    def test_validate_artifacts_happy_path(self, tmp_path):
        write_json(
            tmp_path / "manifest.json",
            build_manifest("simulation-run", {"mode": "binary"}, 3),
        )
        write_jsonl(
            tmp_path / "metrics.jsonl", metrics_records({"radio.sent": 1}, {}, {})
        )
        write_jsonl(
            tmp_path / "session_journal.jsonl",
            [{"mode": "binary", "time": 1.0, "senders": [0]}],
        )
        counts = validate_artifacts(tmp_path)
        assert counts == {
            "manifest.json": 1,
            "metrics.jsonl": 1,
            "session_journal.jsonl": 1,
        }

    def test_validate_artifacts_requires_manifest(self, tmp_path):
        with pytest.raises(SchemaError, match="manifest.json"):
            validate_artifacts(tmp_path)

    def test_validate_artifacts_requires_metrics(self, tmp_path):
        write_json(
            tmp_path / "manifest.json", build_manifest("x", {}, 0)
        )
        with pytest.raises(SchemaError, match="metrics.jsonl"):
            validate_artifacts(tmp_path)

    def test_validate_artifacts_flags_bad_journal_line(self, tmp_path):
        write_json(
            tmp_path / "manifest.json", build_manifest("x", {}, 0)
        )
        write_jsonl(tmp_path / "metrics.jsonl", [])
        write_jsonl(
            tmp_path / "session_journal.jsonl",
            [{"mode": "binary", "time": 0.0}],
        )
        with pytest.raises(SchemaError, match="senders"):
            validate_artifacts(tmp_path)

    @pytest.mark.parametrize("name, finite, literal", [
        ("manifest.json", '"run_s": 1.5', '"run_s": NaN'),
        ("metrics.jsonl", '"value": 2.5', '"value": -Infinity'),
        ("spans.jsonl", '"time": 3.5', '"time": Infinity'),
        ("session_journal.jsonl", '"time": 4.5', '"time": NaN'),
    ])
    def test_non_finite_numbers_rejected_with_file_and_line(
        self, tmp_path, name, finite, literal
    ):
        write_json(
            tmp_path / "manifest.json",
            build_manifest("x", {}, 0, timings={"run_s": 1.5}),
        )
        write_jsonl(
            tmp_path / "metrics.jsonl",
            [{"name": "g", "type": "gauge", "value": 2.5}],
        )
        write_jsonl(
            tmp_path / "spans.jsonl",
            [_span(1, 0, "event", 0.5), _span(2, 1, "report", 3.5)],
        )
        write_jsonl(
            tmp_path / "session_journal.jsonl",
            [{"mode": "binary", "time": t, "senders": [0]}
             for t in (0.5, 1.0, 4.5)],
        )
        validate_artifacts(tmp_path)
        path = tmp_path / name
        text = path.read_text()
        line = text[: text.index(finite)].count("\n") + 1
        path.write_text(text.replace(finite, literal))
        with pytest.raises(SchemaError, match=f"{name}:{line}: "):
            validate_artifacts(tmp_path)

    def test_writers_refuse_non_finite_numbers(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(tmp_path / "manifest.json", {"run_s": math.nan})
        with pytest.raises(ValueError):
            write_jsonl(tmp_path / "metrics.jsonl", [{"value": -math.inf}])


class TestValidateCli:
    def test_module_entry_point(self, tmp_path, capsys):
        from repro.obs.validate import main

        write_json(
            tmp_path / "manifest.json", build_manifest("x", {}, 0)
        )
        write_jsonl(tmp_path / "metrics.jsonl", [])
        assert main([str(tmp_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_directory_fails(self, tmp_path, capsys):
        from repro.obs.validate import main

        assert main([str(tmp_path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_no_args_is_usage_error(self, capsys):
        from repro.obs.validate import main

        assert main([]) == 2
