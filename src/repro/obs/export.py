"""Structured export: JSONL artifacts, per-run manifests, schemas.

An exported run writes two artifacts side by side::

    manifest.json     what ran: config, seed, code version, timings
    metrics.jsonl     one instrument snapshot per line, read from the
                      run's own counts (SimulationRun.instruments)

a journalled run (``SimulationRun(journal=True)``) adds the record its
TI history replays from::

    session_journal.jsonl   one closed window's raw inputs per line

and a span-enabled run (``SimulationRun(spans=True)``) adds its event
log and two views of it::

    spans.jsonl         one causal span per line (repro.obs.spans)
    provenance.jsonl    one decision evidence chain per line
    spans_chrome.json   Chrome-trace / Perfetto view of the same spans

Every artifact is standard JSON, so a sweep point is diffable with
nothing but a text tool, and the manifest carries everything needed to
re-run it bit-identically.  ``NaN`` and ``Infinity`` are not JSON: the
writers refuse them (``ValueError``) and the readers reject them with a
:class:`SchemaError` naming the file and line.  Validation is
hand-rolled (no third-party schema dependency): the ``validate_*``
functions raise :class:`SchemaError` naming the offending field, and
:func:`validate_artifacts` checks a whole directory -- the CI
observability job runs exactly that via ``python -m repro.obs.validate``.
"""

from __future__ import annotations

import json
import platform
import re
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "SchemaError",
    "build_manifest",
    "chrome_trace",
    "read_jsonl",
    "validate_artifacts",
    "validate_manifest",
    "validate_metrics_record",
    "validate_provenance_record",
    "validate_span_record",
    "write_json",
    "write_jsonl",
]

MANIFEST_SCHEMA_VERSION = 1

_METRIC_TYPES = ("counter", "gauge", "histogram")

_NUMBER = (int, float)

#: The span args :class:`~repro.obs.provenance.ProvenanceIndex` reads,
#: by category, with the JSON type it reads each as.
_SPAN_ARGS: Dict[str, Dict[str, object]] = {
    "ch.decision": {
        "decision_id": int,
        "occurred": bool,
        "supporters": list,
        "dissenters": list,
        "x": (*_NUMBER, type(None)),
        "y": (*_NUMBER, type(None)),
    },
    "window.cluster": {
        "x": _NUMBER, "y": _NUMBER, "members": list, "dissenters": list,
    },
    "window.filter": {"kept": list, "gated": list},
    "trust.vote": {
        "occurred": bool,
        "tie": bool,
        "cti_r": _NUMBER,
        "cti_nr": _NUMBER,
        "reporters": list,
        "non_reporters": list,
        "ti_r": list,
        "ti_nr": list,
        "applied": bool,
    },
    "trust.reward": {"nodes": list, "ti": list},
    "trust.penalize": {"nodes": list, "ti": list},
    "ch.diagnosis": {"node": int, "ti": _NUMBER},
}


class SchemaError(ValueError):
    """An artifact does not match its schema; the message names the field."""


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def build_manifest(
    kind: str,
    config: Dict[str, object],
    seed: int,
    timings: Optional[Dict[str, float]] = None,
    counts: Optional[Dict[str, int]] = None,
) -> Dict[str, object]:
    """Assemble a per-run manifest document.

    Parameters
    ----------
    kind:
        What produced the artifacts (``"simulation-run"``,
        ``"chaos-campaign"``).
    config:
        The full, JSON-serialisable configuration of the run -- enough
        to reproduce it (seeds are derived from config + ``seed``).
    seed:
        The master seed.
    timings:
        Wall-clock phase durations in seconds (``build_s``, ``run_s``).
    counts:
        Headline integer facts (events, decisions, spans).
    """
    from repro import __version__

    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": kind,
        "repro_version": __version__,
        "python_version": platform.python_version(),
        "created_unix": time.time(),
        "seed": int(seed),
        "config": config,
        "timings": dict(timings or {}),
        "counts": {k: int(v) for k, v in (counts or {}).items()},
    }


def validate_manifest(doc: object) -> None:
    """Raise :class:`SchemaError` unless ``doc`` is a valid manifest."""
    if not isinstance(doc, dict):
        raise SchemaError("manifest must be a JSON object")
    _require(doc, "manifest", "schema_version", int)
    if doc["schema_version"] != MANIFEST_SCHEMA_VERSION:
        raise SchemaError(
            f"manifest schema_version {doc['schema_version']!r} "
            f"!= {MANIFEST_SCHEMA_VERSION}"
        )
    _require(doc, "manifest", "kind", str)
    _require(doc, "manifest", "repro_version", str)
    _require(doc, "manifest", "python_version", str)
    _require(doc, "manifest", "created_unix", (int, float))
    _require(doc, "manifest", "seed", int)
    _require(doc, "manifest", "config", dict)
    timings = _require(doc, "manifest", "timings", dict)
    for key, value in timings.items():
        if not isinstance(value, (int, float)):
            raise SchemaError(f"manifest timings[{key!r}] must be a number")
    counts = _require(doc, "manifest", "counts", dict)
    for key, value in counts.items():
        if not isinstance(value, int):
            raise SchemaError(f"manifest counts[{key!r}] must be an integer")


# ----------------------------------------------------------------------
# Metrics records
# ----------------------------------------------------------------------
def validate_metrics_record(record: object) -> None:
    """Raise :class:`SchemaError` unless ``record`` is one metrics line."""
    if not isinstance(record, dict):
        raise SchemaError("metrics record must be a JSON object")
    name = _require(record, "metrics record", "name", str)
    kind = _require(record, "metrics record", "type", str)
    if kind not in _METRIC_TYPES:
        raise SchemaError(
            f"metrics record {name!r}: type {kind!r} not in {_METRIC_TYPES}"
        )
    if kind in ("counter", "gauge"):
        _require(record, f"metrics record {name!r}", "value", (int, float))
    else:
        count = _require(record, f"metrics record {name!r}", "count", int)
        _require(record, f"metrics record {name!r}", "sum", (int, float))
        if count:
            # mean (like min/max and the quantiles) exists only for
            # populated histograms -- an empty one has no mean, and NaN
            # is not strict JSON.
            for key in ("mean", "min", "max", "p50", "p90", "p99"):
                _require(
                    record, f"metrics record {name!r}", key, (int, float)
                )


# ----------------------------------------------------------------------
# Span / provenance records
# ----------------------------------------------------------------------
def validate_span_record(record: object) -> None:
    """Raise :class:`SchemaError` unless ``record`` is one span line."""
    if not isinstance(record, dict):
        raise SchemaError("span record must be a JSON object")
    span_id = _require(record, "span record", "id", int)
    if span_id <= 0:
        raise SchemaError(f"span record id must be positive, got {span_id}")
    parent = _require(record, f"span record {span_id}", "parent", int)
    if parent < 0:
        raise SchemaError(
            f"span record {span_id}: parent must be >= 0, got {parent}"
        )
    if parent >= span_id:
        # Parents are always emitted before their children, so ids
        # strictly increase down any causal chain.
        raise SchemaError(
            f"span record {span_id}: parent {parent} is not older"
        )
    category = _require(record, f"span record {span_id}", "category", str)
    if not category:
        raise SchemaError(f"span record {span_id}: empty category")
    _require(record, f"span record {span_id}", "time", (int, float))
    args = _require(record, f"span record {span_id}", "args", dict)
    for key, types in _SPAN_ARGS.get(category, {}).items():
        _require(args, f"span record {span_id} ({category}) args", key, types)


def validate_provenance_record(record: object) -> None:
    """Raise :class:`SchemaError` unless ``record`` is one decision chain."""
    if not isinstance(record, dict):
        raise SchemaError("provenance record must be a JSON object")
    kind = _require(record, "provenance record", "type", str)
    if kind != "decision":
        raise SchemaError(
            f"provenance record type {kind!r} != 'decision'"
        )
    decision_id = _require(
        record, "provenance record", "decision_id", int
    )
    where = f"provenance record {decision_id}"
    _require(record, where, "span", int)
    _require(record, where, "time", (int, float))
    _require(record, where, "occurred", bool)
    _require(record, where, "supporters", list)
    _require(record, where, "dissenters", list)
    _require(record, where, "evidence", list)
    for item in record["evidence"]:
        if not isinstance(item, dict):
            raise SchemaError(f"{where}: evidence items must be objects")
        _require(item, f"{where} evidence", "window_report_span", int)
    _require(record, where, "dropped_reports", list)
    _require(record, where, "trust", dict)
    _require(record, where, "diagnoses", list)
    vote = record.get("vote")
    if vote is not None:
        if not isinstance(vote, dict):
            raise SchemaError(f"{where}: vote must be an object or null")
        for key in ("cti_r", "cti_nr"):
            _require(vote, f"{where} vote", key, (int, float))
        for key in ("reporters", "non_reporters", "ti_r", "ti_nr"):
            _require(vote, f"{where} vote", key, list)


def validate_session_journal_record(record: object) -> None:
    """Raise :class:`SchemaError` unless ``record`` is one closed window.

    The session journal (``session_journal.jsonl``, written by runs
    created with ``journal=True``) carries one record per decided
    window: the raw inputs the trust engine saw, replayable through
    :meth:`repro.service.session.TrustSession.replay_window`.
    """
    if not isinstance(record, dict):
        raise SchemaError("session-journal record must be a JSON object")
    mode = _require(record, "session-journal record", "mode", str)
    if mode not in ("binary", "location"):
        raise SchemaError(
            f"session-journal record mode {mode!r} not binary/location"
        )
    where = f"session-journal {mode} window"
    _require(record, where, "time", (int, float))
    if mode == "binary":
        senders = _require(record, where, "senders", list)
        for sender in senders:
            if not isinstance(sender, int):
                raise SchemaError(f"{where}: senders must be node ids")
        return
    rows = _require(record, where, "rows", list)
    for row in rows:
        if not (isinstance(row, list) and len(row) == 4):
            raise SchemaError(
                f"{where}: rows must be [node, x, y, time] quadruples"
            )
        node_id, x, y, time = row
        if not isinstance(node_id, int):
            raise SchemaError(f"{where}: row node id must be an int")
        for value in (x, y, time):
            if not isinstance(value, (int, float)):
                raise SchemaError(f"{where}: row coordinates must be numbers")


def chrome_trace(spans) -> Dict[str, object]:
    """A Chrome-trace / Perfetto document for one run's spans.

    Every span becomes an instant event ("i") on a thread named after
    its top-level category; ``window.open`` / ``window.close`` pairs
    additionally become duration events ("X") so collection windows
    show as bars.  Times scale to microseconds (1 sim-time unit = 1s).
    """
    events = []
    opens: Dict[object, Dict[str, object]] = {}
    for record in spans if isinstance(spans, list) else spans.to_records():
        category = record["category"]
        top = category.split(".", 1)[0]
        ts = record["time"] * 1e6
        events.append(
            {
                "name": category,
                "ph": "i",
                "s": "t",
                "ts": ts,
                "pid": 1,
                "tid": top,
                "args": {
                    "id": record["id"],
                    "parent": record["parent"],
                    **record["args"],
                },
            }
        )
        if category == "window.open":
            opens[record["args"].get("circle")] = record
        elif category == "window.close":
            for circle in record["args"].get("circles", ()):
                open_record = opens.pop(circle, None)
                if open_record is None:
                    continue
                start = open_record["time"] * 1e6
                events.append(
                    {
                        "name": f"window[{circle}]",
                        "ph": "X",
                        "ts": start,
                        "dur": ts - start,
                        "pid": 1,
                        "tid": "window",
                        "args": {
                            "open": open_record["id"],
                            "close": record["id"],
                        },
                    }
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------
def write_json(path, doc: Dict[str, object]) -> Path:
    """Write one JSON document (the manifest format)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    return path


def write_jsonl(path, records: Iterable[Dict[str, object]]) -> Path:
    """Write records one JSON object per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, allow_nan=False))
            handle.write("\n")
    return path


class _NonFinite(ValueError):
    """A ``NaN`` / ``Infinity`` / ``-Infinity`` literal: not JSON."""


def _refuse_constant(token: str) -> None:
    raise _NonFinite(token)


#: A JSON string literal, and the tokens ``json`` accepts beyond JSON.
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
_NON_FINITE = re.compile(r"-?(?:NaN|Infinity)")


def _loads(text: str, path, line_no: int = 1) -> object:
    """Parse one JSON document that starts on line ``line_no`` of ``path``.

    Raises :class:`SchemaError` naming the file and line for invalid
    JSON, including the ``NaN`` / ``Infinity`` / ``-Infinity`` literals
    :func:`json.loads` accepts by default.
    """
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except _NonFinite as exc:
        # Blank out string literals, so a string "NaN" is not taken for
        # the literal, and find the line of the first one left.
        masked = _STRING.sub(lambda m: " " * len(m.group()), text)
        at = _NON_FINITE.search(masked)
        line = line_no + masked.count("\n", 0, at.start() if at else 0)
        raise SchemaError(
            f"{path}:{line}: {exc} is not a JSON number"
        ) from None
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}:{line_no + exc.lineno - 1}: not valid JSON ({exc})"
        ) from None


def read_jsonl(path) -> List[Dict[str, object]]:
    """Read a JSONL file back into a list of dicts."""
    out: List[Dict[str, object]] = []
    with Path(path).open() as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                out.append(_loads(line, path, line_no))
    return out


def validate_artifacts(directory) -> Dict[str, int]:
    """Validate a run's artifact directory; returns per-file line counts.

    Requires ``manifest.json`` and ``metrics.jsonl``; validates the
    span, journal and provenance files when present.
    Raises :class:`SchemaError` on the first invalid document.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise SchemaError(f"missing {manifest_path}")
    validate_manifest(_loads(manifest_path.read_text(), manifest_path))
    counts = {"manifest.json": 1}

    metrics_path = directory / "metrics.jsonl"
    if not metrics_path.exists():
        raise SchemaError(f"missing {metrics_path}")
    metrics = read_jsonl(metrics_path)
    for record in metrics:
        validate_metrics_record(record)
    counts["metrics.jsonl"] = len(metrics)

    spans_path = directory / "spans.jsonl"
    if spans_path.exists():
        spans = read_jsonl(spans_path)
        for record in spans:
            validate_span_record(record)
        counts["spans.jsonl"] = len(spans)

    journal_path = directory / "session_journal.jsonl"
    if journal_path.exists():
        journal = read_jsonl(journal_path)
        for record in journal:
            validate_session_journal_record(record)
        counts["session_journal.jsonl"] = len(journal)

    provenance_path = directory / "provenance.jsonl"
    if provenance_path.exists():
        provenance = read_jsonl(provenance_path)
        for record in provenance:
            validate_provenance_record(record)
        counts["provenance.jsonl"] = len(provenance)

    chrome_path = directory / "spans_chrome.json"
    if chrome_path.exists():
        doc = _loads(chrome_path.read_text(), chrome_path)
        if not isinstance(doc, dict) or not isinstance(
            doc.get("traceEvents"), list
        ):
            raise SchemaError(
                "spans_chrome.json must hold a 'traceEvents' list"
            )
        counts["spans_chrome.json"] = len(doc["traceEvents"])
    return counts


def _require(doc: dict, where: str, key: str, types) -> object:
    if key not in doc:
        raise SchemaError(f"{where} missing required field {key!r}")
    value = doc[key]
    if isinstance(value, bool) and types is not bool and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise SchemaError(f"{where} field {key!r} must not be a boolean")
    if not isinstance(value, types):
        raise SchemaError(
            f"{where} field {key!r} has wrong type {type(value).__name__}"
        )
    return value
