"""Observability for the TIBFIT reproduction.

``repro.obs`` makes runs *inspectable*:

``repro.obs.export``
    JSONL artifact writers, per-run manifests, schema validators, and
    :func:`metrics_records`, the one writer of the ``metrics.jsonl``
    records (counters, gauges, histograms) from tallies a run keeps
    anyway.
``repro.obs.spans``
    Causal point spans with parent links (:class:`SpanCollector`) --
    the run's one event log -- and the zero-overhead disabled
    collector (:data:`NULL_SPANS`).
``repro.obs.provenance``
    :class:`ProvenanceIndex` -- walks span lineage to reconstruct the
    full evidence chain behind any CH verdict.

Entry points: ``SimulationRun.instruments()`` reads a finished run's
counts into metrics records and ``export_artifacts()`` writes the JSONL
bundle (``spans=True`` adds spans / provenance / a Chrome trace, and
``journal=True`` the session journal, whose replay is the run's TI
history); ``tibfit-repro trace`` does all three from the command line;
``tibfit-repro explain`` renders one decision's causal chain; and
``python -m repro.obs.validate DIR`` checks an artifact directory
against the schemas.  A layer profile is the benchmark's own tracer
(``bench/tracer.py``), so it reads the same layers as a benchmark
claim.  See ``docs/observability.md``.
"""

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
    write_json,
    write_jsonl,
)
from repro.obs.provenance import ProvenanceIndex
from repro.obs.spans import NULL_SPANS, Span, SpanCollector

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "NULL_SPANS",
    "ProvenanceIndex",
    "SchemaError",
    "Span",
    "SpanCollector",
    "build_manifest",
    "chrome_trace",
    "metrics_records",
    "read_jsonl",
    "validate_artifacts",
    "validate_manifest",
    "validate_metrics_record",
    "validate_provenance_record",
    "validate_span_record",
    "write_json",
    "write_jsonl",
]
