"""Observability for the TIBFIT reproduction.

``repro.obs`` makes runs *inspectable*:

``repro.obs.registry``
    Named counters / gauges / histograms: the ``metrics.jsonl`` records,
    read after a run from the tallies it keeps anyway.
``repro.obs.export``
    JSONL artifact writers, per-run manifests, and schema validators.
``repro.obs.spans``
    Causal point spans with parent links (:class:`SpanCollector`) --
    the run's one event log -- and the zero-overhead disabled
    collector (:data:`NULL_SPANS`).
``repro.obs.provenance``
    :class:`ProvenanceIndex` -- walks span lineage to reconstruct the
    full evidence chain behind any CH verdict.

Entry points: ``SimulationRun.instruments()`` reads a finished run's
counts into a registry and ``export_artifacts()`` writes the JSONL
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
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MANIFEST_SCHEMA_VERSION",
    "MetricsRegistry",
    "NULL_SPANS",
    "ProvenanceIndex",
    "SchemaError",
    "Span",
    "SpanCollector",
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
