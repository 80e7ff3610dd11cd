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
