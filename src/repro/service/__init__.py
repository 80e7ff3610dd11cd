"""TIBFIT as a service: DES-free trust sessions behind an ingest API.

The package turns the per-cluster decision pipeline -- trust table, CTI
voting, windowed location/binary decisions, TI-threshold diagnosis --
into a standalone :class:`~repro.service.session.TrustSession` driven by
``ingest`` / ``close_window`` / ``query_ti`` calls with no simulator,
radio, or clock dependency (callers supply timestamps).  On top of it:

* :class:`~repro.service.manager.SessionManager` -- tens of thousands
  of independent sessions per process, keyed by tenant/cluster id, with
  a max-session cap, LRU eviction and a lock per session.
* :mod:`repro.service.http_api` -- a thin stdlib HTTP/JSON front end
  (report ingest, TI reads, diagnosed-node lists, decision logs) behind
  the ``tibfit-repro serve`` subcommand.

The DES experiments are one client of the same engine:
:class:`~repro.clusterctl.head.ClusterHead` delegates every window-close
decision to its embedded session, so the golden fixtures, chaos
campaigns and provenance chains all pin the service code path
bit-for-bit (see ``docs/service.md``).
"""
