"""Stdlib HTTP/JSON front end for the trust-session engine.

A deliberately thin layer: every route parses JSON, takes the target
session's lock through the :class:`~repro.service.manager.
SessionManager`, calls one :class:`~repro.service.session.TrustSession`
method, and serialises the result.  No framework, no extra
dependencies -- ``http.server.ThreadingHTTPServer`` handles one thread
per connection and the per-session locks make concurrent ingest safe.

Routes (all request/response bodies are JSON)::

    GET    /healthz                          liveness + registry stats
    GET    /v1/sessions                      resident session keys
    DELETE /v1/sessions/<key>                drop a session
    POST   /v1/sessions/<key>/reports        ingest {"reports": [...]}
    POST   /v1/sessions/<key>/close          close window {"time": t}
    GET    /v1/sessions/<key>/ti[?node=N]    TI table / one node's TI
    GET    /v1/sessions/<key>/diagnosed      diagnosed node ids
    GET    /v1/sessions/<key>/decisions[?since=ID]   decision log
    GET    /v1/sessions/<key>/state          export_state snapshot
    PUT    /v1/sessions/<key>/state          import_state snapshot

Sessions are created lazily on first ingest (the manager's factory
builds one from the service's default template), mirroring how a new
cluster simply starts reporting; a rejected request creates none.
``tibfit-repro serve`` wires this up from the command line; the smoke
tests drive :func:`make_server` in-process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.core.trust import TrustParameters
from repro.network.geometry import Region
from repro.network.topology import shared_grid_deployment
from repro.service.manager import SessionManager
from repro.service.session import (
    SessionConfig,
    TrustSession,
    _decision_to_dict,
)

__all__ = [
    "MAX_BODY_BYTES",
    "ServiceConfig",
    "default_session_factory",
    "make_server",
    "serve",
]


@dataclass(frozen=True)
class ServiceConfig:
    """The session template every lazily-created tenant starts from."""

    mode: str = "location"
    n_nodes: int = 36
    field_side: float = 60.0
    sensing_radius: float = 20.0
    r_error: float = 5.0
    trust: TrustParameters = field(default_factory=TrustParameters)
    use_trust: bool = True
    diagnosis_threshold: Optional[float] = None
    max_sessions: int = 100_000


def default_session_factory(
    config: ServiceConfig,
) -> Callable[[str], TrustSession]:
    """Session builder sharing one deployment across every tenant.

    Grid geometry is RNG-free and sessions never mutate their
    deployment, so tens of thousands of sessions can reference a single
    :class:`~repro.network.topology.Deployment` (with its spatial index
    prebuilt at ``r_s``) instead of rebuilding per tenant -- the same
    memo trick the sweep harness uses across trials.
    """
    deployment = shared_grid_deployment(
        config.n_nodes,
        Region.square(config.field_side),
        index_cell=config.sensing_radius,
    )
    session_config = SessionConfig(
        mode=config.mode,
        sensing_radius=config.sensing_radius,
        r_error=config.r_error,
        trust=config.trust,
        use_trust=config.use_trust,
        diagnosis_threshold=config.diagnosis_threshold,
    )

    def build(key: str) -> TrustSession:
        return TrustSession(deployment, session_config)

    # A template no session can be built from raises here, before any
    # server binds, not on the first request that creates a tenant.
    build("")
    return build


#: Largest request body the service reads, in bytes (16 MiB).  A longer
#: declared ``Content-Length`` gets a 413 before any of the body is
#: read; ``docs/service.md`` explains the size.
MAX_BODY_BYTES = 16 * 1024 * 1024


class _ApiError(Exception):
    """An error with an HTTP status, rendered as a JSON body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _parse(kind: Callable[[object], object], value: object, what: str):
    """``kind(value)``, or a 400 naming ``what`` when it does not parse."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise _ApiError(
            400, f"{what} must be a number, got {value!r}"
        ) from None


def _parse_report(report: object) -> Tuple[object, ...]:
    """One JSON report as ``TrustSession.ingest`` arguments, or a 400.

    Every value passes through as sent: the session's input rule
    (``check_report``) decides whether the node id is an integer and
    ``x``, ``y`` and ``time`` are finite numbers.
    """
    if not isinstance(report, dict) or "node" not in report:
        raise _ApiError(400, 'each report needs at least a "node" field')
    return (
        report["node"],
        report.get("x"),
        report.get("y"),
        report.get("time", 0.0),
    )


class TrustServiceHandler(BaseHTTPRequestHandler):
    """Request handler; the server instance carries the manager."""

    server_version = "tibfit-repro"
    protocol_version = "HTTP/1.1"

    # The stdlib default logs every request to stderr; a load test
    # would drown in it.  Silence unless the server asks for logs.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    @property
    def manager(self) -> SessionManager:
        return self.server.manager  # type: ignore[attr-defined]

    def handle(self) -> None:
        # A client that resets or drops a keep-alive connection has
        # ended it: that is a connection's normal end, not an error for
        # the server's ``handle_error`` to print.
        try:
            super().handle()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # -- plumbing ------------------------------------------------------
    def _send_json(self, status: int, doc: Dict[str, object]) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        """The whole declared body, read even on routes that ignore it:
        bytes left unread would be parsed as the connection's next
        request."""
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown, so nothing after it on this
            # connection can be framed: answer, then hang up.
            self.close_connection = True
            raise _ApiError(400, f"invalid Content-Length: {raw_length!r}")
        if length > MAX_BODY_BYTES:
            # Refused unread, so the stream cannot be framed either.
            self.close_connection = True
            raise _ApiError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        return self.rfile.read(length) if length else b""

    def _read_json(self) -> Dict[str, object]:
        if not self._body:
            return {}
        try:
            doc = json.loads(self._body)
        except (ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON, bytes that are not
            # UTF-8, and integers over the int-string digit limit;
            # RecursionError covers nesting deeper than the parser.
            raise _ApiError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(doc, dict):
            raise _ApiError(400, "request body must be a JSON object")
        return doc

    def _dispatch(self, method: str) -> None:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = parse_qs(parsed.query)
        try:
            self._body = self._read_body()
            self._route(method, parts, query)
        except _ApiError as exc:
            self._send_json(exc.status, {"error": str(exc)})
        except KeyError:
            self._send_json(404, {"error": "unknown session"})

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # -- routing -------------------------------------------------------
    def _route(
        self,
        method: str,
        parts: list,
        query: Dict[str, list],
    ) -> None:
        if parts == ["healthz"] and method == "GET":
            stats = self.manager.stats()
            self._send_json(200, {"status": "ok", **stats})
            return
        if parts == ["v1", "sessions"] and method == "GET":
            self._send_json(200, {"sessions": self.manager.keys()})
            return
        if len(parts) == 3 and parts[:2] == ["v1", "sessions"]:
            if method == "DELETE":
                removed = self.manager.remove(parts[2])
                if not removed:
                    raise _ApiError(404, "unknown session")
                self._send_json(200, {"deleted": parts[2]})
                return
            raise _ApiError(405, f"{method} not supported here")
        if len(parts) == 4 and parts[:2] == ["v1", "sessions"]:
            self._session_route(method, parts[2], parts[3], query)
            return
        raise _ApiError(404, f"no route for {method} {'/'.join(parts)}")

    def _session_route(
        self,
        method: str,
        key: str,
        action: str,
        query: Dict[str, list],
    ) -> None:
        if (method, action) == ("POST", "reports"):
            doc = self._read_json()
            reports = doc.get("reports")
            if not isinstance(reports, list):
                raise _ApiError(400, 'body must carry a "reports" list')
            parsed = [_parse_report(report) for report in reports]
            accepted = dropped = 0
            with self.manager.locked(key) as session:
                # The batch is atomic: every report passes the session's
                # rule before the first one is ingested.
                try:
                    for report in parsed:
                        session.check_report(*report)
                except ValueError as exc:
                    raise _ApiError(400, f"bad report: {exc}") from None
                for report in parsed:
                    ok = session.ingest(*report)
                    accepted += ok
                    dropped += not ok
                pending = session.pending_reports()
            self._send_json(
                200,
                {"accepted": accepted, "dropped": dropped, "pending": pending},
            )
            return
        if (method, action) == ("POST", "close"):
            doc = self._read_json()
            now = doc.get("time", 0.0)  # close_window checks it
            with self.manager.locked(key) as session:
                try:
                    records = session.close_window(now=now)
                except ValueError as exc:
                    raise _ApiError(400, f"bad close: {exc}") from None
                decisions = [_decision_to_dict(record) for record in records]
            self._send_json(200, {"decisions": decisions})
            return
        if (method, action) == ("GET", "ti"):
            node = (
                _parse(int, query["node"][0], "node")
                if "node" in query else None
            )
            with self.manager.locked(key, create=False) as session:
                if node is not None:
                    try:
                        ti = session.query_ti(node)
                    except KeyError:
                        raise _ApiError(404, f"unknown node {node}")
                    self._send_json(200, {"node": node, "ti": ti})
                    return
                tis = {str(n): ti for n, ti in sorted(session.tis().items())}
            self._send_json(200, {"tis": tis})
            return
        if (method, action) == ("GET", "diagnosed"):
            with self.manager.locked(key, create=False) as session:
                diagnosed = list(session.diagnosed())
            self._send_json(200, {"diagnosed": diagnosed})
            return
        if (method, action) == ("GET", "decisions"):
            since = (
                _parse(int, query["since"][0], "since")
                if "since" in query else None
            )
            with self.manager.locked(key, create=False) as session:
                decisions = session.decision_log(since)
            self._send_json(200, {"decisions": decisions})
            return
        if (method, action) == ("GET", "state"):
            with self.manager.locked(key, create=False) as session:
                state = session.export_state()
            self._send_json(200, state)
            return
        if (method, action) == ("PUT", "state"):
            doc = self._read_json()
            with self.manager.locked(key) as session:
                try:
                    session.import_state(doc)
                except (
                    ValueError, KeyError, TypeError, OverflowError
                ) as exc:
                    raise _ApiError(400, f"bad state document: {exc}")
            self._send_json(200, {"imported": key})
            return
        raise _ApiError(404, f"no route for {method} .../{action}")


def make_server(
    manager: SessionManager,
    host: str = "127.0.0.1",
    port: int = 8337,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server bound to ``host:port``.

    ``port=0`` binds an ephemeral port (tests); read the actual one
    from ``server.server_address``.
    """
    server = ThreadingHTTPServer((host, port), TrustServiceHandler)
    server.manager = manager  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server


def serve(
    config: ServiceConfig = ServiceConfig(),
    host: str = "127.0.0.1",
    port: int = 8337,
    verbose: bool = False,
) -> Tuple[ThreadingHTTPServer, SessionManager]:
    """Build the default manager + server pair (does not block).

    Callers run ``server.serve_forever()`` (the CLI does) or drive it
    from a thread (the smoke tests do).
    """
    manager = SessionManager(
        default_session_factory(config), max_sessions=config.max_sessions
    )
    server = make_server(manager, host=host, port=port, verbose=verbose)
    return server, manager
