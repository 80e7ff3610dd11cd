"""Smoke tests for the HTTP/JSON front end (in-process server)."""

import http.client
import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.service.http_api import ServiceConfig, serve


@pytest.fixture()
def server():
    config = ServiceConfig(mode="location", n_nodes=9, field_side=30.0)
    http_server, manager = serve(config, port=0)
    thread = threading.Thread(
        target=http_server.serve_forever, daemon=True
    )
    thread.start()
    host, port = http_server.server_address[:2]
    try:
        yield f"http://{host}:{port}", manager
    finally:
        http_server.shutdown()
        http_server.server_close()
        thread.join(timeout=5)


def call(base, method, path, body=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def ingest(base, key, reports, time=0.5):
    body = {
        "reports": [
            {"node": n, "x": x, "y": y, "time": time}
            for n, x, y in reports
        ]
    }
    return call(base, "POST", f"/v1/sessions/{key}/reports", body)


class TestSmoke:
    def test_healthz(self, server):
        base, _ = server
        status, doc = call(base, "GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["sessions"] == 0

    def test_report_close_query_cycle(self, server):
        base, manager = server
        reports = [(n, 15.0, 15.0) for n in range(5)]
        status, doc = ingest(base, "t1", reports)
        assert status == 200
        assert doc == {"accepted": 5, "dropped": 0, "pending": 5}

        status, doc = call(
            base, "POST", "/v1/sessions/t1/close", {"time": 1.0}
        )
        assert status == 200
        (decision,) = doc["decisions"]
        assert decision["occurred"] is True
        assert decision["decision_id"] == 1
        assert decision["supporters"] == [0, 1, 2, 3, 4]

        status, doc = call(base, "GET", "/v1/sessions/t1/ti")
        assert status == 200
        assert doc["tis"]["0"] == 1.0
        assert doc["tis"]["8"] < 1.0

        status, doc = call(base, "GET", "/v1/sessions/t1/ti?node=8")
        assert status == 200
        assert doc["node"] == 8
        assert doc["ti"] < 1.0

        status, doc = call(base, "GET", "/v1/sessions/t1/decisions")
        assert status == 200
        assert len(doc["decisions"]) == 1
        status, doc = call(
            base, "GET", "/v1/sessions/t1/decisions?since=1"
        )
        assert doc["decisions"] == []

        status, doc = call(base, "GET", "/v1/sessions/t1/diagnosed")
        assert status == 200
        assert doc["diagnosed"] == []

        # The HTTP layer drove the same engine the manager holds.
        assert manager.get("t1").windows_closed == 1

    def test_state_round_trip_between_sessions(self, server):
        base, _ = server
        ingest(base, "src", [(n, 12.0, 12.0) for n in range(5)])
        call(base, "POST", "/v1/sessions/src/close", {"time": 1.0})

        status, state = call(base, "GET", "/v1/sessions/src/state")
        assert status == 200
        assert state["schema"] == 1

        status, doc = call(base, "PUT", "/v1/sessions/dst/state", state)
        assert status == 200
        status, cloned = call(base, "GET", "/v1/sessions/dst/state")
        assert cloned == state

    def test_session_listing_and_delete(self, server):
        base, _ = server
        ingest(base, "a", [(0, 10.0, 10.0)])
        ingest(base, "b", [(0, 10.0, 10.0)])
        status, doc = call(base, "GET", "/v1/sessions")
        assert status == 200
        assert sorted(doc["sessions"]) == ["a", "b"]

        status, doc = call(base, "DELETE", "/v1/sessions/a")
        assert status == 200
        status, doc = call(base, "GET", "/v1/sessions")
        assert doc["sessions"] == ["b"]


class TestErrors:
    def test_unknown_session_is_404_on_reads(self, server):
        base, _ = server
        for path in (
            "/v1/sessions/nope/ti",
            "/v1/sessions/nope/diagnosed",
            "/v1/sessions/nope/decisions",
            "/v1/sessions/nope/state",
        ):
            status, doc = call(base, "GET", path)
            assert status == 404, path
            assert "error" in doc

    def test_delete_unknown_session_is_404(self, server):
        base, _ = server
        status, _ = call(base, "DELETE", "/v1/sessions/nope")
        assert status == 404

    def test_bad_bodies_are_400(self, server):
        base, _ = server
        status, doc = call(
            base, "POST", "/v1/sessions/t/reports", {"reports": "nope"}
        )
        assert status == 400
        status, doc = call(
            base, "POST", "/v1/sessions/t/reports", {"reports": [{}]}
        )
        assert status == 400
        status, doc = call(
            base, "PUT", "/v1/sessions/t/state", {"schema": 99}
        )
        assert status == 400
        assert call(base, "GET", "/healthz")[0] == 200

    @pytest.mark.parametrize("method, path, body, length", [
        ("POST", "/v1/sessions/t/reports",
         {"reports": [{"node": "seven", "x": 1.0, "y": 1.0}]}, None),
        ("POST", "/v1/sessions/t/reports",
         {"reports": [{"node": None, "x": 1.0, "y": 1.0}]}, None),
        ("POST", "/v1/sessions/t/reports",
         {"reports": [{"node": 0, "x": "far", "y": 1.0}]}, None),
        ("POST", "/v1/sessions/t/reports",
         {"reports": [{"node": 0, "x": 1.0, "y": 1.0, "time": "soon"}]},
         None),
        ("POST", "/v1/sessions/t/close", {"time": [1.0]}, None),
        ("GET", "/v1/sessions/t/ti?node=seven", None, None),
        ("GET", "/v1/sessions/t/decisions?since=last", None, None),
        ("POST", "/v1/sessions/t/close", {"time": 1.0}, "ten"),
        ("POST", "/v1/sessions/t/close", {"time": 1.0}, "-1"),
    ], ids=[
        "node", "null-node", "x", "report-time", "close-time", "query-node",
        "query-since", "content-length", "negative-content-length",
    ])
    def test_malformed_numbers_are_400(self, server, method, path, body,
                                       length):
        base, _ = server
        ingest(base, "t", [(0, 15.0, 15.0)])  # the session exists
        data = b"" if body is None else json.dumps(body).encode("utf-8")
        url = urllib.parse.urlsplit(base)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=3)
        try:
            conn.putrequest(method, path)
            conn.putheader("Content-Type", "application/json")
            conn.putheader(
                "Content-Length", str(len(data)) if length is None else length
            )
            conn.endheaders(data)
            response = conn.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read())
            if length is not None:
                # An unframeable body ends the connection, and says so.
                assert response.getheader("Connection") == "close"
        finally:
            conn.close()
        assert call(base, "GET", "/healthz")[0] == 200

    def test_unknown_route_is_404(self, server):
        base, _ = server
        status, _ = call(base, "GET", "/v1/other")
        assert status == 404
        status, _ = call(base, "GET", "/v1/sessions/t/unknown")
        assert status == 404
