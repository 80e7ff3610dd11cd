"""Smoke tests for the HTTP/JSON front end (in-process server)."""

import http.client
import json
import socket
import struct
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.service import http_api
from repro.service.http_api import MAX_BODY_BYTES, ServiceConfig, serve


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


def state_text(base, key):
    status, state = call(base, "GET", f"/v1/sessions/{key}/state")
    assert status == 200
    return json.dumps(state, sort_keys=True)


def decision_doc(decision_id):
    """A well-formed decision record with the given id."""
    return {
        "decision_id": decision_id, "time": 1.0, "occurred": True,
        "location": [15.0, 15.0], "supporters": [0], "dissenters": [],
    }


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
        with manager.locked("t1", create=False) as session:
            assert session.windows_closed == 1

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


class TestKeepAlive:
    def test_client_reset_between_requests_is_quiet(self, server, capfd):
        """A keep-alive client that resets its connection has ended it:
        the server prints no traceback."""
        base, _ = server
        url = urllib.parse.urlsplit(base)
        before = set(threading.enumerate())
        connection = http.client.HTTPConnection(
            url.hostname, url.port, timeout=10
        )
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        response.read()
        # The connection's handler thread now waits for a second
        # request.
        handlers = set(threading.enumerate()) - before
        assert handlers
        # Linger on with a zero timeout: close() sends a reset.
        connection.sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        connection.close()
        for thread in handlers:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert capfd.readouterr().err == ""


class TestTemplate:
    @pytest.mark.parametrize("field, value", [
        ("r_error", -1.0),
        ("sensing_radius", -5.0),
        ("diagnosis_threshold", 7.0),
    ])
    def test_unservable_template_raises_before_binding(
        self, monkeypatch, field, value
    ):
        """A template no session can be built from never gets a server:
        its first session-creating request would drop the connection."""

        def bind(*args, **kwargs):
            raise AssertionError("bound a server for an unservable template")

        monkeypatch.setattr(http_api, "make_server", bind)
        with pytest.raises(ValueError):
            serve(ServiceConfig(**{field: value}), port=0)


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
        ("POST", "/v1/sessions/t/close", {"time": "nan"}, None),
        ("POST", "/v1/sessions/t/close", {"time": "-inf"}, None),
        ("POST", "/v1/sessions/t/close", {"time": float("nan")}, None),
        ("POST", "/v1/sessions/t/close", {"time": True}, None),
        ("POST", "/v1/sessions/t/close", {"time": "2.5"}, None),
        ("POST", "/v1/sessions/t/reports",
         {"reports": [{"node": 0, "x": "2.5", "y": 1.0}]}, None),
        ("GET", "/v1/sessions/t/ti?node=seven", None, None),
        ("GET", "/v1/sessions/t/decisions?since=last", None, None),
        ("POST", "/v1/sessions/t/close", {"time": 1.0}, "ten"),
        ("POST", "/v1/sessions/t/close", {"time": 1.0}, "-1"),
    ], ids=[
        "node", "null-node", "x", "report-time", "close-time",
        "close-time-nan-text", "close-time-inf-text", "close-time-nan",
        "close-time-bool", "close-time-text", "x-number-text",
        "query-node", "query-since", "content-length",
        "negative-content-length",
    ])
    def test_malformed_numbers_are_400(self, server, method, path, body,
                                       length):
        base, _ = server
        ingest(base, "t", [(0, 15.0, 15.0)])  # the session exists
        before = state_text(base, "t")
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
        assert state_text(base, "t") == before

    @pytest.mark.parametrize("method, path", [
        ("POST", "/v1/sessions/t/reports"),
        ("PUT", "/v1/sessions/t/state"),
    ], ids=["reports", "state"])
    @pytest.mark.parametrize("length", [10**12, 2**63],
                             ids=["1e12", "2**63"])
    def test_oversized_body_is_413(self, server, method, path, length):
        base, _ = server
        ingest(base, "t", [(0, 15.0, 15.0)])
        before = state_text(base, "t")
        url = urllib.parse.urlsplit(base)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=3)
        try:
            conn.putrequest(method, path)
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(length))
            conn.endheaders()  # the declared body never follows
            response = conn.getresponse()
            assert response.status == 413
            assert "limit" in json.loads(response.read())["error"]
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()
        assert call(base, "GET", "/healthz")[0] == 200
        assert state_text(base, "t") == before

    def test_body_at_the_limit_is_read(self, server):
        base, _ = server
        body = json.dumps({"time": 1.0}).encode("utf-8")
        body += b" " * (MAX_BODY_BYTES - len(body))
        url = urllib.parse.urlsplit(base)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            conn.request("POST", "/v1/sessions/t/close", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"decisions": []}
        finally:
            conn.close()

    @pytest.mark.parametrize("bad", [
        {"node": "zz", "x": 1.0, "y": 1.0},
        {"x": 1.0, "y": 1.0},
        {"node": 10**6, "x": 1.0, "y": 1.0},
        {"node": -1, "x": 1.0, "y": 1.0},
        {"node": 2, "x": float("nan"), "y": 1.0},
        {"node": 2, "x": 1.0, "y": "nan"},
        {"node": 2, "x": 1.0, "y": 1.0, "time": float("inf")},
        {"node": 1.7, "x": 1.0, "y": 1.0},
        {"node": True, "x": 1.0, "y": 1.0},
        {"node": "3", "x": 1.0, "y": 1.0},
        {"node": 2, "x": True, "y": 1.0},
        {"node": 2, "x": 1.0, "y": "15"},
        {"node": 2, "x": 1.0, "y": 1.0, "time": False},
    ], ids=[
        "node-text", "no-node", "node-outside", "node-negative", "x-nan",
        "y-nan-text", "time-inf", "node-fraction", "node-bool",
        "node-digit-text", "x-bool", "y-number-text", "time-bool",
    ])
    def test_rejected_batch_ingests_nothing(self, server, bad):
        base, _ = server
        ingest(base, "t", [(0, 15.0, 15.0)])
        before = state_text(base, "t")
        body = {"reports": [
            {"node": 1, "x": 15.0, "y": 15.0, "time": 0.5},
            {"node": 2, "x": 15.0, "y": 15.0, "time": 0.5},
            bad,
        ]}
        status, doc = call(base, "POST", "/v1/sessions/t/reports", body)
        assert status == 400
        assert "error" in doc
        assert state_text(base, "t") == before

    @pytest.mark.parametrize("field, value", [
        ("trust", [[0, -1.0]]),
        ("decisions", [{"decision_id": 1}]),
        ("next_decision_id", -5),
        ("next_decision_id", float("inf")),
        ("decisions", [{
            "decision_id": 1, "time": 1.0, "occurred": True,
            "location": [1], "supporters": [0], "dissenters": [],
        }]),
        ("members", [0, 10**6]),
        ("trust", [[10**6, 0.0]]),
        ("diagnosed", [10**6]),
        ("windows_closed", -5),
        ("members", [0, 1.7]),
        ("diagnosed", [True]),
        ("decisions", [{
            "decision_id": 1, "time": "nan", "occurred": True,
            "location": None, "supporters": [0], "dissenters": [],
        }]),
        ("decisions", [{
            "decision_id": 1, "time": 1.0, "occurred": True,
            "location": [float("inf"), 1.0], "supporters": [0],
            "dissenters": [],
        }]),
        # The exported next_decision_id is 2: ids 1, 0 are below it but
        # out of order, and ids 1, 2 are in order but 2 is not below it.
        ("decisions", [decision_doc(1), decision_doc(0)]),
        ("decisions", [decision_doc(1), decision_doc(2)]),
        # Integers, booleans and numbers are taken as they are, never
        # truncated, parsed or coerced: 4.9 is not 4, "false" is not
        # True, and true is neither node 1 nor a trust value.
        ("next_decision_id", 4.9),
        ("windows_closed", "3"),
        ("decisions", [dict(decision_doc(1), decision_id=1.5)]),
        ("decisions", [dict(decision_doc(1), occurred="false")]),
        ("decisions", [dict(decision_doc(1), supporters=[99999])]),
        ("decisions", [dict(decision_doc(1), supporters=[True])]),
        ("decisions", [dict(decision_doc(1), supporters=[1.9])]),
        ("decisions", [dict(decision_doc(1), dissenters=[99999])]),
        ("trust", [[0, True]]),
        ("members", [0, 1, 1]),
        ("decisions", [dict(
            decision_doc(1), time=True, location=[True, "2.5"]
        )]),
        ("decisions", [dict(decision_doc(1), location=[15.0, "2.5"])]),
        ("pending", [[0, True, 15.0, 1.5]]),
    ], ids=[
        "trust", "decisions", "next_decision_id", "infinite-id",
        "short-location", "member-outside", "trust-node-outside",
        "diagnosed-outside", "negative-windows", "member-fraction",
        "diagnosed-bool", "decision-time-nan", "decision-x-inf",
        "decision-ids-descending", "decision-id-not-below-next",
        "next-id-fraction", "windows-text", "decision-id-fraction",
        "occurred-text", "supporter-outside", "supporter-bool",
        "supporter-fraction", "dissenter-outside", "trust-v-bool",
        "member-duplicate", "decision-time-bool", "decision-y-text",
        "pending-x-bool",
    ])
    def test_rejected_state_leaves_session_unchanged(self, server, field,
                                                     value):
        base, _ = server
        ingest(base, "t", [(n, 15.0, 15.0) for n in range(5)])
        call(base, "POST", "/v1/sessions/t/close", {"time": 1.0})
        ingest(base, "t", [(0, 15.0, 15.0)], time=1.5)
        before = state_text(base, "t")
        doc = json.loads(before)
        assert doc["next_decision_id"] == 2
        doc["members"] = [0, 1]
        doc[field] = value
        status, reply = call(base, "PUT", "/v1/sessions/t/state", doc)
        assert status == 400
        assert "error" in reply
        assert state_text(base, "t") == before

    @pytest.mark.parametrize("method, action, body", [
        ("PUT", "state", {"bogus": 1}),
        ("POST", "reports", {"reports": [{"node": 1.5, "x": 1.0, "y": 1.0}]}),
        ("POST", "close", {"time": "nan"}),
    ], ids=["state", "reports", "close"])
    def test_rejected_request_creates_no_session(self, server, method,
                                                 action, body):
        base, manager = server
        status, reply = call(base, method, f"/v1/sessions/new/{action}", body)
        assert status == 400
        assert "error" in reply
        assert call(base, "GET", "/v1/sessions") == (200, {"sessions": []})
        assert manager.stats()["created"] == 0

    def test_unknown_route_is_404(self, server):
        base, _ = server
        status, _ = call(base, "GET", "/v1/other")
        assert status == 404
        status, _ = call(base, "GET", "/v1/sessions/t/unknown")
        assert status == 404


class TestDecisionsRoute:
    def put_log(self, base, key, ids):
        """Give session ``key`` a decision log with exactly ``ids``."""
        ingest(base, key, [(0, 15.0, 15.0)])
        doc = json.loads(state_text(base, key))
        doc["decisions"] = [decision_doc(i) for i in ids]
        doc["next_decision_id"] = ids[-1] + 1 if ids else 0
        assert call(base, "PUT", f"/v1/sessions/{key}/state", doc)[0] == 200

    def test_decision_id_zero_is_listed(self, server):
        base, _ = server
        self.put_log(base, "t", [])
        ingest(base, "t", [(n, 15.0, 15.0) for n in range(1, 5)])
        status, closed = call(
            base, "POST", "/v1/sessions/t/close", {"time": 1.0}
        )
        assert status == 200
        assert [d["decision_id"] for d in closed["decisions"]] == [0]
        _, state = call(base, "GET", "/v1/sessions/t/state")
        status, doc = call(base, "GET", "/v1/sessions/t/decisions")
        assert status == 200
        assert doc["decisions"] == state["decisions"] == closed["decisions"]
        status, doc = call(base, "GET", "/v1/sessions/t/decisions?since=-1")
        assert doc["decisions"] == closed["decisions"]

    def test_since_reads_equal_the_filtered_log(self, server):
        base, _ = server
        ids = [3 * i + 2 for i in range(50)]  # 2, 5, ..., 149
        self.put_log(base, "t", ids)
        status, full = call(base, "GET", "/v1/sessions/t/decisions")
        assert status == 200
        assert [d["decision_id"] for d in full["decisions"]] == ids
        below = [-(10**6), -1, 0, 1]
        at = [2, 5, 74, 146, 149]
        between = [3, 4, 75, 76, 147, 148]
        above = [150, 10**6]
        for since in below + at + between + above:
            status, doc = call(
                base, "GET", f"/v1/sessions/t/decisions?since={since}"
            )
            assert status == 200
            assert doc["decisions"] == [
                d for d in full["decisions"] if d["decision_id"] > since
            ], since
