"""Hypothesis fuzz of the HTTP handler, driven in-process.

Each example feeds raw HTTP/1.1 bytes through ``TrustServiceHandler``
over an in-memory socket: one fuzzed request, then ``GET /healthz`` on
the same keep-alive connection.  The service boundary must hold:

* the fuzzed request is answered with a 2xx or 4xx status -- never a
  5xx, and never a dropped connection (an exception escaping the
  handler fails the example with its traceback);
* ``/healthz`` still answers 200 afterwards, so the request left the
  connection framed;
* after a 4xx, the session's ``export_state()`` is byte-identical and
  no session was created or dropped;
* every resident session's state is standard JSON (no ``NaN`` or
  ``Infinity``), and its decision ids are strictly ascending and all
  below its ``next_decision_id``.

The target session ``t`` starts every example from the same exported
state: decided windows, moved trust values, and an open window.
"""

import copy
import io
import json
import types
import urllib.parse

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.http_api import (
    ServiceConfig,
    TrustServiceHandler,
    default_session_factory,
)
from repro.service.manager import SessionManager

KEY = "t"
CONFIG = ServiceConfig(mode="location", n_nodes=9, field_side=30.0)
FACTORY = default_session_factory(CONFIG)


def _baseline_state():
    session = FACTORY(KEY)
    for node in range(6):
        session.ingest(node, x=15.0, y=15.0, time=0.5)
    session.ingest(8, x=2.0, y=28.0, time=0.6)
    session.close_window(now=1.0)
    for node in (0, 1, 2):
        session.ingest(node, x=5.0, y=5.0, time=1.5)
    session.close_window(now=2.0)
    session.ingest(3, x=25.0, y=25.0, time=2.5)
    return session.export_state()


BASELINE = _baseline_state()


class _Socket:
    """The part of a socket that ``StreamRequestHandler`` touches."""

    def __init__(self, raw):
        self._raw = raw
        self.sent = bytearray()

    def makefile(self, mode, *args, **kwargs):
        return io.BytesIO(self._raw)

    def sendall(self, data):
        self.sent += data


def _responses(data):
    """``[(status, body)]`` for each response in a byte stream."""
    out = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep, f"truncated response: {data!r}"
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        out.append((status, rest[:length]))
        data = rest[length:]
    return out


def _state_text(manager):
    with manager.locked(KEY, create=False) as session:
        return json.dumps(session.export_state())


def exchange(method, target, body):
    """Send one request plus a pipelined ``GET /healthz``; check the
    boundary contract and return the fuzzed request's status."""
    manager = SessionManager(FACTORY)
    with manager.locked(KEY) as session:
        session.import_state(copy.deepcopy(BASELINE))
    before = _state_text(manager)
    keys_before = set(manager.keys())
    raw = (
        f"{method} {target} HTTP/1.1\r\n"
        "Host: fuzz\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body + b"GET /healthz HTTP/1.1\r\nHost: fuzz\r\n\r\n"
    sock = _Socket(raw)
    server = types.SimpleNamespace(manager=manager, verbose=False)
    TrustServiceHandler(sock, ("127.0.0.1", 0), server)
    replies = _responses(bytes(sock.sent))
    assert len(replies) == 2, replies
    (status, _body), (health, health_body) = replies
    assert 200 <= status < 300 or 400 <= status < 500, replies
    assert health == 200 and json.loads(health_body)["status"] == "ok"
    if 400 <= status < 500:
        assert KEY in manager
        assert _state_text(manager) == before
        assert set(manager.keys()) == keys_before
    for key in manager.keys():
        with manager.locked(key, create=False) as session:
            state = session.export_state()
        json.dumps(state, allow_nan=False)
        ids = [decision["decision_id"] for decision in state["decisions"]]
        assert all(a < b for a, b in zip(ids, ids[1:])), ids
        assert all(i < state["next_decision_id"] for i in ids), (
            ids, state["next_decision_id"],
        )
    return status


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=10,
)

#: Values one off from what a field expects: wrong sign, wrong type,
#: outside the deployment, non-finite, or a list of the wrong length.
edge_values = st.sampled_from([
    None, True, False, -5, -1, 0, 1.7, 10**6, 2**63, float("nan"),
    float("inf"), "", "1", [], {}, [1], [1, 2, 3], [[1]],
])

report_docs = st.dictionaries(
    st.sampled_from(["node", "x", "y", "time"]),
    edge_values | json_values,
)

bodies = st.one_of(
    st.just(b""),
    st.binary(max_size=48),
    json_values.map(lambda doc: json.dumps(doc).encode("utf-8")),
    st.fixed_dictionaries({
        "reports": st.lists(report_docs, max_size=3),
    }).map(lambda doc: json.dumps(doc).encode("utf-8")),
    st.fixed_dictionaries({"time": edge_values | json_values}).map(
        lambda doc: json.dumps(doc).encode("utf-8")
    ),
)

segments = st.text(max_size=10).map(
    lambda text: urllib.parse.quote(text, safe="")
)
queries = st.one_of(
    st.just(""),
    st.dictionaries(
        st.sampled_from(["node", "since"]) | st.text(max_size=6),
        st.text(max_size=8) | edge_values.map(json.dumps),
        max_size=2,
    ).map(lambda q: "?" + urllib.parse.urlencode(q)),
    st.text(max_size=12).map(
        lambda text: "?" + urllib.parse.quote(text, safe="=&")
    ),
)
keys = st.just(KEY) | segments.filter(bool)
known_routes = st.sampled_from([
    ("GET", ("healthz",)),
    ("GET", ("v1", "sessions")),
    ("DELETE", ("v1", "sessions", None)),
    ("POST", ("v1", "sessions", None, "reports")),
    ("POST", ("v1", "sessions", None, "close")),
    ("GET", ("v1", "sessions", None, "ti")),
    ("GET", ("v1", "sessions", None, "diagnosed")),
    ("GET", ("v1", "sessions", None, "decisions")),
    ("GET", ("v1", "sessions", None, "state")),
    ("PUT", ("v1", "sessions", None, "state")),
])
methods = st.sampled_from(["GET", "POST", "PUT", "DELETE"])


@st.composite
def requests(draw):
    if draw(st.booleans()):
        method, template = draw(known_routes)
        key = draw(keys)
        parts = [key if part is None else part for part in template]
    else:
        method = draw(methods)
        parts = draw(st.lists(segments, max_size=5))
    target = "/" + "/".join(parts) + draw(queries)
    return method, target, draw(bodies)


def _paths(value, prefix=()):
    """Every path into a JSON document, containers included."""
    yield prefix
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _paths(value[key], prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


STATE_PATHS = [path for path in _paths(BASELINE) if path]


@st.composite
def mutated_states(draw):
    """``BASELINE`` with one field, at any depth, replaced."""
    doc = copy.deepcopy(BASELINE)
    path = draw(st.sampled_from(STATE_PATHS))
    holder = doc
    for step in path[:-1]:
        holder = holder[step]
    old = holder[path[-1]]
    options = [edge_values, json_values]
    if isinstance(old, list) and old:
        options.append(st.sampled_from([old[:-1], old + old[-1:]]))
    holder[path[-1]] = draw(st.one_of(options))
    return doc


def test_baseline_state_is_rich_enough():
    assert len(BASELINE["decisions"]) >= 2
    assert BASELINE["pending"]
    assert any(v != 0.0 for _node, v in BASELINE["trust"])


def test_exchange_round_trips_the_baseline():
    body = json.dumps(BASELINE).encode("utf-8")
    assert exchange("PUT", f"/v1/sessions/{KEY}/state", body) == 200


@settings(max_examples=150, deadline=None)
@given(requests())
def test_arbitrary_requests_get_2xx_or_4xx(request):
    exchange(*request)


@settings(max_examples=150, deadline=None)
@given(mutated_states())
def test_mutated_state_documents_get_2xx_or_4xx(doc):
    exchange("PUT", f"/v1/sessions/{KEY}/state", json.dumps(doc).encode())
