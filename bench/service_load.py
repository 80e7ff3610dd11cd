"""The service_http workload: closed-loop HTTP traffic and its checks.

A pass is fixed work, like a DES pass, so the state the server builds does
not depend on how fast it answers.  Two client threads, each holding one
persistent connection, split the pass's tenants between them (even and
odd).  A client goes round its tenants one window at a time until each has
had ``Mix.windows`` windows; each window POSTs the window's reports and
then POSTs ``close``.  After every ``read_every``-th window of a tenant the
client also reads the tenant's TI table and its decisions since its last
cursor.  Every ``migrate_every``-th tenant, after ``migrate_after``
windows, GETs its state and PUTs it to a new key, under which it carries
on for the rest of its windows (a state migration).  The next request goes
out only when the previous one has answered, as a gateway that waits for
each verdict would send them.

Every window is drawn from ``(seed, tenant, window)`` alone, so every pass
of a run sends the same requests and must get the same answers.
:func:`replay` feeds each tenant's recorded requests into fresh in-process
sessions and requires every HTTP response to equal what the session
returns; :func:`mix_problems` checks that the pass sent the mix above.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

CLIENTS = 2
FAULTY_SHARE = 0.3
SIGMA_CORRECT = 1.6
SIGMA_FAULTY = 6.0
FAULTY_DROP = 0.25
REPORTS_PER_WINDOW = (8, 14)
WINDOW_SPACING = 10.0
HEADERS = {"Content-Type": "application/json"}


@dataclass(frozen=True)
class Mix:
    """The requests of one pass."""

    tenants: int
    windows: int  # per tenant
    read_every: int  # GET ti + decisions after every n-th window of a tenant
    migrate_every: int  # every n-th tenant (0, n, 2n, ...) migrates once,
    migrate_after: int  # after this many windows, and carries on

    def migrates(self, tenant: int) -> bool:
        return tenant % self.migrate_every == 0

    def requests(self) -> int:
        reads = self.tenants * (self.windows // self.read_every)
        migrations = sum(map(self.migrates, range(self.tenants)))
        return 2 * (self.tenants * self.windows + reads + migrations)


#: 304 requests a pass: 120 windows, 30 read pairs, 2 migrations.
FULL = Mix(tenants=10, windows=12, read_every=4, migrate_every=5, migrate_after=6)
#: The self-test's scale: 66 requests a pass.
SMOKE = Mix(tenants=4, windows=6, read_every=3, migrate_every=4, migrate_after=3)


class Traffic:
    """Deterministic report windows for a run's tenants."""

    def __init__(self, seed: int, mix: Mix, session, side: float) -> None:
        deployment = session.deployment
        self.nodes = list(deployment.node_ids())
        positions = [deployment.position_of(n) for n in self.nodes]
        self.xs = np.array([p.x for p in positions])
        self.ys = np.array([p.y for p in positions])
        self.side = side
        self.seed = seed
        self.mix = mix
        n_faulty = round(FAULTY_SHARE * len(self.nodes))
        self.faulty = [
            set(
                np.random.default_rng([seed, tenant])
                .choice(self.nodes, size=n_faulty, replace=False)
                .tolist()
            )
            for tenant in range(mix.tenants)
        ]

    def window(self, tenant: int, index: int):
        """``(reports, close_time, true_location)`` of one window."""
        rng = np.random.default_rng([self.seed, tenant, index])
        ex, ey = rng.uniform(0.0, self.side, size=2)
        k = int(rng.integers(REPORTS_PER_WINDOW[0], REPORTS_PER_WINDOW[1] + 1))
        distance = np.hypot(self.xs - ex, self.ys - ey)
        start = WINDOW_SPACING * index
        reports = []
        for i in np.argsort(distance, kind="stable")[:k]:
            node = self.nodes[int(i)]
            faulty = node in self.faulty[tenant]
            if faulty and rng.random() < FAULTY_DROP:
                continue
            sigma = SIGMA_FAULTY if faulty else SIGMA_CORRECT
            dx, dy = rng.normal(0.0, sigma, size=2)
            reports.append({
                "node": node,
                "x": float(ex + dx),
                "y": float(ey + dy),
                "time": start + 0.01 * (len(reports) + 1),
            })
        return reports, start + 1.0, (float(ex), float(ey))


@dataclass
class ClientLog:
    """What one client thread sent, got back, and how long each took."""

    latencies: List[float] = field(default_factory=list)
    routes: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    reports: int = 0
    # tenant -> [(op, args, response)]; tenants with a failed request
    # are left out of the replay.
    ops: Dict[int, list] = field(default_factory=dict)
    tainted: set = field(default_factory=set)
    windows: List[Tuple[Tuple[float, float], list]] = field(default_factory=list)


class _Client:
    def __init__(self, port: int, log: ClientLog) -> None:
        self.port = port
        self.log = log
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def request(self, route: str, method: str, path: str, body=None):
        """One timed request; the decoded 2xx body, or None on failure."""
        log = self.log
        log.attempted += 1
        log.routes[route] = log.routes.get(route, 0) + 1
        data = None if body is None else json.dumps(body).encode("utf-8")
        start = time.perf_counter()
        try:
            self.conn.request(
                method, path, body=data, headers=HEADERS if data else {}
            )
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            log.failed += 1
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=30
            )
            return None
        log.latencies.append(time.perf_counter() - start)
        if not 200 <= response.status < 300:
            log.failed += 1
            return None
        try:
            return json.loads(raw)
        except ValueError:
            log.failed += 1
            return None


def run_client(
    port: int, traffic: Traffic, tenants: List[int], log: ClientLog
) -> None:
    """Closed loop: every window of every one of ``tenants``, round-robin."""
    mix = traffic.mix
    client = _Client(port, log)
    keys = {t: f"t{t}" for t in tenants}
    cursor = {t: 0 for t in tenants}
    try:
        for index in range(mix.windows):
            for tenant in tenants:
                ops = log.ops.setdefault(tenant, [])
                base = f"/v1/sessions/{keys[tenant]}"

                def call(route, method, path, body, op, args):
                    out = client.request(route, method, base + path, body)
                    if out is None:
                        log.tainted.add(tenant)
                    ops.append((op, args, out))
                    return out

                reports, close_time, truth = traffic.window(tenant, index)
                log.reports += len(reports)
                call("reports", "POST", "/reports", {"reports": reports},
                     "reports", reports)
                closed = call("close", "POST", "/close", {"time": close_time},
                              "close", close_time)
                if closed is not None:
                    log.windows.append((truth, closed["decisions"]))
                done = index + 1
                if done % mix.read_every == 0:
                    call("ti", "GET", "/ti", None, "ti", None)
                    got = call(
                        "decisions", "GET", f"/decisions?since={cursor[tenant]}",
                        None, "decisions", cursor[tenant],
                    )
                    if got is not None and got["decisions"]:
                        cursor[tenant] = got["decisions"][-1]["decision_id"]
                if done == mix.migrate_after and mix.migrates(tenant):
                    state = call("state_get", "GET", "/state", None, "state", None)
                    if state is not None:
                        new_key = f"{keys[tenant]}.m{done}"
                        out = client.request(
                            "state_put", "PUT", f"/v1/sessions/{new_key}/state",
                            state,
                        )
                        if out is None:
                            log.tainted.add(tenant)
                        ops.append(("migrate", (new_key, state), out))
                        keys[tenant] = new_key
    finally:
        client.conn.close()


def drive(port: int, traffic: Traffic) -> Tuple[List[ClientLog], float]:
    """Run the pass's traffic from the client pair; their logs and the wall time."""
    logs = [ClientLog() for _ in range(CLIENTS)]
    tenants = range(traffic.mix.tenants)
    threads = [
        threading.Thread(
            target=run_client,
            args=(port, traffic, list(tenants[i::CLIENTS]), log),
        )
        for i, log in enumerate(logs)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return logs, time.perf_counter() - start


def _json(value):
    """The value as the server would have serialised it."""
    return json.loads(json.dumps(value))


def replay(logs: List[ClientLog], factory) -> Tuple[int, List[str]]:
    """Re-run every clean tenant's requests in-process.

    Returns ``(responses checked, mismatch descriptions)``.
    """
    checked = 0
    mismatches: List[str] = []
    for log in logs:
        for tenant, ops in log.ops.items():
            if tenant in log.tainted:
                continue
            session = factory(str(tenant))
            for op, args, response in ops:
                if op == "reports":
                    accepted = sum(
                        session.ingest(r["node"], x=r["x"], y=r["y"], time=r["time"])
                        for r in args
                    )
                    expected = {
                        "accepted": accepted,
                        "dropped": len(args) - accepted,
                        "pending": session.pending_reports(),
                    }
                elif op == "close":
                    closed = session.close_window(now=args)
                    log_docs = session.decision_log()
                    expected = {
                        "decisions": log_docs[len(log_docs) - len(closed):]
                    }
                elif op == "ti":
                    expected = {
                        "tis": {str(n): ti for n, ti in sorted(session.tis().items())}
                    }
                elif op == "decisions":
                    expected = {
                        "decisions": [
                            d for d in session.decision_log()
                            if d["decision_id"] > args
                        ]
                    }
                elif op == "state":
                    expected = session.export_state()
                else:  # migrate: continue under the new key from the doc
                    new_key, state = args
                    session = factory(new_key)
                    session.import_state(state)
                    expected = {"imported": new_key}
                checked += 1
                if _json(expected) != response:
                    mismatches.append(f"tenant {tenant} {op}")
    return checked, mismatches


def _tenant_ops(logs: List[ClientLog]) -> Dict[int, list]:
    return {t: ops for log in logs for t, ops in log.ops.items()}


def mix_summary(logs: List[ClientLog]) -> Dict[int, Dict[str, int]]:
    """Per tenant: windows closed, reads, migrations, windows after migrating,
    and reads whose cursor had moved past 0."""
    out = {}
    for tenant, ops in sorted(_tenant_ops(logs).items()):
        names = [op for op, _, _ in ops]
        moved = names.index("migrate") if "migrate" in names else len(names)
        out[tenant] = {
            "windows": names.count("close"),
            "reads": names.count("decisions"),
            "migrations": names.count("migrate"),
            "windows_after_migrating": names[moved:].count("close"),
            "advanced_reads": sum(
                op == "decisions" and args > 0 for op, args, _ in ops
            ),
        }
    return out


def mix_problems(logs: List[ClientLog], mix: Mix) -> List[str]:
    """How the pass's requests differ from ``mix`` (empty when they match)."""
    summary = mix_summary(logs)
    problems = []
    attempted = sum(log.attempted for log in logs)
    if attempted != mix.requests():
        problems.append(f"{attempted} requests, not {mix.requests()}")
    if sorted(summary) != list(range(mix.tenants)):
        problems.append(f"tenants {sorted(summary)}")
    for tenant, seen in summary.items():
        migrates = mix.migrates(tenant)
        expected = {
            "windows": mix.windows,
            "reads": mix.windows // mix.read_every,
            "migrations": int(migrates),
            "windows_after_migrating": (
                mix.windows - mix.migrate_after if migrates else 0
            ),
        }
        for key, value in expected.items():
            if seen[key] != value:
                problems.append(f"tenant {tenant}: {seen[key]} {key}, not {value}")
    return problems


def digest(logs: List[ClientLog]) -> str:
    """SHA-256 of every response, by tenant: equal for equal traffic."""
    doc = [
        [tenant, [response for _, _, response in ops]]
        for tenant, ops in sorted(_tenant_ops(logs).items())
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def verdict_digest(windows: List[Tuple[Tuple[float, float], list]]) -> str:
    """SHA-256 of what :func:`accuracy` scores: each window's verdicts."""
    doc = [
        [truth, [[d["occurred"], d["location"]] for d in decisions]]
        for truth, decisions in windows
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def accuracy(
    windows: List[Tuple[Tuple[float, float], list]], r_error: float
) -> float:
    """Share of windows with an upheld decision within ``r_error`` of truth."""
    hits = sum(
        any(
            d["occurred"]
            and d["location"] is not None
            and math.dist(d["location"], truth) <= r_error
            for d in decisions
        )
        for truth, decisions in windows
    )
    return hits / len(windows)
