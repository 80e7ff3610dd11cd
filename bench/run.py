#!/usr/bin/env python3
"""The benchmark every performance claim in this repository is measured with.

Usage, from the repository root::

    python3 bench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
    python3 bench/run.py [--seed N] [--seconds S] [--smoke]
    python3 bench/run.py compare A B

The first form makes one run of one workload.  It prints every metric by
name with its unit, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The second form runs every workload untraced and then traced, passes
interleaved round-robin across workloads.  Both write their results under
``bench/results/<commit>/`` and exit 1 if any run had a failed operation
or output check; ``compare`` sets two such directories side by side.
Metric names, units and bounds come from ``BENCHMARK.json``;
``bench/README.md`` defines each one.

A run is a series of passes, each in a fresh worker process (see
``worker.py``), until ``--seconds`` of passes and at least three untraced
passes are done.  A traced run alternates untraced and traced passes
until ``--seconds`` and at least two of each are done.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import service_load  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

RESULTS = BENCH / "results"
MIN_UNTRACED_PASSES = 3
WORKER_LIMIT_S = 150.0


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def load_spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
class Worker:
    """A ``worker.py`` child; killed if it outlives ``WORKER_LIMIT_S``."""

    def __init__(self, *argv: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *argv],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._timer = threading.Timer(WORKER_LIMIT_S, self.proc.kill)
        self._timer.daemon = True
        self._timer.start()

    def read(self) -> Dict[str, object]:
        """The worker's next message."""
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if line.startswith("BENCH "):
                return json.loads(line[len("BENCH "):])
        raise BenchError(
            f"worker exited with {self.proc.wait()} before answering"
        )

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()
        self.proc.wait()


def des_pass(
    workload: str, seed: int, traced: bool, smoke: bool
) -> Dict[str, object]:
    start = time.perf_counter()
    argv = ["des", "--workload", workload, "--seed", str(seed),
            "--trace", str(int(traced))] + (["--smoke"] if smoke else [])
    with Worker(*argv) as worker:
        worker.read()
        setup = time.perf_counter() - start
        doc = worker.read()
    doc.update(traced=traced, setup_s=setup)
    doc["wall_s"] = time.perf_counter() - start
    return doc


def _wait_healthy(port: int, limit_s: float = 30.0) -> None:
    deadline = time.perf_counter() + limit_s
    while True:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            if conn.getresponse().status == 200:
                return
        except OSError:
            pass
        finally:
            conn.close()
        if time.perf_counter() > deadline:
            raise BenchError("service never answered /healthz")
        time.sleep(0.005)


def service_pass(traffic, traced: bool) -> Dict[str, object]:
    start = time.perf_counter()
    argv = ["serve", "--seed", str(traffic.seed), "--trace", str(int(traced))]
    with Worker(*argv) as worker:
        port = worker.read()["port"]
        _wait_healthy(port)
        setup = time.perf_counter() - start
        logs, wall = service_load.drive(port, traffic)
        assert worker.proc.stdin is not None
        worker.proc.stdin.close()
        doc = worker.read()
    doc.update(traced=traced, setup_s=setup, logs=logs, load_wall_s=wall)
    doc["wall_s"] = time.perf_counter() - start
    return doc


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles`` inclusive)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_metrics(samples_s: Sequence[float]) -> Dict[str, float]:
    return {
        "p50_ms": 1e3 * quantile(samples_s, 0.50),
        "p95_ms": 1e3 * quantile(samples_s, 0.95),
    }


def median_by_key(docs: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(d[key] for d in docs) for key in docs[0]}


# ----------------------------------------------------------------------
# Per-layer metrics from a traced pass
# ----------------------------------------------------------------------
def _calls(trace: Dict[str, object], targets: Sequence[str]) -> int:
    calls = trace["calls"]
    return sum(calls.get(target, 0) for target in targets)  # type: ignore[union-attr]


def layer_metrics(
    trace: Dict[str, object],
    wall_s: float,
    wait_s: float = 0.0,
    manager: Optional[Dict[str, int]] = None,
) -> Dict[str, float]:
    """Self-time shares and counters of one traced pass.

    ``wall_s`` is the pass's measured time (DES: summed run times; HTTP:
    summed client latencies); shares are of it less the calibrated
    wrapper cost.  ``wait_s`` is the HTTP client's waiting time outside
    the server's handlers.
    """
    cost = trace["cost_s"]
    corrected = wall_s - cost * trace["wrapped_calls"]
    self_s = trace["self_s"]
    counters = trace["counters"]
    out: Dict[str, float] = {
        name + ("_share" if name.startswith("harness.") else ".self_share"):
            seconds / corrected
        for name, seconds in self_s.items()
    }
    out["http.wait_share"] = wait_s / corrected
    out["other.self_share"] = (
        corrected - wait_s - sum(self_s.values())
    ) / corrected
    out["trace.wrapped_calls"] = trace["wrapped_calls"]
    out["trace.call_cost_ns"] = 1e9 * cost

    trust = "repro.core.trust:TrustTable."
    location = counters["location_windows"]
    windows = counters["binary_windows"] + location
    out.update({
        "simkernel.events": counters["events"],
        "radio.sent": counters["sent"],
        "radio.delivered_frac": (
            counters["delivered"] / counters["sent"] if counters["sent"] else 0.0
        ),
        "topology.queries": _calls(trace, tracing.LAYERS["topology"]),
        "sensors.reports": _calls(trace, tracing.LAYERS["sensors"][:3]),
        "sensors.announcements": counters["announcements"],
        "clusterctl.elections": _calls(
            trace, ("repro.clusterctl.leach:LeachElection.run_round",)
        ),
        "session.windows": len(windows),
        "session.reports": sum(windows),
        "decision.windows": _calls(trace, tracing.LAYERS["decision"]),
        "decision.rows_p50": quantile(location, 0.5) if location else 0.0,
        "decision.rows_max": max(location, default=0),
        "clustering.calls": counters["clusterings"],
        "clustering.multi_frac": (
            counters["multi_clusterings"] / counters["clusterings"]
            if counters["clusterings"] else 0.0
        ),
        "trust.votes": _calls(trace, (trust + "cti_vote",)),
        "trust.transfers": _calls(
            trace, (trust + "export_state", trust + "import_state")
        ),
        "http.requests": _calls(trace, tracing.LAYERS["http.server"]),
        "manager.created": (manager or {}).get("created", 0),
        "manager.resident": (manager or {}).get("sessions", 0),
    })
    return out


def overhead_metrics(
    traced: float, corrected: float, untraced: float
) -> Dict[str, float]:
    """Traced wall against untraced, before and after the wrapper cost."""
    return {
        "trace_overhead": traced / untraced - 1.0,
        "trace.corrected_error": corrected / untraced - 1.0,
    }


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
class Run:
    """Passes of one workload until the time budget and pass floor are met."""

    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: float,
        traced: bool,
        smoke: bool,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.smoke = smoke
        self.passes: List[Dict[str, object]] = []
        self.used_s = 0.0
        if workload == workloads.SERVICE_WORKLOAD:
            from repro.service.http_api import (
                ServiceConfig,
                default_session_factory,
            )

            self.service_config = ServiceConfig()
            self.factory = default_session_factory(self.service_config)
            self.traffic = service_load.Traffic(
                seed,
                service_load.SMOKE if smoke else service_load.FULL,
                self.factory("template"),
                self.service_config.field_side,
            )
        else:
            self.tasks = workloads.des_tasks(workload, seed, smoke)

    def _count(self, traced: bool) -> int:
        return sum(1 for p in self.passes if p["traced"] is traced)

    def done(self) -> bool:
        if self.used_s < self.seconds:
            return False
        if self.traced:
            return min(self._count(True), self._count(False)) >= 2
        return self._count(False) >= MIN_UNTRACED_PASSES

    def step(self) -> None:
        """Run the next pass: untraced and traced alternate when tracing."""
        traced = self.traced and self._count(True) < self._count(False)
        if self.workload == workloads.SERVICE_WORKLOAD:
            doc = service_pass(self.traffic, traced)
        else:
            doc = des_pass(self.workload, self.seed, traced, self.smoke)
        self.passes.append(doc)
        self.used_s += doc["wall_s"]

    def result(self) -> Dict[str, object]:
        if self.workload == workloads.SERVICE_WORKLOAD:
            return self._service_result()
        return self._des_result()

    # -- DES -------------------------------------------------------------
    def _des_result(self) -> Dict[str, object]:
        tasks = self.tasks
        events = sum(task.events for task in tasks)
        # Run times at the nominal host speed (see workloads.reference).
        for p in self.passes:
            p["scale"] = workloads.speed_scale(p["reference_s"])
            p["scaled"] = [t * p["scale"] for t in p["times"]]
        untraced = [p for p in self.passes if not p["traced"]]
        per_task = [
            statistics.median(p["scaled"][i] for p in untraced)
            for i in range(len(tasks))
        ]

        failed = sum(
            accuracy is None for p in self.passes for accuracy in p["accuracies"]
        )
        first = self.passes[0]["accuracies"]
        tibfit = [
            a for task, a in zip(tasks, first) if task.tibfit and a is not None
        ]
        accuracy = statistics.fmean(tibfit) if tibfit else 0.0
        digests = {
            hashlib.sha256(json.dumps(p["accuracies"]).encode()).hexdigest()
            for p in self.passes
        }
        checks = [("every pass (traced or not) gives identical accuracies",
                   len(digests) == 1)]
        if not self.smoke and not failed:
            checks += [
                (description, margin > 0)
                for description, margin in workloads.bands(
                    self.workload, workloads.accuracy_table(tasks, first)
                )
            ]
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in untraced),
            "throughput": events / sum(per_task),
            # Each run's time is its median over passes, so the percentile
            # does not move with the number of passes that fit the budget.
            **latency_metrics(per_task),
            "peak_rss_mb": statistics.median(
                p["rss_kib"] for p in untraced
            ) / 1024.0,
            "accuracy": accuracy,
        }
        per_pass = [
            {
                "setup_s": p["setup_s"],
                "throughput": events / sum(p["scaled"]),
                **latency_metrics(p["scaled"]),
                "peak_rss_mb": p["rss_kib"] / 1024.0,
                "accuracy": accuracy,
            }
            for p in untraced
        ]
        traced = [p for p in self.passes if p["traced"]]
        per_layer: Dict[str, float] = {}
        if traced:
            per_layer = median_by_key([
                layer_metrics(p["trace"], sum(p["times"])) for p in traced
            ])
            # Traced against untraced wall, as per-run medians at the
            # nominal host speed like the end-to-end metrics.
            traced_wall = sum(
                statistics.median(p["scaled"][i] for p in traced)
                for i in range(len(tasks))
            )
            # Calibration samples of every traced pass, at nominal speed.
            cost = statistics.median(
                c * p["scale"] for p in traced for c in p["trace"]["pair_costs_s"]
            )
            correction = max(0.0, cost) * statistics.median(
                p["trace"]["wrapped_calls"] for p in traced
            )
            per_layer.update(overhead_metrics(
                traced_wall, traced_wall - correction, sum(per_task)
            ))
        return {
            "attempted": len(tasks) * len(self.passes),
            "failed": failed,
            "checks": checks,
            "metrics": metrics,
            "per_layer": per_layer,
            "passes": per_pass,
            "samples": {
                "runs": len(tasks),
                "passes": len(untraced),
                "reference_ms": [1e3 * p["reference_s"] for p in self.passes],
            },
            "accuracy_digest": sorted(digests)[0],
            "layer_self_s": [p["trace"]["self_s"] for p in traced],
            "absent": sorted({a for p in traced for a in p["trace"]["absent"]}),
        }

    # -- HTTP service ----------------------------------------------------
    def _service_result(self) -> Dict[str, object]:
        untraced = [p for p in self.passes if not p["traced"]]
        mix = self.traffic.mix

        def windows(doc) -> list:
            return [w for log in doc["logs"] for w in log.windows]

        # Every pass sends the same requests (checked below), so the first
        # pass's windows score the run at any server speed.
        accuracy = service_load.accuracy(
            windows(self.passes[0]), self.service_config.r_error
        )

        def pass_metrics(doc) -> Dict[str, float]:
            logs = doc["logs"]
            ok = sum(log.attempted - log.failed for log in logs)
            return {
                "setup_s": doc["setup_s"],
                "throughput": ok / doc["load_wall_s"],
                **latency_metrics([x for log in logs for x in log.latencies]),
                "peak_rss_mb": doc["rss_kib"] / 1024.0,
                "accuracy": accuracy,
            }

        per_pass = [pass_metrics(p) for p in untraced]
        latencies = [x for p in untraced for log in p["logs"] for x in log.latencies]
        metrics = {
            "setup_s": statistics.median(d["setup_s"] for d in per_pass),
            "throughput": statistics.median(d["throughput"] for d in per_pass),
            **latency_metrics(latencies),
            "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in per_pass),
            "accuracy": accuracy,
        }
        checked = 0
        mismatches: List[str] = []
        off_mix: List[str] = []
        for p in self.passes:
            n, bad = service_load.replay(p["logs"], self.factory)
            checked += n
            mismatches += bad
            off_mix += service_load.mix_problems(p["logs"], mix)
        digests = {service_load.digest(p["logs"]) for p in self.passes}
        checks = [
            (f"{checked} HTTP responses equal the in-process replay",
             checked > 0 and not mismatches),
            (f"every pass sends the mix: {mix}", not off_mix),
            ("every pass (traced or not) gets identical responses",
             len(digests) == 1),
        ]
        routes: Dict[str, int] = {}
        for p in self.passes:
            for log in p["logs"]:
                for route, count in log.routes.items():
                    routes[route] = routes.get(route, 0) + count
        traced = [p for p in self.passes if p["traced"]]
        per_layer: Dict[str, float] = {}
        if traced:
            layers = []
            traced_wall = correction = 0.0
            count = 0
            for p in traced:
                trace = p["trace"]
                client = [x for log in p["logs"] for x in log.latencies]
                total = sum(client)
                wait = (
                    total - trace["top_level_s"]
                    - trace["cost_s"] * trace["top_level_calls"]
                )
                layers.append(layer_metrics(trace, total, wait, p["manager"]))
                traced_wall += total
                correction += trace["cost_s"] * trace["wrapped_calls"]
                count += len(client)
            per_layer = median_by_key(layers)
            # Mean latency per request, traced against untraced.
            per_layer.update(overhead_metrics(
                traced_wall / count,
                (traced_wall - correction) / count,
                sum(latencies) / len(latencies),
            ))
        tenants = service_load.mix_summary(self.passes[0]["logs"]).values()
        return {
            "attempted": sum(log.attempted for p in self.passes for log in p["logs"]),
            "failed": sum(log.failed for p in self.passes for log in p["logs"]),
            "checks": checks,
            "mismatches": mismatches[:20],
            "off_mix": off_mix[:20],
            "metrics": metrics,
            "per_layer": per_layer,
            "passes": per_pass,
            "samples": {
                "requests": len(latencies),
                "passes": len(untraced),
                "tenants": len(tenants),
                # Of the first pass, summed over its tenants.
                **{
                    key: sum(t[key] for t in tenants)
                    for key in ("windows", "reads", "migrations",
                                "windows_after_migrating", "advanced_reads")
                },
                "reports": sum(log.reports for log in self.passes[0]["logs"]),
                "routes": routes,
            },
            "accuracy_digest": service_load.verdict_digest(
                windows(self.passes[0])
            ),
            "layer_self_s": [p["trace"]["self_s"] for p in traced],
            "absent": sorted({a for p in traced for a in p["trace"]["absent"]}),
        }


# ----------------------------------------------------------------------
# Result keying, printing and files
# ----------------------------------------------------------------------
def _git(*argv: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *argv],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def header(args: argparse.Namespace) -> Dict[str, object]:
    """What the numbers depend on, after megaphone's ``current_commit()``."""
    import numpy

    toplevel = _git("rev-parse", "--show-toplevel")
    in_git = toplevel is not None and Path(toplevel).resolve() == ROOT
    status = _git("status", "--porcelain") if in_git else None
    return {
        "commit": _git("rev-parse", "HEAD") if in_git else None,
        "dirty": bool(status) if in_git else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("TIBFIT_")},
    }


def result_dir(head: Dict[str, object]) -> Path:
    if head["commit"] is None:
        return RESULTS / "nogit"
    return RESULTS / (str(head["commit"])[:12] + ("-dirty" if head["dirty"] else ""))


def contract_line(
    result: Dict[str, object], traced: bool, spec: Dict[str, object]
) -> Dict[str, object]:
    """The run's summary in the form the last output line carries."""
    catalogue = spec["per_layer"] if traced else spec["end_to_end"]
    values = result["per_layer"] if traced else result["metrics"]
    return {
        "correct": all(ok for _, ok in result["checks"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in catalogue
        },
    }


def print_run(workload: str, result: Dict[str, object], line: Dict[str, object]) -> None:
    print(f"== {workload}: {result['attempted']} attempted, "
          f"{result['failed']} failed, samples {json.dumps(result['samples'])}")
    for name, metric in line["metrics"].items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for description, ok in result["checks"]:
        print(f"  [{'ok' if ok else 'FAIL'}] {description}")
    for target in result["absent"]:
        print(f"  absent (not wrapped): {target}")


def save(head: Dict[str, object], workload: str, traced: bool,
         result: Dict[str, object]) -> Path:
    out_dir = result_dir(head)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "-smoke" if head["smoke"] else ""
    path = out_dir / f"{workload}-seed{head['seed']}-trace{int(traced)}{suffix}.json"
    doc = {"header": {**head, "workload": workload, "trace": traced}, **result}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def run_all(args: argparse.Namespace, names: Sequence[str]) -> int:
    """Runs of ``names``, passes interleaved round-robin; 0 if all correct
    and nothing failed."""
    spec = load_spec()
    workloads.use_checkout_sources()
    head = header(args)
    print("bench " + json.dumps(head), flush=True)
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    lines = {}
    for traced in traces:
        runs = [Run(w, args.seed, args.seconds, traced, args.smoke) for w in names]
        while not all(run.done() for run in runs):
            for run in runs:
                if not run.done():
                    run.step()
        for run in runs:
            result = run.result()
            line = contract_line(result, traced, spec)
            print_run(run.workload + (" (traced)" if traced else ""), result, line)
            print(f"  saved {save(head, run.workload, traced, result).relative_to(ROOT)}")
            lines[(run.workload, traced)] = line
    if len(lines) == 1:
        print(json.dumps(next(iter(lines.values()))))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "runs": {f"{w}/trace{int(t)}": line for (w, t), line in lines.items()},
        }))
    healthy = all(
        line["correct"] and line["failed"] == 0 for line in lines.values()
    )
    return 0 if healthy else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _side(path: str) -> Dict[str, Dict[str, object]]:
    """Per workload, the untraced results of a results directory.

    ``runs`` holds each run's headline metrics, ``passes`` the per-pass
    values of all of them, ``digests`` the accuracy digest of each seed,
    and ``faults`` what went wrong in any run, traced or not.
    """
    directory = Path(path)
    if not directory.is_dir():
        matches = sorted(RESULTS.glob(path + "*"))
        if len(matches) != 1:
            raise BenchError(f"{path}: not a results directory or unique key")
        directory = matches[0]
    out: Dict[str, Dict[str, object]] = {}
    for file in sorted(directory.glob("*-trace[01].json")):  # not -smoke
        doc = json.loads(file.read_text())
        side = out.setdefault(doc["header"]["workload"], {
            "runs": [], "passes": [], "digests": {}, "faults": [],
        })
        if doc["failed"]:
            side["faults"].append(f"{file.name}: {doc['failed']} failed")
        side["faults"] += [
            f"{file.name}: {description}"
            for description, ok in doc["checks"] if not ok
        ]
        if doc["header"]["trace"]:
            continue
        side["runs"].append(doc["metrics"])
        side["passes"].extend(doc["passes"])
        side["digests"][doc["header"]["seed"]] = doc["accuracy_digest"]
    if not any(side["runs"] for side in out.values()):
        raise BenchError(f"{directory}: no untraced results")
    return out


def compare(a: str, b: str) -> int:
    """Both sides per workload x metric, and whether B is within A's bound.

    The verdict compares the medians of the runs' headline values, the
    statistic the bounds are set for; the per-pass quartiles show the
    spread inside the runs.  Accuracy depends only on the seed, so at a
    seed both sides ran it must be identical (equal accuracy digests);
    the relative bound applies only across different seeds.  Any failed
    operation or output check on side B is a regression.
    """
    spec = load_spec()
    left, right = _side(a), _side(b)
    regressions = 0
    print(f"{'workload':<14}{'metric':<13}{'A (runs)':>14}{'A passes [q1, q3] (n)':>30}"
          f"{'B (runs)':>14}{'B passes [q1, q3] (n)':>30}{'change':>9}  verdict")
    for workload in [
        w for w in workloads.WORKLOADS
        if left.get(w, {}).get("runs") and right.get(w, {}).get("runs")
    ]:
        for side, label in ((left[workload], "A"), (right[workload], "B")):
            for fault in side["faults"]:
                print(f"{workload:<14}{label} {fault}"
                      + ("  WORSE" if label == "B" else ""))
            regressions += label == "B" and bool(side["faults"])
        da, db = left[workload]["digests"], right[workload]["digests"]
        seeds = sorted(set(da) & set(db))
        differ = [seed for seed in seeds if da[seed] != db[seed]]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            cells = []
            medians = []
            for side in (left[workload], right[workload]):
                med = statistics.median(run[name] for run in side["runs"])
                medians.append(med)
                passes = [p[name] for p in side["passes"]]
                cells.append(f"{med:.4g} ({len(side['runs'])})")
                cells.append(
                    f"{quantile(passes, 0.5):.4g} [{quantile(passes, 0.25):.4g}, "
                    f"{quantile(passes, 0.75):.4g}] ({len(passes)})"
                )
            change = medians[1] / medians[0] - 1.0
            worse = -change if metric["better"] == "higher" else change
            if name == "accuracy" and seeds:
                ok = not differ
                rule = (f"(differs at seed {differ[0]})" if differ
                        else f"(identical at {len(seeds)} common seed(s))")
            else:
                ok = worse <= metric["bound"]
                rule = f"(bound {metric['bound']:.0%})"
            verdict = "within bound" if ok else "WORSE"
            regressions += not ok
            print(f"{workload:<14}{name:<13}{cells[0]:>14}{cells[1]:>30}"
                  f"{cells[2]:>14}{cells[3]:>30}{change:>+9.1%}  {verdict} {rule}")
    return 1 if regressions else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench/run.py compare")
        parser.add_argument("a", help="results directory or commit key")
        parser.add_argument("b", help="results directory or commit key")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float,
                        default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="a few runs per DES workload (self-test scale)")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if args.workload and args.trace is None:
        args.trace = 0
    return run_all(args, names)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
