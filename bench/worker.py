"""Child processes of the benchmark: one DES pass, or the HTTP server.

Every pass runs in a fresh interpreter, so set-up is paid (and measured)
each time and no memo carries over between passes.  The worker talks to
``run.py`` through JSON lines prefixed with ``BENCH`` on stdout:

``worker.py des --workload W --seed N --trace 0|1 [--smoke]``
    Imports, runs the workload's first task once untimed (filling the
    shared-topology memo), prints ``{"ready": true}``, then runs and times
    every task, probing host speed with :func:`workloads.reference` about
    ten times between tasks, and prints the pass result.

``worker.py serve --seed N --trace 0|1``
    Starts the service through ``repro.service.http_api.serve`` on an
    ephemeral port, prints ``{"port": N}``, serves until stdin closes,
    then prints its peak RSS, the manager's stats and the trace.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

import service_load  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


#: Host-speed probes spread evenly over a DES pass's runs (plus one at the end).
PROBES_PER_PASS = 10


def emit(doc: Dict[str, object]) -> None:
    print("BENCH " + json.dumps(doc), flush=True)


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Counters:
    """Counters read from the objects and values the wrappers saw."""

    def __init__(self) -> None:
        self.sims: Dict[int, object] = {}
        self.channels: Dict[int, object] = {}
        self.events = 0
        self.sent = 0
        self.delivered = 0
        self.binary_windows: List[int] = []
        self.location_windows: List[int] = []
        self.announcements = 0
        self.clusterings = 0
        self.multi_clusterings = 0

    def hooks(self):
        """``(notes, results)`` for :meth:`tracer.Tracer.install`."""
        session = "repro.service.session:TrustSession."
        radio = "repro.network.radio:RadioChannel."

        def see(store):
            return lambda args: store.__setitem__(id(args[0]), args[0])

        def sizes(store):
            return lambda args: store.append(len(args[1]))

        def clustered(value) -> None:
            self.clusterings += 1
            self.multi_clusterings += len(value) > 1

        def announced(value) -> None:
            self.announcements += value

        notes = {
            "repro.simkernel.simulator:Simulator.run": see(self.sims),
            radio + "unicast_batch": see(self.channels),
            radio + "unicast": see(self.channels),
            radio + "broadcast": see(self.channels),
            session + "decide_binary": sizes(self.binary_windows),
            session + "decide_rows": sizes(self.location_windows),
            session + "decide_reports": sizes(self.location_windows),
        }
        results = {
            target: clustered for target in tracing.LAYERS["clustering"]
        }
        results[radio + "broadcast"] = announced
        return notes, results

    def harvest(self) -> None:
        """Fold the finished run's simulators and channels into the totals."""
        self.events += sum(sim.events_fired for sim in self.sims.values())
        self.sent += sum(ch.sent for ch in self.channels.values())
        self.delivered += sum(ch.delivered for ch in self.channels.values())
        self.sims.clear()
        self.channels.clear()

    def clear(self) -> None:
        """Zero everything in place (the hooks hold these containers)."""
        self.sims.clear()
        self.channels.clear()
        self.binary_windows.clear()
        self.location_windows.clear()
        self.events = self.sent = self.delivered = self.announcements = 0
        self.clusterings = self.multi_clusterings = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "events": self.events,
            "sent": self.sent,
            "delivered": self.delivered,
            "announcements": self.announcements,
            "binary_windows": self.binary_windows,
            "location_windows": self.location_windows,
            "clusterings": self.clusterings,
            "multi_clusterings": self.multi_clusterings,
        }


def probe_host() -> float:
    """Seconds :func:`workloads.reference` takes right now."""
    gc.disable()  # the program's heap must not slow the probe
    start = time.perf_counter()
    workloads.reference()
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


class Trace:
    """The installed tracer, its counters and the per-call wrapper cost.

    The cost is calibrated on ``samples`` first (:func:`tracer.pair_costs`).
    With ``probe``, host speed is probed during calibration too, so that
    :meth:`doc` can rescale the cost to the host speed of the pass itself.
    """

    def __init__(
        self,
        samples: Sequence[Callable[[], object]],
        probe: Optional[Callable[[], float]] = None,
    ) -> None:
        self.counters = Counters()
        self.tracer = tracing.Tracer()
        notes, results = self.counters.hooks()
        costs: List[float] = []
        probes: List[float] = []
        for chunk, start in enumerate(range(0, len(samples), 4)):
            if probe is not None:
                probes.append(probe())
            costs += tracing.pair_costs(
                self.tracer, samples[start:start + 4], notes, results,
                traced_first=chunk % 2 == 1,
            )
        self.costs = costs
        self.reference_s = statistics.median(probes) if probes else None
        self.tracer.install(notes, results)
        self.tracer.reset()
        self.counters.clear()

    def doc(self, reference_s: Optional[float] = None) -> Dict[str, object]:
        """The pass's trace; ``reference_s`` is the pass's probe median.

        ``pair_costs_s`` are the calibration's per-sample costs at the
        pass's host speed, for pooling across passes.
        """
        scale = 1.0
        if reference_s is not None and self.reference_s:
            scale = workloads.speed_scale(self.reference_s, to_s=reference_s)
        costs = [cost * scale for cost in self.costs]
        cost = max(0.0, statistics.median(costs))
        return {
            **self.tracer.report(cost),
            "cost_s": cost,
            "pair_costs_s": costs,
            "counters": self.counters.as_dict(),
        }


def des_pass(args: argparse.Namespace) -> int:
    workloads.use_checkout_sources()
    tasks = workloads.des_tasks(args.workload, args.seed, args.smoke)
    try:
        tasks[0].run()  # warm-up: lazy imports, shared-topology memo
    except Exception:
        pass  # the timed run of the same task records the failure
    trace: Optional[Trace] = None
    if args.trace:
        # Every 4th run; every run of a short (self-test) list.
        sample = tasks[::4] if len(tasks) >= 32 else tasks
        trace = Trace([task.run for task in sample], probe_host)
    emit({"ready": True})

    times: List[float] = []
    accuracies: List[Optional[float]] = []
    references: List[float] = []
    clock = time.perf_counter
    probe_every = max(1, len(tasks) // PROBES_PER_PASS)
    for index, task in enumerate(tasks):
        if index % probe_every == 0:
            references.append(probe_host())
        start = clock()
        try:
            accuracy = task.run()
        except Exception:  # a failed run is counted, not fatal
            traceback.print_exc()
            accuracy = None
        times.append(clock() - start)
        accuracies.append(
            accuracy if workloads.valid_accuracy(accuracy) else None
        )
        if trace is not None:
            trace.counters.harvest()
    references.append(probe_host())
    doc: Dict[str, object] = {
        "times": times,
        "accuracies": accuracies,
        "reference_s": statistics.median(references),
        "rss_kib": peak_rss_kib(),
    }
    if trace is not None:
        doc["trace"] = trace.doc(doc["reference_s"])
    emit(doc)
    return 0


def serve(args: argparse.Namespace) -> int:
    workloads.use_checkout_sources()
    from repro.service.http_api import ServiceConfig, default_session_factory
    from repro.service.http_api import serve as make_service

    config = ServiceConfig()
    trace: Optional[Trace] = None
    if args.trace:
        # Calibrate on in-process windows of the same traffic: the session,
        # decision, clustering and trust calls that dominate the handlers.
        factory = default_session_factory(config)
        traffic = service_load.Traffic(
            args.seed, service_load.FULL, factory("calibration"),
            config.field_side,
        )
        windows = [traffic.window(0, w) for w in range(40)]

        def sample() -> None:
            session = factory("calibration")
            for reports, close_time, _ in windows:
                for r in reports:
                    session.ingest(r["node"], x=r["x"], y=r["y"], time=r["time"])
                session.close_window(now=close_time)

        trace = Trace([sample] * 8)
    server, manager = make_service(config, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    emit({"port": server.server_address[1]})
    sys.stdin.read()  # the benchmark closes stdin to stop the server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    doc: Dict[str, object] = {
        "rss_kib": peak_rss_kib(),
        "manager": manager.stats(),
    }
    if trace is not None:
        doc["trace"] = trace.doc()
    emit(doc)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_des = sub.add_parser("des")
    p_des.add_argument("--workload", choices=workloads.DES_WORKLOADS)
    p_des.add_argument("--seed", type=int, required=True)
    p_des.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_des.add_argument("--smoke", action="store_true")
    p_serve = sub.add_parser("serve")
    p_serve.add_argument("--seed", type=int, required=True)
    p_serve.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return des_pass(args) if args.command == "des" else serve(args)


if __name__ == "__main__":
    sys.exit(main())
