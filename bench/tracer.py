"""Exclusive per-layer self-times, measured from outside the program.

A traced pass rebinds public callables of each layer (looked up by name,
so a renamed or deleted one is reported as absent instead of crashing the
run) to wrappers that keep an exclusive-time stack: a call's self time is
its duration minus the time its wrapped children cover.

Each wrapped call also costs the wrapper's own bookkeeping, and that cost
lands in the *caller's* self time (or outside every layer for top-level
calls).  :func:`pair_costs` measures it once per traced pass on samples of
the pass's own work, and :meth:`Tracer.report` subtracts it once per
wrapped child call, so the corrected layer times sum to the corrected
traced wall time.

State is per thread (the HTTP server handles each connection on its own
thread); :meth:`Tracer.report` merges the threads.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layer -> wrapped targets, as ``module:attr.path``.  Functions imported by
#: value elsewhere are listed at each import site, as ``obs/profiling.py``
#: rebinds them, so every call path crosses exactly one wrapper.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "simkernel": ("repro.simkernel.simulator:Simulator.run",),
    "radio": (
        "repro.network.radio:RadioChannel.unicast_batch",
        "repro.network.radio:RadioChannel.unicast",
        "repro.network.radio:RadioChannel.broadcast",
    ),
    "topology": (
        "repro.network.topology:Deployment.event_neighbors",
        "repro.network.topology:Deployment.event_neighbors_array",
        "repro.network.topology:Deployment.event_neighbors_list",
    ),
    # SensorNode.on_message is left unwrapped: it runs once per node per
    # CH announcement (~2M times a pass) for ~0.3 us, so a wrapper there
    # would cost more than the work it times.  Its time stays in the
    # simkernel's delivery dispatch; the announcements are counted from
    # RadioChannel.broadcast's return value instead.
    "sensors": (
        "repro.sensors.node:SensorNode.compose_report",
        "repro.sensors.node:SensorNode.compose_false_alarm",
        "repro.sensors.node:SensorNode.sense_event",
        "repro.sensors.generator:EventGenerator.next_batch",
        "repro.sensors.generator:EventGenerator.next_event",
    ),
    "clusterctl.head": (
        "repro.clusterctl.head:ClusterHead.on_message",
        "repro.core.concurrent:CircleTracker.on_report_row",
        "repro.core.concurrent:CircleTracker.on_report",
        "repro.clusterctl.shadow:ShadowClusterHead.on_message",
    ),
    "clusterctl.leach": (
        "repro.clusterctl.leach:LeachElection.run_round",
        "repro.clusterctl.base_station:BaseStation.on_message",
    ),
    "harness.build": (
        "repro.experiments.harness:SimulationRun.build",
        "repro.clusterctl.simulation:RotatingClusterSimulation.__init__",
    ),
    "harness.score": (
        "repro.experiments.harness:SimulationRun.metrics",
        "repro.clusterctl.simulation:RotatingClusterSimulation.metrics",
    ),
    "session": tuple(
        f"repro.service.session:TrustSession.{name}"
        for name in (
            "decide_binary", "decide_rows", "decide_reports", "record",
            "sweep", "ingest", "close_window", "tis", "query_ti",
            "decision_log", "export_state", "import_state",
        )
    ),
    "decision": (
        "repro.core.decision_kernel:DecisionKernel.decide_rows",
        "repro.core.location:LocationDecisionEngine.decide",
    ),
    "clustering": (
        "repro.core.clustering:cluster_reports",
        "repro.core.clustering:cluster_reports_xy",
        "repro.core.clustering:cluster_reports_flat",
        "repro.core.location:cluster_reports",
        "repro.core.decision_kernel:cluster_reports_xy",
        "repro.core.decision_kernel:cluster_reports_flat",
    ),
    "trust": tuple(
        f"repro.core.trust:TrustTable.{name}"
        for name in (
            "cti_vote", "penalize_many", "reward_many", "penalize",
            "reward", "below_threshold", "export_state", "import_state",
        )
    ),
    "http.server": tuple(
        f"repro.service.http_api:TrustServiceHandler.do_{verb}"
        for verb in ("GET", "POST", "PUT")
    ),
}

OUTSIDE = "other"


def _resolve(target: str):
    """``(owner, attr, current value)`` for ``module:attr.path``."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    # A class attribute must be defined on that class itself: wrapping an
    # inherited one would shadow the base for this class only.
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class _ThreadState:
    __slots__ = ("times", "owners", "self_s", "child_calls", "calls")

    def __init__(self, n_layers: int, n_targets: int, outside: int) -> None:
        self.times = [0.0]  # [0] collects top-level inclusive time
        self.owners = [outside]
        self.self_s = [0.0] * n_layers
        self.child_calls = [0] * n_layers
        self.calls = [0] * n_targets


class Tracer:
    """Exclusive-time accounting over the wrapped layer entry points."""

    def __init__(self, layers: Dict[str, Tuple[str, ...]] = LAYERS) -> None:
        self.layer_names: List[str] = list(layers) + [OUTSIDE]
        self.targets: List[Tuple[str, str]] = [
            (layer, target)
            for layer, targets in layers.items()
            for target in targets
        ]
        self.absent: List[str] = []
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = _ThreadState(
            len(self.layer_names), len(self.targets), len(self.layer_names) - 1
        )
        with self._states_lock:
            self._states.append(state)
        self._local.state = state
        return state

    def wrap(
        self,
        slot: int,
        index: int,
        fn: Callable,
        note: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped to charge layer ``slot`` and count target ``index``.

        ``note(args)`` runs before the call and ``on_result(value)`` after
        it; both are for the few low-rate entry points whose arguments or
        results feed a counter.
        """
        local = self._local
        new_state = self._state
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            if note is not None:
                note(args)
            owners = state.owners
            times = state.times
            state.child_calls[owners[-1]] += 1
            state.calls[index] += 1
            owners.append(slot)
            times.append(0.0)
            start = clock()
            try:
                value = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                owners.pop()
                state.self_s[slot] += elapsed - times.pop()
                times[-1] += elapsed
            if on_result is not None:
                on_result(value)
            return value

        return functools.update_wrapper(wrapper, fn)

    def install(
        self,
        notes: Optional[Dict[str, Callable]] = None,
        results: Optional[Dict[str, Callable]] = None,
    ) -> None:
        """Rebind every target that exists; record the rest as absent.

        ``notes`` / ``results`` map a target name to its hook (see
        :meth:`wrap`).
        """
        notes = notes or {}
        results = results or {}
        self.absent = []
        for index, (layer, target) in enumerate(self.targets):
            try:
                owner, attr, current = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target)
                continue
            slot = self.layer_names.index(layer)
            self._restore.append((owner, attr, current))
            setattr(
                owner,
                attr,
                self.wrap(
                    slot, index, current, notes.get(target), results.get(target)
                ),
            )

    def uninstall(self) -> None:
        """Put every rebound callable back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        """Zero all accumulators (after a warm-up call)."""
        with self._states_lock:
            for state in self._states:
                n = len(state.self_s)
                state.times[0] = 0.0
                state.self_s[:] = [0.0] * n
                state.child_calls[:] = [0] * n
                state.calls[:] = [0] * len(state.calls)

    # -- results -------------------------------------------------------
    def report(self, call_cost_s: float) -> Dict[str, object]:
        """Merged, overhead-corrected per-layer self seconds and call counts.

        ``self_s[layer]`` has ``call_cost_s`` removed once per wrapped call
        made while that layer was innermost; ``top_level_s`` is the summed
        inclusive time of calls made outside every layer (the server's
        handler time, for the HTTP host).
        """
        n = len(self.layer_names)
        self_s = [0.0] * n
        child_calls = [0] * n
        calls = [0] * len(self.targets)
        top_level = 0.0
        with self._states_lock:
            for state in self._states:
                top_level += state.times[0]
                for i in range(n):
                    self_s[i] += state.self_s[i]
                    child_calls[i] += state.child_calls[i]
                for i, count in enumerate(state.calls):
                    calls[i] += count
        return {
            "self_s": {
                name: self_s[i] - call_cost_s * child_calls[i]
                for i, name in enumerate(self.layer_names[:-1])
            },
            "top_level_s": top_level,
            "top_level_calls": child_calls[-1],
            "wrapped_calls": sum(calls),
            "calls": {
                target: calls[i]
                for i, (_, target) in enumerate(self.targets)
                if target not in self.absent
            },
            "absent": list(self.absent),
        }


def pair_costs(
    tracer: Tracer,
    samples: Sequence[Callable[[], object]],
    notes: Optional[Dict[str, Callable]] = None,
    results: Optional[Dict[str, Callable]] = None,
    traced_first: bool = False,
) -> List[float]:
    """Seconds one wrapped call added to the code around it, per sample.

    The samples (slices of the real work) run once bare and once traced,
    as two blocks, so other samples run between a sample's two timings and
    neither finds the other's data in the caches, as in a real pass.
    Callers alternate ``traced_first`` and take the median of the returned
    traced-minus-bare times per wrapped call: one run hit by a burst of
    host contention then cannot skew it.  The tracer is left uninstalled.
    Timing wrapped no-op calls instead understates the cost 1.3-2x on the
    DES workloads.
    """
    clock = time.perf_counter
    bare: List[float] = []
    traced: List[Tuple[float, int]] = []
    for tracing in (True, False) if traced_first else (False, True):
        if tracing:
            tracer.install(notes, results)
        for sample in samples:
            tracer.reset()
            start = clock()
            sample()
            elapsed = clock() - start
            if tracing:
                traced.append((elapsed, tracer.report(0.0)["wrapped_calls"]))
            else:
                bare.append(elapsed)
        if tracing:
            tracer.uninstall()
    return [
        (elapsed - plain) / calls
        for plain, (elapsed, calls) in zip(bare, traced)
        if calls
    ]
