"""Declarative, deterministic fault plans.

A :class:`FaultPlan` is a serialisable timeline of failures to inject
into one simulation: channel-degradation windows (burst loss, delay
spikes, duplication, reordering via bounded positive jitter), node
crash/recover churn, cluster-head crashes with standby failover, and
network partitions.  Plans are pure data -- frozen dataclasses of
floats and int tuples -- so they pickle across the sweep worker
boundary and round-trip through JSON byte-for-byte.

Determinism contract
--------------------
All randomness drawn while *applying* a plan comes from the dedicated
``"chaos"`` stream of the run's :class:`~repro.simkernel.rng.RandomStreams`
(streams are mutually independent, so installing a plan never perturbs
the channel/event/sensor streams), and is drawn only while a window
with a random component is actually active.  Consequently:

* the **empty plan is bit-identical to no plan at all** -- the
  interceptor is consulted but never draws nor perturbs;
* a nonzero ``(plan, seed)`` pair replays to identical decisions, TIs
  and spans, serially or at any ``workers`` count.

The plan is applied through two mechanisms (§ the chaos design in
``docs/chaos.md``): a transmit interceptor installed via
:meth:`~repro.network.radio.RadioChannel.set_interceptor`, and
lifecycle events (crash / recover / failover) scheduled on the
simulator at priority ``LIFECYCLE_PRIORITY`` so they precede that
instant's traffic.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.radio import Intercept, RadioChannel
from repro.simkernel.simulator import Simulator

#: Lifecycle events (crash/recover/failover) fire before the same
#: instant's event rounds (priority -1) and ordinary traffic (0).
LIFECYCLE_PRIORITY = -2

_DELIVER_ONE = (0.0,)


def _check_finite(name: str, value: float) -> None:
    # Plan JSON is outside input and Python's json reads NaN and
    # Infinity: a NaN fails every comparison, so its window would never
    # apply, and an infinite time or delay schedules at t = inf.
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_start(name: str, start: float) -> None:
    _check_finite(f"{name}.start", start)
    if start < 0:
        raise ValueError(f"{name}.start must be non-negative, got {start}")


def _check_end(name: str, start: float, end: float) -> None:
    _check_finite(f"{name}.end", end)
    if end <= start:
        raise ValueError(
            f"{name}.end must exceed start, got [{start}, {end})"
        )


def _check_window(name: str, start: float, end: float) -> None:
    _check_start(name, start)
    _check_end(name, start, end)


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class ChannelWindow:
    """One channel-degradation window over ``[start, end)``.

    Attributes
    ----------
    loss_probability:
        Extra Bernoulli drop applied on top of the channel's natural
        loss (burst loss).
    extra_delay:
        Deterministic delay spike added to every delivery.
    jitter:
        Half-open bound of a uniform ``[0, jitter)`` random delay added
        per delivery.  Strictly positive offsets reorder deliveries
        relative to unperturbed traffic without ever scheduling a copy
        before its own send (the bug :class:`ChannelConfig` now rejects
        for natural jitter).
    duplicate_probability:
        Chance that a second copy of the message is delivered,
        ``extra_delay + jitter`` later than the first.
    senders / receivers:
        Restrict the window to these endpoint ids (``None`` = all).
    """

    start: float
    end: float
    loss_probability: float = 0.0
    extra_delay: float = 0.0
    jitter: float = 0.0
    duplicate_probability: float = 0.0
    senders: Optional[Tuple[int, ...]] = None
    receivers: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        _check_window("ChannelWindow", self.start, self.end)
        _check_prob("loss_probability", self.loss_probability)
        _check_prob("duplicate_probability", self.duplicate_probability)
        _check_finite("extra_delay", self.extra_delay)
        if self.extra_delay < 0:
            raise ValueError("extra_delay must be non-negative")
        _check_finite("jitter", self.jitter)
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.senders is not None:
            object.__setattr__(self, "senders", tuple(self.senders))
        if self.receivers is not None:
            object.__setattr__(self, "receivers", tuple(self.receivers))

    def applies(self, sender: int, receiver: int) -> bool:
        if self.senders is not None and sender not in self.senders:
            return False
        if self.receivers is not None and receiver not in self.receivers:
            return False
        return True


@dataclass(frozen=True)
class NodeOutage:
    """Crash ``node_id`` at ``start``; recover at ``end`` (None = never)."""

    node_id: int
    start: float
    end: Optional[float] = None

    def __post_init__(self) -> None:
        _check_start("NodeOutage", self.start)
        if self.end is not None:
            _check_end("NodeOutage", self.start, self.end)


@dataclass(frozen=True)
class ChCrash:
    """Crash the active cluster head at ``start``.

    With ``failover=True`` (§3.4 semantics) a standby head is promoted
    at the crash instant: it inherits the crashed head's trust state --
    exactly what a head's shadow mirror would hold -- and the cluster's
    nodes re-home to it.  Without failover the head simply recovers at
    ``end`` (None = never; the cluster is headless from ``start`` on).
    """

    start: float
    end: Optional[float] = None
    failover: bool = True

    def __post_init__(self) -> None:
        _check_start("ChCrash", self.start)
        if self.end is not None:
            _check_end("ChCrash", self.start, self.end)


@dataclass(frozen=True)
class PartitionWindow:
    """Cut traffic between node groups over ``[start, end)``.

    Endpoints listed in different groups cannot exchange messages while
    the window is active.  Endpoints not listed in any group (e.g. the
    CH or base station) bridge the partition -- they can still reach,
    and be reached by, everyone.  A node may appear in one group only.
    """

    start: float
    end: float
    groups: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        _check_window("PartitionWindow", self.start, self.end)
        groups = tuple(tuple(g) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        seen: set = set()
        for group in groups:
            overlap = seen & set(group)
            if overlap:
                raise ValueError(
                    f"node(s) {sorted(overlap)} appear in multiple "
                    "partition groups"
                )
            seen |= set(group)


@dataclass(frozen=True)
class FaultPlan:
    """A full, serialisable fault campaign timeline for one run."""

    name: str = "empty"
    windows: Tuple[ChannelWindow, ...] = ()
    outages: Tuple[NodeOutage, ...] = ()
    partitions: Tuple[PartitionWindow, ...] = ()
    ch_crashes: Tuple[ChCrash, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", tuple(self.windows))
        object.__setattr__(self, "outages", tuple(self.outages))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "ch_crashes", tuple(self.ch_crashes))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable description that :meth:`from_dict` inverts."""
        return {
            "name": self.name,
            "windows": [asdict(w) for w in self.windows],
            "outages": [asdict(o) for o in self.outages],
            "partitions": [asdict(p) for p in self.partitions],
            "ch_crashes": [asdict(c) for c in self.ch_crashes],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "FaultPlan":
        def build(klass, records):
            allowed = {f.name for f in fields(klass)}
            out = []
            for record in records or ():
                unknown = set(record) - allowed
                if unknown:
                    raise ValueError(
                        f"unknown {klass.__name__} field(s): "
                        f"{sorted(unknown)}"
                    )
                kwargs = dict(record)
                for key, value in kwargs.items():
                    if isinstance(value, list):
                        kwargs[key] = tuple(
                            tuple(v) if isinstance(v, list) else v
                            for v in value
                        )
                out.append(klass(**kwargs))
            return tuple(out)

        unknown = set(doc) - {
            "name", "windows", "outages", "partitions", "ch_crashes"
        }
        if unknown:
            raise ValueError(f"unknown FaultPlan field(s): {sorted(unknown)}")
        return cls(
            name=str(doc.get("name", "unnamed")),
            windows=build(ChannelWindow, doc.get("windows")),
            outages=build(NodeOutage, doc.get("outages")),
            partitions=build(PartitionWindow, doc.get("partitions")),
            ch_crashes=build(ChCrash, doc.get("ch_crashes")),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    def save(self, path) -> Path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(self.to_json() + "\n")
        return out

    # ------------------------------------------------------------------
    # Seeded generation
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        n_nodes: int,
        horizon: float,
        *,
        max_windows: int = 3,
        max_outages: int = 3,
        allow_partition: bool = True,
        name: Optional[str] = None,
    ) -> "FaultPlan":
        """A seeded arbitrary plan: same ``(seed, args)`` -> same plan.

        Used by campaign grids and the property suite to explore the
        failure space systematically without hand-writing timelines.
        """
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        rng = np.random.default_rng(seed)
        windows: List[ChannelWindow] = []
        for _ in range(int(rng.integers(0, max_windows + 1))):
            start = float(rng.uniform(0.0, horizon * 0.9))
            end = float(start + rng.uniform(horizon * 0.05, horizon * 0.5))
            windows.append(
                ChannelWindow(
                    start=start,
                    end=min(end, horizon),
                    loss_probability=float(rng.uniform(0.0, 0.9)),
                    extra_delay=float(rng.uniform(0.0, 0.5)),
                    jitter=float(rng.uniform(0.0, 0.2)),
                    duplicate_probability=float(rng.uniform(0.0, 0.5)),
                )
            )
        outages: List[NodeOutage] = []
        for _ in range(int(rng.integers(0, max_outages + 1))):
            start = float(rng.uniform(0.0, horizon * 0.9))
            recovers = bool(rng.random() < 0.7)
            outages.append(
                NodeOutage(
                    node_id=int(rng.integers(0, n_nodes)),
                    start=start,
                    end=(
                        float(start + rng.uniform(1.0, horizon * 0.4))
                        if recovers else None
                    ),
                )
            )
        partitions: Tuple[PartitionWindow, ...] = ()
        if allow_partition and n_nodes >= 4 and rng.random() < 0.5:
            ids = rng.permutation(n_nodes)
            cut = int(rng.integers(1, n_nodes))
            start = float(rng.uniform(0.0, horizon * 0.8))
            partitions = (
                PartitionWindow(
                    start=start,
                    end=float(
                        min(start + rng.uniform(1.0, horizon * 0.4), horizon)
                    ),
                    groups=(
                        tuple(int(i) for i in ids[:cut]),
                        tuple(int(i) for i in ids[cut:]),
                    ),
                ),
            )
        return cls(
            name=name if name is not None else f"random-{seed}",
            windows=tuple(windows),
            outages=tuple(outages),
            partitions=partitions,
        )


#: The canonical do-nothing plan.
EMPTY_PLAN = FaultPlan()


def builtin_plans(horizon: float, n_nodes: int) -> Dict[str, FaultPlan]:
    """Named reference plans scaled to a run of length ``horizon``.

    These are the campaign smoke points the CLI exposes; each stresses
    one failure family the related work highlights (burst regimes,
    dynamic fault regions, unreliable CHs).
    """
    third = horizon / 3.0
    churn = tuple(
        NodeOutage(
            node_id=i,
            start=third + i * (third / max(1, min(n_nodes, 5))),
            end=2 * third + i,
        )
        for i in range(min(n_nodes, 5))
    )
    return {
        "empty": FaultPlan(name="empty"),
        "burst-loss": FaultPlan(
            name="burst-loss",
            windows=(
                ChannelWindow(
                    start=third, end=2 * third, loss_probability=0.6
                ),
            ),
        ),
        "delay-spike": FaultPlan(
            name="delay-spike",
            windows=(
                ChannelWindow(
                    start=third, end=2 * third, extra_delay=0.4, jitter=0.1
                ),
            ),
        ),
        "dup-reorder": FaultPlan(
            name="dup-reorder",
            windows=(
                ChannelWindow(
                    start=third,
                    end=2 * third,
                    duplicate_probability=0.5,
                    jitter=0.2,
                ),
            ),
        ),
        "node-churn": FaultPlan(name="node-churn", outages=churn),
        "partition": FaultPlan(
            name="partition",
            partitions=(
                PartitionWindow(
                    start=third,
                    end=2 * third,
                    groups=(
                        tuple(range(0, n_nodes // 2)),
                        tuple(range(n_nodes // 2, n_nodes)),
                    ),
                ),
            ),
        ),
        "ch-crash": FaultPlan(
            name="ch-crash",
            ch_crashes=(ChCrash(start=horizon / 2.0, failover=True),),
        ),
    }


class ChaosController:
    """Applies one :class:`FaultPlan` to a live simulation.

    Parameters
    ----------
    plan:
        The timeline to apply.
    sim / channel:
        The run's simulator and radio channel.
    node_resolver:
        ``node_id -> NetworkNode`` for outage targets (the channel's
        registry by default).
    ch_crash / ch_recover:
        Callbacks the harness provides for :class:`ChCrash` elements
        (killing the CH endpoint, promoting a standby, reviving).
        Required only when the plan contains CH crashes.
    """

    def __init__(
        self,
        plan: FaultPlan,
        sim: Simulator,
        channel: RadioChannel,
        *,
        node_resolver: Optional[Callable[[int], object]] = None,
        ch_crash: Optional[Callable[[ChCrash], None]] = None,
        ch_recover: Optional[Callable[[ChCrash], None]] = None,
    ) -> None:
        self.plan = plan
        self._sim = sim
        self._channel = channel
        self._resolve = (
            node_resolver if node_resolver is not None else channel.node
        )
        self._ch_crash = ch_crash
        self._ch_recover = ch_recover
        self._rng = sim.streams.get("chaos")
        self._windows = tuple(plan.windows)
        self._partitions = tuple(plan.partitions)
        # Cheap activity pre-filter: outside [first_start, last_end) the
        # interceptor returns immediately without scanning windows.
        spans = [
            (w.start, w.end) for w in self._windows
        ] + [(p.start, p.end) for p in self._partitions]
        self._active_from = min((s for s, _ in spans), default=0.0)
        self._active_until = max((e for _, e in spans), default=0.0)
        self._group_of: Dict[int, Dict[int, int]] = {
            i: {
                node: g
                for g, group in enumerate(p.groups)
                for node in group
            }
            for i, p in enumerate(self._partitions)
        }
        self.installed = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "ChaosController":
        """Install the interceptor and schedule every lifecycle event."""
        if self.installed:
            raise RuntimeError("controller already installed")
        self.installed = True
        if self._windows or self._partitions:
            self._channel.set_interceptor(self._intercept)
        for outage in self.plan.outages:
            self._sim.at(
                outage.start, self._kill_node, outage.node_id,
                priority=LIFECYCLE_PRIORITY,
            )
            if outage.end is not None:
                self._sim.at(
                    outage.end, self._revive_node, outage.node_id,
                    priority=LIFECYCLE_PRIORITY,
                )
        for crash in self.plan.ch_crashes:
            if self._ch_crash is None:
                raise ValueError(
                    "plan contains ChCrash elements but no ch_crash "
                    "callback was provided"
                )
            self._sim.at(
                crash.start, self._ch_crash, crash,
                priority=LIFECYCLE_PRIORITY,
            )
            if crash.end is not None and not crash.failover:
                if self._ch_recover is None:
                    raise ValueError(
                        "plan recovers a crashed CH but no ch_recover "
                        "callback was provided"
                    )
                self._sim.at(
                    crash.end, self._ch_recover, crash,
                    priority=LIFECYCLE_PRIORITY,
                )
        return self

    # ------------------------------------------------------------------
    # Lifecycle callbacks
    # ------------------------------------------------------------------
    def _kill_node(self, node_id: int) -> None:
        node = self._resolve(node_id)
        node.kill()
        spans = self._sim.spans
        if spans.enabled:
            spans.point("chaos.crash", parent=spans.current, node=node_id)
        metrics = self._sim.metrics
        if metrics.enabled:
            metrics.counter("chaos.crash").inc()

    def _revive_node(self, node_id: int) -> None:
        node = self._resolve(node_id)
        node.revive()
        spans = self._sim.spans
        if spans.enabled:
            spans.point("chaos.recover", parent=spans.current, node=node_id)
        metrics = self._sim.metrics
        if metrics.enabled:
            metrics.counter("chaos.recover").inc()

    # ------------------------------------------------------------------
    # Transmit interception
    # ------------------------------------------------------------------
    def _intercept(
        self, sender: int, receiver: int, now: float
    ) -> Optional[Intercept]:
        if not self._active_from <= now < self._active_until:
            return None
        for i, partition in enumerate(self._partitions):
            if partition.start <= now < partition.end:
                groups = self._group_of[i]
                gs = groups.get(sender)
                gr = groups.get(receiver)
                if gs is not None and gr is not None and gs != gr:
                    return self._drop("partition")
        extra = 0.0
        duplicate = False
        perturbed = False
        for window in self._windows:
            if not window.start <= now < window.end:
                continue
            if not window.applies(sender, receiver):
                continue
            if (
                window.loss_probability > 0.0
                and self._rng.random() < window.loss_probability
            ):
                return self._drop("burst-loss")
            if window.extra_delay > 0.0:
                extra += window.extra_delay
                perturbed = True
            if window.jitter > 0.0:
                extra += float(self._rng.uniform(0.0, window.jitter))
                perturbed = True
            if (
                window.duplicate_probability > 0.0
                and self._rng.random() < window.duplicate_probability
            ):
                duplicate = True
                perturbed = True
        if not perturbed:
            return None
        metrics = self._sim.metrics
        spans = self._sim.spans
        if duplicate:
            if metrics.enabled:
                metrics.counter("chaos.duplicate").inc()
            if spans.enabled:
                spans.point(
                    "chaos.intercept",
                    parent=spans.current,
                    action="duplicate",
                    sender=sender,
                    receiver=receiver,
                    extra=extra,
                )
            # The copy trails the first delivery by the same combined
            # perturbation again (deterministic given the draws above).
            return Intercept(False, (extra, extra + max(extra, 1e-9)))
        if metrics.enabled:
            metrics.counter("chaos.delay").inc()
        if spans.enabled:
            spans.point(
                "chaos.intercept",
                parent=spans.current,
                action="delay",
                sender=sender,
                receiver=receiver,
                extra=extra,
            )
        return Intercept(False, (extra,))

    def _drop(self, why: str) -> Intercept:
        metrics = self._sim.metrics
        if metrics.enabled:
            metrics.counter(f"chaos.drop.{why}").inc()
        spans = self._sim.spans
        if spans.enabled:
            # Parent: whatever context scheduled the transmit (the
            # sender's handler); the matching radio.drop span follows
            # with reason "intercepted".
            spans.point(
                "chaos.intercept",
                parent=spans.current,
                action="drop",
                why=why,
            )
        return Intercept(True)
