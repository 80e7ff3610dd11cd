"""Run-wide metrics registry: counters, gauges, histograms, timers.

The registry is the numeric side of the observability layer (the
:mod:`repro.obs.spans` log is the event side).  Hot points across
the stack -- the radio channel, the CTI voter, the cluster head, the
sweep runner -- hold a registry reference and record into *named
instruments*:

* :class:`Counter` -- monotonically increasing event tallies
  (``radio.sent``, ``ch.decision.occurred``).
* :class:`Gauge` -- last-value measurements (``des.events_fired``).
* :class:`Histogram` -- distributions with exact count/sum/min/max and
  quantiles over a bounded sample reservoir (``trust.vote.margin``).
* :class:`Timer` -- a histogram of elapsed seconds with a context
  manager (``trust.vote.wall``).

Zero-overhead disabled path
---------------------------
Like the disabled span collector (:data:`repro.obs.spans.NULL_SPANS`),
a disabled registry (:data:`NULL_REGISTRY`, the sweep-runner default)
costs callers one attribute check: every emit site is written as::

    m = sim.metrics
    if m.enabled:
        m.counter("radio.sent").inc()

so thousands-of-runs sweeps never pay for instruments nobody reads.
Calling ``counter()`` / ``gauge()`` / ... on a disabled registry is
also safe -- it returns a shared no-op instrument -- but the guarded
form above is the hot-path convention.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "TRUNCATED_COUNTER",
    "Timer",
]


#: Histograms retain at most this many raw observations for quantile
#: estimation; count/sum/min/max stay exact past the cap.
_RESERVOIR_MAX = 8192

#: Counter name under which :meth:`MetricsRegistry.snapshot` reports
#: how many histogram/timer reservoirs overflowed -- quantiles in those
#: snapshots cover only the first :data:`_RESERVOIR_MAX` samples, and a
#: metrics reader should not have to scan every record for the
#: ``truncated`` flag to notice.
TRUNCATED_COUNTER = "obs.reservoir.truncated"


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the tally."""
        self.value += n

    def snapshot(self) -> Dict[str, object]:
        return {"name": self.name, "type": self.kind, "value": self.value}


class Gauge:
    """A last-value measurement."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value of the measured quantity."""
        self.value = float(value)

    def snapshot(self) -> Dict[str, object]:
        return {"name": self.name, "type": self.kind, "value": self.value}


class Histogram:
    """A distribution with exact aggregates and reservoir quantiles.

    ``count``/``sum``/``min``/``max`` are exact over every observation;
    quantiles are computed from the first :data:`_RESERVOIR_MAX` raw
    samples (``truncated`` flags when the reservoir overflowed).
    """

    __slots__ = ("name", "count", "sum", "min", "max", "_samples")

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < _RESERVOIR_MAX:
            self._samples.append(value)

    @property
    def mean(self) -> float:
        """Mean over every observation; ``nan`` when empty.

        A mean of nothing is undefined, and a silent 0.0 reads as a
        real measurement in downstream comparisons -- NaN propagates
        through arithmetic and fails every ordering check, so misuse
        surfaces instead of skewing a report.  ``snapshot()`` omits the
        field entirely for empty histograms (NaN is not strict JSON).
        """
        return self.sum / self.count if self.count else math.nan

    @property
    def truncated(self) -> bool:
        """True when quantiles no longer cover every observation."""
        return self.count > len(self._samples)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile from the retained samples.

        Raises ``ValueError`` when the histogram is empty: there is no
        sample to rank, and any sentinel would masquerade as data.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            raise ValueError(
                f"quantile of empty {self.kind} {self.name!r}"
            )
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)
        return ordered[max(0, rank)]

    def snapshot(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
        }
        if self.count:
            out["mean"] = self.mean
            out["min"] = self.min
            out["max"] = self.max
            out["p50"] = self.quantile(0.5)
            out["p90"] = self.quantile(0.9)
            out["p99"] = self.quantile(0.99)
        if self.truncated:
            out["truncated"] = True
        return out


class Timer(Histogram):
    """A histogram of elapsed wall-clock seconds.

    Use either ``observe(seconds)`` directly or the ``time()`` context
    manager::

        with registry.timer("sweep.task.wall").time():
            task.run()
    """

    __slots__ = ()

    kind = "timer"

    def time(self) -> "_TimerContext":
        return _TimerContext(self)


class _TimerContext:
    __slots__ = ("_timer", "_start")

    def __init__(self, timer: Timer) -> None:
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._timer.observe(time.perf_counter() - self._start)


class _NullInstrument:
    """Shared sink for every instrument request on a disabled registry."""

    __slots__ = ()

    name = "<null>"
    kind = "null"
    value = 0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self) -> "_NullTimerContext":
        return _NULL_TIMER_CONTEXT


class _NullTimerContext:
    __slots__ = ()

    def __enter__(self) -> "_NullTimerContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()
_NULL_TIMER_CONTEXT = _NullTimerContext()


class MetricsRegistry:
    """A namespace of named instruments with a no-op disabled state.

    Parameters
    ----------
    enabled:
        When False, every ``counter()`` / ``gauge()`` / ``histogram()``
        / ``timer()`` call returns a shared no-op instrument and the
        registry serialises to nothing.  Emit sites should check
        ``registry.enabled`` first so the disabled path is a single
        attribute read (the contract the disabled-path micro-bench in
        ``benchmarks/test_bench_kernel_throughput.py`` guards).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, factory: Callable[[str], object]) -> object:
        if not self.enabled:
            return _NULL_INSTRUMENT
        found = self._instruments.get(name)
        if found is None:
            found = factory(name)
            self._instruments[name] = found
        elif type(found) is not factory:
            raise ValueError(
                f"instrument {name!r} already registered as "
                f"{type(found).__name__}, requested {factory.__name__}"
            )
        return found

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first request)."""
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first request)."""
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name`` (created on first request)."""
        return self._get(name, Histogram)  # type: ignore[return-value]

    def timer(self, name: str) -> Timer:
        """The timer named ``name`` (created on first request)."""
        return self._get(name, Timer)  # type: ignore[return-value]

    def names(self) -> List[str]:
        """Registered instrument names, sorted."""
        return sorted(self._instruments)

    def truncated_names(self) -> List[str]:
        """Names of histograms/timers whose quantile reservoir overflowed."""
        return [
            name
            for name in self.names()
            if getattr(self._instruments[name], "truncated", False)
        ]

    def snapshot(self) -> List[Dict[str, object]]:
        """One serialisable record per instrument, sorted by name.

        These records are the ``metrics.jsonl`` lines; see
        :mod:`repro.obs.export` for the schema.  When any reservoir has
        overflowed, the :data:`TRUNCATED_COUNTER` counter is set to the
        overflow count first, so truncation shows up as a first-class
        record rather than only as per-histogram flags.
        """
        truncated = self.truncated_names()
        if truncated:
            # Assignment, not inc(): the overflow count is recomputed
            # from scratch each snapshot and only ever grows.
            self.counter(TRUNCATED_COUNTER).value = len(truncated)
        return [
            self._instruments[name].snapshot() for name in self.names()
        ]

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({state}, instruments={len(self)})"


#: The shared disabled registry handed to everything that does not
#: opt into observability -- the metrics analogue of ``NULL_SPANS``.
NULL_REGISTRY = MetricsRegistry(enabled=False)
