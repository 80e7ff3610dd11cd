"""The standalone trust session: one cluster's decision pipeline.

:class:`TrustSession` owns everything the paper's cluster head needs to
turn report streams into verdicts -- the :class:`~repro.core.trust.
TrustTable`, the CTI (or majority-baseline) voter, the location
decision kernel, and the TI-threshold
:class:`~repro.core.diagnosis.FaultDiagnoser` -- but none of what the
DES wraps around it: no simulator, no radio channel, no clock.  Callers
supply timestamps.

Two kinds of client drive the same object:

* **The service path** -- ``ingest(node_id, x, y, time)`` accumulates
  reports into the open collection window (binary senders, or
  ``(node_id, x, y, time)`` location rows); ``close_window(now)`` runs
  dedupe, the §2.1 implausibility gate, clustering, the CTI vote,
  trust updates, and the diagnosis sweep, appending
  :class:`DecisionRecord` entries.  ``replay_window`` loads a
  journalled window into the empty open window and closes it.
  ``query_ti`` / ``tis`` / ``diagnosed`` / ``decisions`` read the
  results.  ``export_state`` / ``import_state`` round-trip a session
  through JSON mid-stream.
* **The DES path** -- :class:`~repro.clusterctl.head.ClusterHead`
  embeds a session and calls the finer-grained ops (``decide_binary``,
  ``decide_rows``, ``record``, ``sweep``) so it can
  interleave its span/announce bookkeeping between them.  Both
  paths execute the identical decision code, which is what lets the
  differential replay suite pin service behaviour against the golden
  DES fixtures bit-for-bit.

Decision ids come from the session's own :class:`~repro.service.ids.
IdAllocator` unless one is injected: a DES run injects its own into
every head it installs, so ids stay unique across the run's heads.
Either way a session's ids are local to it, or to its run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.baseline import MajorityVoter
from repro.core.binary import CtiVoter
from repro.core.decision_kernel import ROW_ORDER, DecisionKernel, Row, Verdict
from repro.core.diagnosis import DiagnosisEntry, FaultDiagnoser
from repro.core.trust import TrustParameters, TrustTable
from repro.network.geometry import Point
from repro.network.topology import Deployment
from repro.service.ids import IdAllocator

__all__ = [
    "DecisionRecord",
    "SessionConfig",
    "TrustSession",
]


class DecisionRecord(NamedTuple):
    """One verdict with everything the metrics layer needs.

    A tuple record: one is built per verdict.
    """

    decision_id: int
    time: float
    occurred: bool
    location: Optional[Point]
    supporters: Tuple[int, ...]
    dissenters: Tuple[int, ...]


@dataclass(frozen=True)
class SessionConfig:
    """Behavioural knobs of one trust session, and of the cluster head
    that embeds one.

    The DES-only knobs, the ``t_out`` timer and announcements, are
    :class:`~repro.clusterctl.head.ClusterHead` arguments: a service
    session closes windows when told to.

    Attributes
    ----------
    mode:
        ``"binary"`` or ``"location"``.
    sensing_radius / r_error:
        ``r_s`` for event-neighbour determination and the localisation
        bound (location mode).
    trust:
        TI update parameters; ignored when ``use_trust`` is False.
    use_trust:
        True = TIBFIT (CTI voting), False = stateless majority baseline.
    diagnosis_threshold:
        Isolate nodes whose TI sinks below this; ``None`` disables
        diagnosis.  A baseline session (``use_trust`` False) keeps no
        trust to diagnose from, so it never diagnoses.
    journal:
        Record every closed window's raw inputs (see
        :meth:`TrustSession.journal_records`) for differential replay.
    """

    mode: str = "location"
    sensing_radius: float = 20.0
    r_error: float = 5.0
    trust: TrustParameters = field(default_factory=TrustParameters)
    use_trust: bool = True
    diagnosis_threshold: Optional[float] = None
    journal: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("binary", "location"):
            raise ValueError(
                f"mode must be 'binary' or 'location', got {self.mode!r}"
            )


class TrustSession:
    """One cluster's trust engine as a long-lived, DES-free object.

    Parameters
    ----------
    deployment:
        Positions of the cluster's nodes ("the node that is chosen to
        be the CH knows the topology of the cluster", §2).  Sessions
        never mutate the deployment, so many sessions may share one.
    config:
        See :class:`SessionConfig`.
    id_allocator:
        Decision-id source.  Defaults to a fresh private allocator so
        bare sessions are reproducible in isolation; a DES run injects
        its own to keep ids unique across its cluster heads.
    """

    def __init__(
        self,
        deployment: Deployment,
        config: SessionConfig = SessionConfig(),
        id_allocator: Optional[IdAllocator] = None,
    ) -> None:
        self.deployment = deployment
        self.config = config
        self.ids = id_allocator if id_allocator is not None else IdAllocator()

        self.trust = TrustTable(config.trust, deployment.node_ids())
        self.voter: Union[CtiVoter, MajorityVoter] = (
            CtiVoter(self.trust) if config.use_trust else MajorityVoter()
        )

        self.diagnoser: Optional[FaultDiagnoser] = None
        if config.use_trust and config.diagnosis_threshold is not None:
            self.diagnoser = FaultDiagnoser(
                self.trust, config.diagnosis_threshold
            )

        # Cluster membership for binary non-reporter partitions: every
        # deployed node, until ``import_state`` sets it.
        self.members: Tuple[int, ...] = deployment.node_ids()
        self.decisions: List[DecisionRecord] = []

        self.kernel: Optional[DecisionKernel] = None
        if config.mode == "location":
            self.kernel = DecisionKernel(
                deployment=deployment,
                sensing_radius=config.sensing_radius,
                r_error=config.r_error,
                voter=self.voter,
            )

        self._journal: Optional[List[Dict[str, object]]] = (
            [] if config.journal else None
        )
        # The open window of the ingest/close service path: senders in
        # binary mode, report rows in location mode.
        self._pending_rows: List[Row] = []
        self._pending_senders: List[int] = []
        self.windows_closed = 0

    # ------------------------------------------------------------------
    # Shared decision core (the DES cluster head calls these directly)
    # ------------------------------------------------------------------
    def excluded_nodes(self) -> Tuple[int, ...]:
        """The exclusion set the decision engines honour."""
        if self.diagnoser is None:
            return ()
        return self.diagnoser.diagnosed

    def is_excluded(self, node_id: int) -> bool:
        """Per-report twin of :meth:`excluded_nodes`."""
        return self.diagnoser is not None and self.diagnoser.is_excluded(
            node_id
        )

    def binary_partition(
        self, senders: Iterable[int]
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Split one binary window into (reporters, non-reporters).

        All cluster members are event neighbours (§3.1); diagnosed
        nodes drop out of the silent partition.
        """
        excluded = set(self.excluded_nodes())
        reporter_set = set(senders) - excluded
        reporters = tuple(sorted(reporter_set))
        non_reporters = tuple([
            m
            for m in self.members
            if m not in excluded and m not in reporter_set
        ])
        return reporters, non_reporters

    def decide_binary(
        self, senders: Sequence[int], now: float = 0.0
    ) -> List[Verdict]:
        """Partition and CTI-vote one closed binary window: its one
        verdict, in a list as :meth:`decide_rows` returns them."""
        senders = [int(s) for s in senders]
        if self._journal is not None:
            self._journal.append(
                {"mode": "binary", "time": now, "senders": senders}
            )
        reporters, non_reporters = self.binary_partition(senders)
        occurred = self.voter.decide(reporters, non_reporters)
        return [Verdict(occurred, None, reporters, non_reporters)]

    def decide_rows(
        self, rows: List[Row], now: float = 0.0
    ) -> List[Verdict]:
        """Decide one closed window of ``(node_id, x, y, time)`` rows,
        already in delivery order."""
        assert self.kernel is not None
        if self._journal is not None:
            self._journal.append({
                "mode": "location",
                "time": now,
                "rows": [list(row) for row in rows],
            })
        return self.kernel.decide_rows(
            rows, excluded_nodes=self.excluded_nodes()
        )

    def record(self, verdict: Verdict, now: float = 0.0) -> DecisionRecord:
        """Mint the next decision id and append one verdict to the log."""
        record = DecisionRecord(
            decision_id=next(self.ids),
            time=now,
            occurred=verdict.occurred,
            location=verdict.location,
            supporters=verdict.supporters,
            dissenters=verdict.dissenters,
        )
        self.decisions.append(record)
        return record

    def sweep(self, now: float = 0.0) -> List[DiagnosisEntry]:
        """Run one diagnosis sweep; no-op without a diagnoser."""
        if self.diagnoser is None:
            return []
        return self.diagnoser.sweep(now)

    # ------------------------------------------------------------------
    # Service API: ingest / close / query
    # ------------------------------------------------------------------
    def _node_id(self, value: object) -> int:
        """``value`` as a deployed node id, else :class:`ValueError`.

        Node ids must already be integers (``bool`` is not one): a
        ``1.7`` or ``true`` is refused, not truncated to node 1.
        """
        node_id = _integer("node id", value)
        if node_id not in self.deployment:
            raise ValueError(f"node {node_id} is not in the deployment")
        return node_id

    def check_report(
        self,
        node_id: int,
        x: Optional[float] = None,
        y: Optional[float] = None,
        time: float = 0.0,
    ) -> Tuple[int, Optional[float], Optional[float], float]:
        """The session's input rule for one report.

        Returns the report as ``(node_id, x, y, time)`` with ints and
        floats; raises :class:`ValueError` when the node id is not an
        integer naming a deployed node, or ``time`` (or a given ``x`` /
        ``y``) is not a finite number.  :meth:`ingest` applies it to
        every report, and a batch front end can apply it to a whole
        batch first.
        """
        return (
            self._node_id(node_id),
            None if x is None else _finite("x", x),
            None if y is None else _finite("y", y),
            _finite("time", time),
        )

    def ingest(
        self,
        node_id: int,
        x: Optional[float] = None,
        y: Optional[float] = None,
        time: float = 0.0,
    ) -> bool:
        """Add one event report to the open collection window.

        Raises :class:`ValueError` for a report :meth:`check_report`
        rejects.  Returns False when the report is dropped: the sender
        is currently diagnosed/excluded, or a location-mode report
        carries no coordinates (the unplaceable-report rule the cluster
        head applies on arrival).
        """
        node_id, x, y, time = self.check_report(node_id, x, y, time)
        if self.is_excluded(node_id):
            return False
        if self.config.mode == "binary":
            self._pending_senders.append(node_id)
            return True
        if x is None or y is None:
            return False
        self._pending_rows.append((node_id, x, y, time))
        return True

    def pending_reports(self) -> int:
        """Reports accumulated in the open window so far."""
        if self.config.mode == "binary":
            return len(self._pending_senders)
        return len(self._pending_rows)

    def close_window(self, now: float = 0.0) -> List[DecisionRecord]:
        """Close the open window: decide, update trust, sweep diagnosis.

        Returns the decision records this close produced (one per
        report cluster in location mode, exactly one in binary mode).
        Closing an empty window is a no-op -- the paper's windows only
        exist once a first report opens them.  ``now`` must be finite,
        as a report's time must (:class:`ValueError` otherwise).
        """
        now = _finite("time", now)
        before = len(self.decisions)
        if self.config.mode == "binary":
            senders = self._pending_senders
            if not senders:
                return []
            self._pending_senders = []
            verdicts = self.decide_binary(senders, now)
        else:
            rows = self._pending_rows
            if not rows:
                return []
            self._pending_rows = []
            # The DES circle tracker's delivery order.
            rows.sort(key=ROW_ORDER)
            verdicts = self.decide_rows(rows, now)
        for verdict in verdicts:
            self.record(verdict, now)
            self.sweep(now)
        self.windows_closed += 1
        return self.decisions[before:]

    def query_ti(self, node_id: int) -> float:
        """Current trust index of one node."""
        return self.trust.ti(node_id)

    def tis(self) -> Dict[int, float]:
        """Current TI of every node in the session."""
        return self.trust.tis()

    def diagnosed(self) -> Tuple[int, ...]:
        """Node ids diagnosed (TI below threshold) so far, sorted."""
        if self.diagnoser is None:
            return ()
        return self.diagnoser.diagnosed

    def decision_log(
        self, since: Optional[int] = None
    ) -> List[Dict[str, object]]:
        """The decision history as JSON-serialisable records.

        With ``since``, only the decisions whose id is greater: the log
        is in minting order, so the tail is found by bisecting the
        strictly ascending ids and only it is serialised.
        """
        decisions = self.decisions
        start = 0
        if since is not None:
            end = len(decisions)
            while start < end:
                middle = (start + end) // 2
                if decisions[middle].decision_id > since:
                    end = middle
                else:
                    start = middle + 1
        return [_decision_to_dict(d) for d in decisions[start:]]

    # ------------------------------------------------------------------
    # Journal + differential replay
    # ------------------------------------------------------------------
    def journal_records(self) -> List[Dict[str, object]]:
        """Every closed window's raw inputs, in close order.

        One record per window: ``{"mode": "binary", "time": t,
        "senders": [...]}`` or ``{"mode": "location", "time": t,
        "rows": [[node, x, y, time], ...]}`` (rows in the delivery
        order the window decided in).  JSON-serialisable; feed them to
        :meth:`replay_window` on a fresh session to reproduce the
        originating run's trust state bit for bit.
        """
        if self._journal is None:
            raise RuntimeError(
                "session was built without journal=True; nothing recorded"
            )
        return list(self._journal)

    def replay_window(self, record: Dict[str, object]) -> List[DecisionRecord]:
        """Re-decide one journalled window through the full pipeline.

        The journal captures windows *as delivered to the decision
        core* (post arrival filtering, pre close-time exclusion), so
        replay skips :meth:`ingest`'s arrival checks: it loads the
        window into the open window and runs :meth:`close_window`, the
        same decide/record/sweep sequence the original run executed.
        Raises :class:`RuntimeError`, and changes nothing, when the
        open window already holds a report.
        """
        if self.pending_reports():
            raise RuntimeError("replay_window requires an empty open window")
        now = _finite("time", record["time"])
        if self.config.mode == "binary":
            self._pending_senders = list(record["senders"])  # type: ignore[call-overload]
        else:
            self._pending_rows = [
                (int(node_id), float(x), float(y), float(time))
                for node_id, x, y, time in record["rows"]  # type: ignore[union-attr]
            ]
        return self.close_window(now)

    # ------------------------------------------------------------------
    # State round-trip
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Snapshot the session as a JSON-serialisable document.

        Covers everything behavioural: trust ``v`` values (floats
        round-trip exactly through JSON's repr serialisation), the
        diagnosed set, the next decision id, the decision log, and any
        reports pending in the open window.
        """
        pending: List[object]
        if self.config.mode == "binary":
            pending = list(self._pending_senders)
        else:
            pending = [list(row) for row in self._pending_rows]
        return {
            "schema": 1,
            "mode": self.config.mode,
            "members": [int(m) for m in self.members],
            "trust": [
                [int(n), float(v)]
                for n, v in sorted(self.trust.export_state().items())
            ],
            "diagnosed": [
                int(n)
                for n in (
                    self.diagnoser.diagnosed
                    if self.diagnoser is not None
                    else ()
                )
            ],
            "next_decision_id": self.ids.peek(),
            "windows_closed": self.windows_closed,
            "pending": pending,
            "decisions": self.decision_log(),
        }

    def import_state(self, state: Dict[str, object]) -> None:
        """Restore an :meth:`export_state` snapshot into this session.

        The session must be freshly built with the same deployment and
        config as the exporter; importing replaces trust values, the
        diagnosed set, the id stream, the decision log, and the open
        window.  The whole document is parsed before anything is
        assigned, so a rejected one (``ValueError``, ``KeyError``,
        ``TypeError`` or ``OverflowError``) leaves the session as it
        was.  Pending reports must pass :meth:`check_report`; every
        node id in ``members``, ``trust``, ``diagnosed`` and a
        decision's supporters and dissenters must be an integer naming
        a deployed node, and ``members`` must be distinct.
        ``next_decision_id``, ``windows_closed`` and each
        ``decision_id`` must be integers (not bools, floats or
        strings), ``occurred`` a boolean and each trust ``v`` a number.
        The decision ids must be strictly ascending and all below
        ``next_decision_id``.
        """
        if state.get("schema") != 1:
            raise ValueError(
                f"unsupported session-state schema: {state.get('schema')!r}"
            )
        if state.get("mode") != self.config.mode:
            raise ValueError(
                f"state mode {state.get('mode')!r} does not match session "
                f"mode {self.config.mode!r}"
            )
        members = tuple(self._node_id(m) for m in state["members"])  # type: ignore[union-attr]
        if len(set(members)) != len(members):
            raise ValueError(f"members must be distinct, got {list(members)}")
        trust = {
            self._node_id(n): _number("trust v", v)
            for n, v in state["trust"]  # type: ignore[union-attr]
        }
        for node_id, v in trust.items():
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(
                    f"trust v of node {node_id} must be finite and "
                    f"non-negative, got {v!r}"
                )
        diagnosed = [self._node_id(n) for n in state["diagnosed"]]  # type: ignore[union-attr]
        next_decision_id = _integer("next_decision_id", state["next_decision_id"])
        if next_decision_id < 0:
            raise ValueError(
                f"next_decision_id must be non-negative, got {next_decision_id}"
            )
        windows_closed = _integer("windows_closed", state["windows_closed"])
        if windows_closed < 0:
            raise ValueError(
                f"windows_closed must be non-negative, got {windows_closed}"
            )
        decisions = [
            _decision_from_dict(d, self._node_id)
            for d in state["decisions"]  # type: ignore[union-attr]
        ]
        # The log is in minting order: its ids, then the next id the
        # stream will mint, strictly ascending (``since`` reads and
        # later closes rely on it).
        ids = [record.decision_id for record in decisions]
        for earlier, later in zip(ids, ids[1:] + [next_decision_id]):
            if earlier >= later:
                raise ValueError(
                    f"decision ids must be strictly ascending and below "
                    f"next_decision_id {next_decision_id}, got {earlier} "
                    f"before {later}"
                )
        senders: List[int] = []
        rows: List[Row] = []
        if self.config.mode == "binary":
            senders = [
                self._node_id(node_id)
                for node_id in state["pending"]  # type: ignore[union-attr]
            ]
        else:
            rows = [
                self.check_report(  # type: ignore[misc]
                    node_id, _finite("x", x), _finite("y", y), time
                )
                for node_id, x, y, time in state["pending"]  # type: ignore[union-attr]
            ]

        self.members = members
        self.trust.import_state(trust)
        if self.diagnoser is not None:
            self.diagnoser.restore(diagnosed)
        self.ids.reset(next_decision_id)
        self.windows_closed = windows_closed
        self.decisions[:] = decisions
        self._pending_senders = senders
        self._pending_rows = rows

    def __repr__(self) -> str:
        return (
            f"TrustSession(mode={self.config.mode!r}, "
            f"members={len(self.members)}, "
            f"decisions={len(self.decisions)}, "
            f"windows_closed={self.windows_closed})"
        )


def _decision_to_dict(record: DecisionRecord) -> Dict[str, object]:
    return {
        "decision_id": record.decision_id,
        "time": record.time,
        "occurred": record.occurred,
        "location": (
            None
            if record.location is None
            else [record.location.x, record.location.y]
        ),
        "supporters": list(record.supporters),
        "dissenters": list(record.dissenters),
    }


def _integer(name: str, value: object) -> int:
    """``value`` if it is a JSON integer, else :class:`ValueError`.

    ``bool`` is not one, and a float or string is refused rather than
    truncated or parsed.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(name: str, value: object) -> float:
    """``float(value)`` if it is a JSON number (not a bool or string)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _finite(name: str, value: object) -> float:
    """``float(value)`` if it is a finite number, else :class:`ValueError`.

    :func:`_number`'s rule first: a bool or a numeric string is refused,
    not converted.  An integer too large for a float is not finite.
    """
    try:
        number = _number(name, value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def _decision_from_dict(
    doc: Dict[str, object], node_id: Callable[[object], int]
) -> DecisionRecord:
    occurred = doc["occurred"]
    if not isinstance(occurred, bool):
        raise ValueError(f"occurred must be a boolean, got {occurred!r}")
    location = doc["location"]
    if location is not None:
        if not (isinstance(location, list) and len(location) == 2):
            raise ValueError(
                f"decision location must be null or [x, y], got {location!r}"
            )
        location = Point(_finite("x", location[0]), _finite("y", location[1]))
    return DecisionRecord(
        decision_id=_integer("decision_id", doc["decision_id"]),
        time=_finite("decision time", doc["time"]),
        occurred=occurred,
        location=location,  # type: ignore[arg-type]
        supporters=tuple(node_id(n) for n in doc["supporters"]),  # type: ignore[union-attr]
        dissenters=tuple(node_id(n) for n in doc["dissenters"]),  # type: ignore[union-attr]
    )
