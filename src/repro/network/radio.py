"""Lossy single-hop radio channel.

The original evaluation ran over ns-2's 802.11 wireless model, whose only
behaviour the paper leans on is that "correct nodes' packets are
naturally dropped less than 1% of the time" (§4.2) -- which is exactly
why Experiment 2 sets the fault-rate constant ``f_r = 0.1`` differently
from the NER.  :class:`RadioChannel` models that directly: each
transmission is delivered after a propagation delay unless an independent
Bernoulli trial drops it.  A range limit is supported for
topology-sensitive scenarios; per-link faults (drops, delays,
duplicates) go through a transmit interceptor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.network.messages import Message
from repro.network.node import NetworkNode
from repro.simkernel.simulator import Simulator


class Intercept(NamedTuple):
    """Verdict returned by a transmit interceptor.

    ``drop=True`` discards the transmission (reason ``"chaos"``);
    otherwise one copy is delivered per entry in ``extra_delays``, each
    offset by that amount *on top of* the channel's natural delay.
    Entries must be non-negative, so a perturbed copy can never precede
    its own send.  ``Intercept(False, (0.0, 0.5))`` duplicates the
    message with the copy half a second late.
    """

    drop: bool
    extra_delays: Tuple[float, ...] = (0.0,)


#: A transmit-path hook: ``fn(sender_id, receiver_id, now) -> verdict``.
#: Returning ``None`` means "no opinion" -- the transmission proceeds
#: exactly as if no interceptor were installed.
Interceptor = Callable[[int, int, float], Optional[Intercept]]


@dataclass(frozen=True)
class ChannelConfig:
    """Channel behaviour knobs.

    Attributes
    ----------
    loss_probability:
        Independent probability that any single transmission is dropped.
        The ns-2 stand-in default is 0.008 (sub-1%, per §4.2).
    propagation_delay:
        Fixed time between transmit and deliver.
    range_limit:
        Maximum sender-receiver distance; transmissions beyond it are
        silently lost.  ``None`` disables the limit (single-cluster
        experiments assume one-hop reachability, §2).
    """

    loss_probability: float = 0.008
    propagation_delay: float = 0.01
    range_limit: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1], got {self.loss_probability}"
            )
        if self.propagation_delay < 0:
            raise ValueError("propagation_delay must be non-negative")
        if self.range_limit is not None and self.range_limit <= 0:
            raise ValueError("range_limit must be positive when set")


@dataclass(frozen=True)
class DeliveryOutcome:
    """Result descriptor for a single transmission attempt."""

    delivered: bool
    reason: str  # "ok", "dropped", "out-of-range", "dead-receiver",
    #              "unknown-destination", "chaos" (interceptor drop)


# Every transmission resolves to one of six outcomes, so the hot path
# hands out these shared instances instead of allocating a fresh
# (frozen, hence immutable) descriptor per send.
_OK = DeliveryOutcome(True, "ok")
_DROPPED = DeliveryOutcome(False, "dropped")
_OUT_OF_RANGE = DeliveryOutcome(False, "out-of-range")
_DEAD_RECEIVER = DeliveryOutcome(False, "dead-receiver")
_UNKNOWN_DESTINATION = DeliveryOutcome(False, "unknown-destination")
_CHAOS = DeliveryOutcome(False, "chaos")

#: Per-message-class cache of the ``deliver:<ClassName>`` event labels.
_DELIVER_LABELS: Dict[type, str] = {}
_FUSED_LABEL = "deliver:batch"

#: Below this many messages the vector path's numpy round-trip costs
#: more than it saves; both paths are bit-identical, so the crossover
#: is purely a wall-time knob.
_VECTOR_MIN = 4


def _deliver_label(message_type: type) -> str:
    label = _DELIVER_LABELS.get(message_type)
    if label is None:
        label = f"deliver:{message_type.__name__}"
        _DELIVER_LABELS[message_type] = label
    return label


class RadioChannel:
    """Single-hop broadcast medium connecting :class:`NetworkNode` endpoints.

    Parameters
    ----------
    sim:
        The simulator used for delivery scheduling and randomness (stream
        name ``"channel"``).
    config:
        Channel behaviour; see :class:`ChannelConfig`.
    """

    def __init__(
        self, sim: Simulator, config: Optional[ChannelConfig] = None
    ) -> None:
        self._sim = sim
        self._spans = sim.spans
        self.config = config if config is not None else ChannelConfig()
        self._nodes: Dict[int, NetworkNode] = {}
        # Broadcast order memo: (node_id, node) in ascending id order.
        self._sorted_pairs: Optional[List[Tuple[int, NetworkNode]]] = None
        self._taps: Dict[int, list] = {}
        self._interceptor: Optional[Interceptor] = None
        self._rng = sim.streams.get("channel")
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        # Counter handles, rebound lazily whenever ``sim.metrics`` is a
        # different registry than last time -- the instrumented path then
        # skips the registry's per-send string lookups.
        self._counter_src: Optional[object] = None
        self._c_sent = None
        self._c_delivered = None
        self._c_dropped = None
        self._c_drop: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, node: NetworkNode) -> None:
        """Add an endpoint to the channel and wire its references."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        self._sorted_pairs = None
        node.attach(self._sim, self)

    def unregister(self, node_id: int) -> None:
        """Remove an endpoint (e.g. a diagnosed-faulty node being isolated)."""
        self._nodes.pop(node_id, None)
        self._sorted_pairs = None

    def node(self, node_id: int) -> NetworkNode:
        """Look up a registered endpoint by id."""
        return self._nodes[node_id]

    def known_ids(self) -> Tuple[int, ...]:
        """All registered node ids, sorted."""
        return tuple(sorted(self._nodes))

    # ------------------------------------------------------------------
    # Transmit interception (chaos fault injection)
    # ------------------------------------------------------------------
    def set_interceptor(self, interceptor: Optional[Interceptor]) -> None:
        """Install (or, with ``None``, remove) the transmit-path hook.

        The interceptor is consulted once per transmission that survives
        the natural checks (registration, liveness, range, Bernoulli
        loss) and may drop, delay, or duplicate the delivery -- see
        :class:`Intercept`.  Only one interceptor may be installed at a
        time; the uninstrumented hot path pays a single attribute check.
        """
        if interceptor is not None and self._interceptor is not None:
            raise ValueError("an interceptor is already installed")
        self._interceptor = interceptor

    # ------------------------------------------------------------------
    # Promiscuous taps (shadow cluster heads, §3.4)
    # ------------------------------------------------------------------
    def add_tap(self, watched_id: int, tap: NetworkNode) -> None:
        """Deliver a copy of every message ``watched_id`` receives to ``tap``.

        §3.4: shadow cluster heads "monitor all input and output traffic
        associated with the selected CH".  Input traffic is mirrored via
        taps; output traffic is visible because CH verdicts are broadcast.
        """
        self._taps.setdefault(watched_id, []).append(tap)

    def remove_tap(self, watched_id: int, tap: NetworkNode) -> None:
        """Stop mirroring ``watched_id``'s inbound traffic to ``tap``."""
        taps = self._taps.get(watched_id, [])
        if tap in taps:
            taps.remove(tap)

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def unicast(
        self, sender: NetworkNode, destination: int, message: Message
    ) -> DeliveryOutcome:
        """Attempt delivery of ``message`` from ``sender`` to ``destination``.

        The returned outcome reflects the *transmission-time* verdict
        (loss/range checks happen immediately; the callback fires after
        the propagation delay).
        """
        self.sent += 1
        receiver = self._nodes.get(destination)
        verdict: Optional[Intercept] = None
        if receiver is None:
            outcome = _UNKNOWN_DESTINATION
        elif not receiver.alive:
            outcome = _DEAD_RECEIVER
        elif not self._in_range(sender, receiver):
            outcome = _OUT_OF_RANGE
        elif self._rng.random() < self.config.loss_probability:
            outcome = _DROPPED
        else:
            interceptor = self._interceptor
            if interceptor is not None:
                verdict = interceptor(
                    sender.node_id, destination, self._sim.now
                )
            if verdict is not None and verdict.drop:
                outcome = _CHAOS
            else:
                outcome = _OK

        metrics = self._sim.metrics
        if metrics.enabled:
            if self._counter_src is not metrics:
                self._rebind_counters(metrics)
            self._c_sent.inc()
            if outcome.delivered:
                self._c_delivered.inc()
            else:
                self._c_dropped.inc()
                self._drop_counter(outcome.reason).inc()
        spans = self._spans
        if outcome.delivered:
            self.delivered += 1
            delay = self.config.propagation_delay
            label = _deliver_label(type(message))
            if spans.enabled:
                # The delivery events scheduled below inherit the
                # transmit span as their causal context (the scheduler
                # stamps spans.current onto each event's ctx slot).
                saved = spans.current
                spans.current = spans.point(
                    "radio.transmit",
                    parent=spans.bound(message.message_id) or saved,
                    sender=sender.node_id,
                    destination=destination,
                    message=type(message).__name__,
                    message_id=message.message_id,
                )
            if verdict is None:
                self._sim.after(delay, self._deliver, receiver, message,
                                label=label)
            else:
                for extra in verdict.extra_delays:
                    self._sim.after(delay + extra, self._deliver, receiver,
                                    message, label=label)
            if spans.enabled:
                spans.current = saved
        else:
            self.dropped += 1
            if spans.enabled:
                spans.point(
                    "radio.drop",
                    parent=spans.bound(message.message_id) or spans.current,
                    sender=sender.node_id,
                    destination=destination,
                    reason=outcome.reason,
                    message=type(message).__name__,
                    message_id=message.message_id,
                )
        return outcome

    def unicast_batch(
        self,
        sender_ids: Sequence[int],
        destination: int,
        messages: Sequence[Message],
    ) -> List[DeliveryOutcome]:
        """Transmit ``messages[i]`` from ``sender_ids[i]`` to ``destination``.

        Bit-identical to calling :meth:`unicast` once per message in
        order -- same RNG stream consumption, same drop reasons, same
        interceptor consultation -- but the Bernoulli loss trials are
        drawn as one numpy vector and the surviving deliveries are
        scheduled as a single fused kernel event, so an N-report round
        costs one heap push instead of N.  Every sender must be a
        registered endpoint (senders transmit from their registered
        position).
        """
        if len(sender_ids) != len(messages):
            raise ValueError(
                f"sender/message length mismatch: {len(sender_ids)} senders "
                f"vs {len(messages)} messages"
            )
        nodes = self._nodes
        try:
            entries = [
                (nodes[sender_id], destination, message)
                for sender_id, message in zip(sender_ids, messages)
            ]
        except KeyError as exc:
            raise ValueError(f"unknown sender id {exc.args[0]}") from None
        return self._transmit_many(entries, common_destination=destination)

    def broadcast(self, sender: NetworkNode, message: Message) -> int:
        """Transmit to every other live endpoint; returns deliveries started.

        Each receiver suffers an independent loss trial, matching a
        contention-free broadcast over independent fading links.  A
        CH decision announcement to N cluster members costs one fused
        delivery event, on a lossy channel as on a lossless one.
        """
        pairs = self._sorted_pairs
        if pairs is None:
            pairs = self._sorted_pairs = sorted(self._nodes.items())
        sender_id = sender.node_id
        config = self.config
        if (
            self._interceptor is None
            and not self._spans.enabled
            and config.range_limit is None
            and len(pairs) > _VECTOR_MIN
        ):
            # Wide-open shape: the only outcomes are "ok", "dropped" and
            # "dead-receiver", so the per-entry outcome bookkeeping of
            # the batched core is skipped.  One "channel" draw per live
            # receiver, in ascending id order and none for a dead one,
            # keeps the stream exactly where the oracle's per-message
            # loop leaves it; the losses are the draws below the loss
            # probability, and the survivors ride one fused event.
            n = len(pairs) - 1 if sender_id in self._nodes else len(pairs)
            deliveries = [
                (node, message)
                for node_id, node in pairs
                if node_id != sender_id and node.alive
            ]
            n_live = len(deliveries)
            n_dead = n - n_live
            n_lost = 0
            if n_live:
                draws = self._rng.random(n_live)
                loss = config.loss_probability
                # No draw in [0, 1) falls below a 0.0 threshold, so a
                # lossless channel skips the comparison.
                if loss != 0.0:
                    lost = (draws < loss).nonzero()[0].tolist()
                    n_lost = len(lost)
                    for i in reversed(lost):
                        del deliveries[i]
                if deliveries:
                    self._schedule_fused(config.propagation_delay, deliveries)
            n_ok = n_live - n_lost
            self.sent += n
            self.delivered += n_ok
            self.dropped += n_dead + n_lost
            metrics = self._sim.metrics
            if metrics.enabled:
                if self._counter_src is not metrics:
                    self._rebind_counters(metrics)
                self._c_sent.inc(n)
                if n_ok:
                    self._c_delivered.inc(n_ok)
                if n_dead or n_lost:
                    self._c_dropped.inc(n_dead + n_lost)
                if n_dead:
                    self._drop_counter("dead-receiver").inc(n_dead)
                if n_lost:
                    self._drop_counter("dropped").inc(n_lost)
            return n_ok
        entries = [
            (sender, node_id, message)
            for node_id, _node in pairs
            if node_id != sender_id
        ]
        outcomes = self._transmit_many(entries)
        return sum(1 for outcome in outcomes if outcome.delivered)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _transmit_many(
        self,
        entries: List[Tuple[NetworkNode, int, Message]],
        common_destination: Optional[int] = None,
    ) -> List[DeliveryOutcome]:
        """Batched transmit core: the vectorised twin of :meth:`unicast`.

        The per-message path IS the semantics; this method must replay
        it exactly (see ``tests/network/test_radio_batch.py``).

        ``common_destination`` marks the every-entry-targets-one-node
        shape (:meth:`unicast_batch`): the receiver's registration and
        liveness are then checked once for the whole batch -- valid
        because no event can run between the entries of one batch.
        """
        if len(entries) < _VECTOR_MIN or self._spans.enabled:
            # Span collection routes every batch through the oracle
            # loop: each message then carries its own radio.transmit
            # span as the causal context of its own delivery event.
            # Bit-identical by the batch-equivalence guarantee above.
            return [
                self.unicast(sender, destination, message)
                for sender, destination, message in entries
            ]
        n = len(entries)
        self.sent += n
        nodes = self._nodes
        loss = self.config.loss_probability
        range_limit = self.config.range_limit
        outcomes: List[Optional[DeliveryOutcome]] = [None] * n
        receivers: List[Optional[NetworkNode]] = [None] * n
        pend_idx: List[int] = []

        if common_destination is not None:
            shared = nodes.get(common_destination)
            if shared is None:
                outcomes = [_UNKNOWN_DESTINATION] * n
            elif not shared.alive:
                outcomes = [_DEAD_RECEIVER] * n
            elif range_limit is None:
                # The sweep shape: one live CH, unlimited range -- every
                # entry pends.
                receivers = [shared] * n
                pend_idx = list(range(n))
            else:
                for i, (sender, _destination, _message) in enumerate(entries):
                    if not self._in_range(sender, shared):
                        outcomes[i] = _OUT_OF_RANGE
                        continue
                    receivers[i] = shared
                    pend_idx.append(i)
        else:
            for i, (sender, destination, _message) in enumerate(entries):
                receiver = nodes.get(destination)
                if receiver is None:
                    outcomes[i] = _UNKNOWN_DESTINATION
                elif not receiver.alive:
                    outcomes[i] = _DEAD_RECEIVER
                elif range_limit is not None and not self._in_range(
                    sender, receiver
                ):
                    outcomes[i] = _OUT_OF_RANGE
                else:
                    receivers[i] = receiver
                    pend_idx.append(i)

        # One vectorised draw consumes the "channel" stream exactly as
        # len(pend_idx) sequential scalar draws would (PCG64 guarantees
        # value- and state-identity), so the oracle's stream position is
        # preserved.  Interceptors are then consulted in message order,
        # preserving the "chaos" stream's order too.
        verdicts: Dict[int, Intercept] = {}
        n_ok = 0
        if pend_idx:
            if self._interceptor is None and loss == 0.0:
                # Lossless, un-intercepted shape: the draw must still
                # happen (stream identity -- the oracle consumes one
                # "channel" draw per pending entry) but no draw in
                # [0, 1) can fall below a 0.0 threshold, so every entry
                # survives and the per-draw scan is skipped.
                self._rng.random(len(pend_idx))
                n_ok = len(pend_idx)
                if n_ok == n:
                    outcomes = [_OK] * n
                else:
                    for i in pend_idx:
                        outcomes[i] = _OK
                return self._finish_batch(
                    n, n_ok, entries, outcomes, receivers, verdicts
                )
            draws = self._rng.random(len(pend_idx)).tolist()
            interceptor = self._interceptor
            now = self._sim.now
            for draw, i in zip(draws, pend_idx):
                if draw < loss:
                    outcomes[i] = _DROPPED
                    continue
                if interceptor is not None:
                    verdict = interceptor(
                        entries[i][0].node_id, entries[i][1], now
                    )
                    if verdict is not None:
                        if verdict.drop:
                            outcomes[i] = _CHAOS
                            continue
                        verdicts[i] = verdict
                outcomes[i] = _OK
                n_ok += 1

        return self._finish_batch(
            n, n_ok, entries, outcomes, receivers, verdicts
        )

    def _finish_batch(
        self,
        n: int,
        n_ok: int,
        entries: List[Tuple[NetworkNode, int, Message]],
        outcomes: List[DeliveryOutcome],
        receivers: List[Optional[NetworkNode]],
        verdicts: Dict[int, Intercept],
    ) -> List[DeliveryOutcome]:
        """Schedule a resolved batch and settle the delivery counters."""
        sim = self._sim
        delay = self.config.propagation_delay
        n_delivered = n_ok
        drop_tally: Optional[Dict[str, int]] = None
        if n_delivered == n:
            # Everything survived: one fused event, no per-entry branch.
            if not verdicts:
                self._schedule_fused(
                    delay,
                    [
                        (receivers[i], entries[i][2])
                        for i in range(n)
                    ],
                )
            else:
                self._schedule_mixed(delay, entries, receivers, verdicts)
        else:
            drop_tally = self._schedule_with_drops(
                delay, entries, outcomes, receivers, verdicts
            )

        n_dropped = n - n_delivered
        self.delivered += n_delivered
        self.dropped += n_dropped
        metrics = sim.metrics
        if metrics.enabled:
            if self._counter_src is not metrics:
                self._rebind_counters(metrics)
            self._c_sent.inc(n)
            if n_delivered:
                self._c_delivered.inc(n_delivered)
            if n_dropped:
                self._c_dropped.inc(n_dropped)
                assert drop_tally is not None
                for reason, count in drop_tally.items():
                    self._drop_counter(reason).inc(count)
        return outcomes

    def _schedule_mixed(
        self,
        delay: float,
        entries: List[Tuple[NetworkNode, int, Message]],
        receivers: List[Optional[NetworkNode]],
        verdicts: Dict[int, Intercept],
    ) -> None:
        """Schedule an all-delivered batch containing intercept verdicts."""
        sim = self._sim
        fused: List[Tuple[NetworkNode, Message]] = []
        for i, (_sender, _destination, message) in enumerate(entries):
            verdict = verdicts.get(i)
            if verdict is None:
                fused.append((receivers[i], message))
                continue
            # Flush the fused buffer first so the intercepted copies
            # keep their same-instant sequence ordering relative to the
            # plain deliveries around them.
            if fused:
                self._schedule_fused(delay, fused)
                fused = []
            label = _deliver_label(type(message))
            for extra in verdict.extra_delays:
                sim.after(delay + extra, self._deliver, receivers[i],
                          message, label=label)
        if fused:
            self._schedule_fused(delay, fused)

    def _schedule_with_drops(
        self,
        delay: float,
        entries: List[Tuple[NetworkNode, int, Message]],
        outcomes: List[DeliveryOutcome],
        receivers: List[Optional[NetworkNode]],
        verdicts: Dict[int, Intercept],
    ) -> Dict[str, int]:
        """Schedule a batch with at least one drop; returns the tally."""
        sim = self._sim
        drop_tally: Dict[str, int] = {}
        fused: List[Tuple[NetworkNode, Message]] = []
        for i, (_sender, _destination, message) in enumerate(entries):
            outcome = outcomes[i]
            if outcome.delivered:
                verdict = verdicts.get(i)
                if verdict is None:
                    fused.append((receivers[i], message))
                else:
                    if fused:
                        self._schedule_fused(delay, fused)
                        fused = []
                    label = _deliver_label(type(message))
                    for extra in verdict.extra_delays:
                        sim.after(delay + extra, self._deliver,
                                  receivers[i], message, label=label)
            else:
                reason = outcome.reason
                drop_tally[reason] = drop_tally.get(reason, 0) + 1
        if fused:
            self._schedule_fused(delay, fused)
        return drop_tally

    def _schedule_fused(
        self, delay: float, deliveries: List[Tuple[NetworkNode, Message]]
    ) -> None:
        if len(deliveries) == 1:
            receiver, message = deliveries[0]
            self._sim.after(delay, self._deliver, receiver, message,
                            label=_deliver_label(type(message)))
        else:
            self._sim.after(delay, self._deliver_fused, deliveries,
                            label=_FUSED_LABEL)

    def _deliver_fused(
        self, deliveries: List[Tuple[NetworkNode, Message]]
    ) -> None:
        # The oracle's N deliver events carry consecutive heap sequences
        # at one timestamp, so nothing can interleave between them; one
        # event delivering in the same relative order is bit-identical
        # (liveness is still re-checked per message at delivery time,
        # because an earlier delivery in this very batch may kill a
        # later receiver).  Span collection never reaches this path: it
        # routes every transmission through unicast and _deliver.
        for receiver, message in deliveries:
            if not receiver.alive:
                continue
            receiver.on_message(message)
            # Taps are re-read after each handler (one can be installed
            # mid-batch, even by this very on_message), exactly as
            # per-event delivery would see them.
            taps = self._taps
            if taps:
                for tap in taps.get(receiver.node_id, ()):
                    if tap.alive and tap.node_id != message.sender:
                        tap.on_message(message)

    def _rebind_counters(self, metrics) -> None:
        self._counter_src = metrics
        self._c_sent = metrics.counter("radio.sent")
        self._c_delivered = metrics.counter("radio.delivered")
        self._c_dropped = metrics.counter("radio.dropped")
        self._c_drop = {}

    def _drop_counter(self, reason: str):
        counter = self._c_drop.get(reason)
        if counter is None:
            counter = self._counter_src.counter(f"radio.drop.{reason}")
            self._c_drop[reason] = counter
        return counter

    def _deliver(self, receiver: NetworkNode, message: Message) -> None:
        spans = self._spans
        if not receiver.alive:
            # Receiver died between transmit and delivery.
            if spans.enabled:
                spans.point(
                    "radio.drop",
                    parent=spans.current,
                    sender=message.sender,
                    destination=receiver.node_id,
                    reason="died-in-flight",
                    message=type(message).__name__,
                    message_id=message.message_id,
                )
            return
        if spans.enabled:
            # spans.current holds the transmit span (restored from the
            # delivery event's ctx); everything the handler does next --
            # window joins, decisions -- parents under this deliver span.
            spans.current = spans.point(
                "radio.deliver",
                parent=spans.current,
                sender=message.sender,
                destination=receiver.node_id,
                message=type(message).__name__,
                message_id=message.message_id,
            )
        receiver.on_message(message)
        taps = self._taps
        if taps:
            for tap in taps.get(receiver.node_id, ()):
                if tap.alive and tap.node_id != message.sender:
                    tap.on_message(message)

    def _in_range(self, sender: NetworkNode, receiver: NetworkNode) -> bool:
        if self.config.range_limit is None:
            return True
        return (
            sender.position.distance_to(receiver.position)
            <= self.config.range_limit
        )

    def __repr__(self) -> str:
        return (
            f"RadioChannel(nodes={len(self._nodes)}, sent={self.sent}, "
            f"delivered={self.delivered}, dropped={self.dropped})"
        )
