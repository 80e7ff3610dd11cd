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

from collections import Counter
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
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

#: Below this many messages the vector path's numpy round-trip costs
#: more than it saves; both paths are bit-identical, so the crossover
#: is purely a wall-time knob.
_VECTOR_MIN = 4


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
        # Broadcast memo, per sender id: every other endpoint by id, in
        # ascending id order, and the ids of those among them that read
        # every message (see :meth:`broadcast`).
        self._fanout: Dict[
            int, Tuple[Dict[int, NetworkNode], FrozenSet[int]]
        ] = {}
        self._taps: Dict[int, list] = {}
        self._interceptor: Optional[Interceptor] = None
        self._rng = sim.streams.get("channel")
        self.sent = 0
        self.delivered = 0
        #: Dropped transmissions by :class:`DeliveryOutcome` reason.
        self.drops: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, node: NetworkNode) -> None:
        """Add an endpoint to the channel and wire its references."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        self._fanout.clear()
        node.attach(self._sim, self)

    def unregister(self, node_id: int) -> None:
        """Remove an endpoint (e.g. a diagnosed-faulty node being isolated)."""
        self._nodes.pop(node_id, None)
        self._fanout.clear()

    def node(self, node_id: int) -> NetworkNode:
        """Look up a registered endpoint by id."""
        return self._nodes[node_id]

    # ------------------------------------------------------------------
    # Transmit interception (chaos fault injection)
    # ------------------------------------------------------------------
    def set_interceptor(self, interceptor: Optional[Interceptor]) -> None:
        """Install (or, with ``None``, remove) the transmit-path hook.

        The interceptor is consulted once per transmission that survives
        the natural checks (registration, liveness, range, Bernoulli
        loss) and may drop, delay, or duplicate the delivery -- see
        :class:`Intercept`.  Only one interceptor may be installed at a
        time.  While one is, every transmission is a :meth:`unicast`
        with its own delivery event; the uninstrumented hot path pays a
        single attribute check.
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
        self._fanout.clear()

    def remove_tap(self, watched_id: int, tap: NetworkNode) -> None:
        """Stop mirroring ``watched_id``'s inbound traffic to ``tap``."""
        taps = self._taps.get(watched_id)
        if taps is None or tap not in taps:
            return
        taps.remove(tap)
        if not taps:
            # No empty entry stays behind: an empty tap table lets every
            # delivery skip the tap lookup.
            del self._taps[watched_id]
        self._fanout.clear()

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Dropped transmissions, whatever the reason."""
        return sum(self.drops.values())

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

        spans = self._spans
        if outcome.delivered:
            self.delivered += 1
            delay = self.config.propagation_delay
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
                self._sim.after(delay, self._deliver, receiver, message)
            else:
                for extra in verdict.extra_delays:
                    self._sim.after(delay + extra, self._deliver, receiver,
                                    message)
            if spans.enabled:
                spans.current = saved
        else:
            self.drops[outcome.reason] += 1
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
        order -- same outcomes, same RNG stream consumption, same
        counters.  A batch to a registered, live destination over a
        wide-open channel (see :meth:`_wide_open`) draws its loss
        trials as one numpy vector and rides one fused delivery event,
        so an N-report round costs one heap push instead of N; every
        other batch is that per-message loop.  Every sender must be a
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
            senders = [nodes[sender_id] for sender_id in sender_ids]
        except KeyError as exc:
            raise ValueError(f"unknown sender id {exc.args[0]}") from None
        n = len(messages)
        receiver = nodes.get(destination)
        if receiver is None or not receiver.alive or not self._wide_open(n):
            return [
                self.unicast(sender, destination, message)
                for sender, message in zip(senders, messages)
            ]
        lost = self._send_wide_open(n, n)
        outcomes = [_OK] * n
        deliveries = [(receiver, message) for message in messages]
        for i in reversed(lost):
            outcomes[i] = _DROPPED
            del deliveries[i]
        if deliveries:
            self._sim.after(
                self.config.propagation_delay, self._deliver_fused, deliveries
            )
        return outcomes

    def broadcast(self, sender: NetworkNode, message: Message) -> int:
        """Transmit to every other endpoint; returns deliveries started.

        Each receiver suffers an independent loss trial, matching a
        contention-free broadcast over independent fading links.  On a
        channel that is not wide open (see :meth:`_wide_open`) this is
        one :meth:`unicast` per receiver, in ascending id order.

        On a wide-open channel the send is counted and drawn exactly as
        that loop would count and draw it: one ``"channel"`` draw per
        live receiver in ascending id order, and every receiver in
        ``sent`` and in ``delivered`` or ``drops``.  But the one fused
        delivery event carries only the message's *readers*, the
        surviving live receivers that are

        * of a class that may act on any message
          (``NetworkNode.hears_unnamed``),
        * watched by a tap (:meth:`add_tap`), or
        * named by the message (its ``named`` ids, if it has any).

        Every other receiver's handler is a no-op for this message, so
        skipping it changes nothing.  The event fires even when no
        reader survived, so the event count and a drained run's clock
        match the per-receiver loop.  The readers are fixed at send
        time: a tap added while the message is in flight sees it only
        if its endpoint is a reader.

        >>> from repro.network.geometry import Point
        >>> from repro.network.messages import ChDecisionAnnouncement
        >>> from repro.simkernel.simulator import Simulator
        >>> class Member(NetworkNode):
        ...     hears_unnamed = False
        ...     def on_message(self, message):
        ...         heard.append(self.node_id)
        >>> heard = []
        >>> sim = Simulator(seed=1)
        >>> channel = RadioChannel(sim, ChannelConfig(loss_probability=0.0))
        >>> for node_id in range(10):
        ...     channel.register(Member(node_id, Point(0.0, 0.0)))
        >>> head = NetworkNode(99, Point(0.0, 0.0))
        >>> channel.register(head)
        >>> verdict = ChDecisionAnnouncement(
        ...     sender=99, occurred=True, reporters=(2, 5), non_reporters=(7,)
        ... )
        >>> channel.broadcast(head, verdict)
        10
        >>> sim.run()
        0.01
        >>> channel.sent, channel.delivered, heard
        (10, 10, [2, 5, 7])
        """
        sender_id = sender.node_id
        fanout = self._fanout.get(sender_id)
        if fanout is None:
            fanout = self._fanout[sender_id] = self._fanout_of(sender_id)
        receivers, roster = fanout
        n = len(receivers)
        if not self._wide_open(n):
            started = 0
            for node_id in receivers:
                if self.unicast(sender, node_id, message).delivered:
                    started += 1
            return started
        readers = roster.union(getattr(message, "named", ()))
        if readers.issuperset(receivers):
            # Every receiver reads it (a binary verdict names its whole
            # cluster): fuse the survivors in one pass.  Otherwise look
            # each reader up, so a verdict naming a few of a hundred
            # sensors costs those few.
            deliveries = [
                (node, message) for node in receivers.values() if node.alive
            ]
            lost = self._send_wide_open(n, len(deliveries))
            for i in reversed(lost):
                del deliveries[i]
            started = len(deliveries)
        else:
            live = [node for node in receivers.values() if node.alive]
            lost = self._send_wide_open(n, len(live))
            started = len(live) - len(lost)
            gone = {live[i] for i in lost}
            deliveries = [
                (node, message) for i in sorted(readers)
                if (node := receivers.get(i)) is not None and node.alive
                and node not in gone
            ]
        if started:
            self._sim.after(
                self.config.propagation_delay, self._deliver_fused, deliveries
            )
        return started

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _wide_open(self, n: int) -> bool:
        """True when ``n`` transmissions may share one batched send.

        Wide open means no interceptor, no span collection and no range
        limit: every transmission to a live receiver then ends "ok" or
        "dropped" on one Bernoulli draw, and nothing else.
        """
        return (
            n >= _VECTOR_MIN
            and self._interceptor is None
            and not self._spans.enabled
            and self.config.range_limit is None
        )

    def _fanout_of(
        self, sender_id: int
    ) -> Tuple[Dict[int, NetworkNode], FrozenSet[int]]:
        """``sender_id``'s broadcast memo: the receivers by id, in
        ascending id order, and the ids of those that read every
        message."""
        receivers = {
            node_id: node for node_id, node in sorted(self._nodes.items())
            if node_id != sender_id
        }
        taps = self._taps
        roster = frozenset(
            node_id for node_id, node in receivers.items()
            if node.hears_unnamed or node_id in taps
        )
        return receivers, roster

    def _send_wide_open(self, n: int, n_live: int) -> List[int]:
        """Draw and count ``n`` transmissions on a wide-open channel.

        ``n_live`` of them go to live receivers; the others settle as
        "dead-receiver" drops.  One ``"channel"`` draw per live
        transmission, in send order, none for a dead one, leaves the
        stream exactly where the per-message :meth:`unicast` loop leaves
        it (PCG64 guarantees value- and state-identity between one
        vector draw and the scalar draws).  Returns the indices, among
        the live transmissions, of those whose draw fell below the loss
        probability; the caller schedules the survivors.
        """
        lost: List[int] = []
        if n_live:
            draws = self._rng.random(n_live)
            loss = self.config.loss_probability
            # No draw in [0, 1) falls below a 0.0 threshold, so a
            # lossless channel skips the comparison.
            if loss != 0.0:
                lost = (draws < loss).nonzero()[0].tolist()
        self.sent += n
        self.delivered += n_live - len(lost)
        if n > n_live:
            self.drops["dead-receiver"] += n - n_live
        if lost:
            self.drops["dropped"] += len(lost)
        return lost

    def _deliver_fused(
        self, deliveries: List[Tuple[NetworkNode, Message]]
    ) -> None:
        # The oracle's N deliver events carry consecutive heap sequences
        # at one timestamp, so nothing can interleave between them; one
        # event delivering in the same relative order is bit-identical
        # (liveness is still re-checked per message at delivery time,
        # because an earlier delivery in this very batch may kill a
        # later receiver).  A broadcast's batch holds only its readers
        # (see broadcast).  Span collection never reaches this path: it
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
