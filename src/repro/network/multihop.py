"""Multi-hop reliable dissemination (§3.4's extension).

"TIBFIT can also be extended to scenarios where the sensing nodes are
more than one hop away from the data sink.  The data sink still needs
to know the location of the constituent node and [a] reliable data
dissemination primitive needs to be introduced to ensure that the data
sent out by the sensing nodes reliably reach the data sink without
alteration."

This module supplies that primitive on top of the lossy radio channel:

* :class:`RoutingTable` -- greedy geographic next-hop routes computed
  over a radio-range connectivity graph (the CH knows every node's
  position, §2, so route construction is sink-side knowledge).
* :class:`ReliableRelay` -- a per-node forwarding process with
  hop-by-hop acknowledgements and bounded retransmission, giving
  at-least-once delivery over per-link Bernoulli loss; duplicate
  suppression at every hop restores effectively-once semantics.

Integrity ("without alteration") is modelled by construction: relays
forward the original frozen message object; a Byzantine relay is
modelled as a *dropping* relay (suppression), which the retransmission
plus multi-path route repair masks, while report *content* forgery is
already handled by TIBFIT's trust layer itself -- a relay cannot forge
another node's report without it being charged to that node's TI,
which is exactly the arbitrary-data-fault model of the paper.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Set

from repro.network.geometry import Point
from repro.network.messages import Message
from repro.network.node import NetworkNode
from repro.network.topology import Deployment


class RelayedMessage(NamedTuple):
    """A payload wrapped for multi-hop forwarding.

    The originating relay numbers the relay from its run's relay-id
    stream (``Simulator.relay_ids``); every hop keeps that relay id.
    Each hop builds one, numbered ``hop``, for the transmission it makes
    (the origin's is hop 1).
    """

    sender: int
    message_id: int = 0
    payload: Optional[Message] = None
    origin: int = -1
    destination: int = -1
    relay_id: int = 0
    hop: int = 0


class RelayAck(NamedTuple):
    """Hop-by-hop acknowledgement for a relayed message."""

    sender: int
    message_id: int = 0
    relay_id: int = 0


class RoutingTable:
    """Greedy-geographic next hops over a unit-disk connectivity graph.

    Parameters
    ----------
    deployment:
        Node positions (including the sink's, which may be added with
        :meth:`add_endpoint`).
    radio_range:
        Two nodes are link-connected when within this distance.

    Greedy forwarding picks the neighbour strictly closest to the
    destination; when no neighbour improves (a void), the route falls
    back to the neighbour minimising distance-to-destination among all,
    with a TTL bounding any resulting loop.
    """

    def __init__(self, deployment: Deployment, radio_range: float) -> None:
        if radio_range <= 0:
            raise ValueError(f"radio_range must be positive, got {radio_range}")
        self.deployment = deployment
        self.radio_range = radio_range
        self._extra: Dict[int, Point] = {}

    def add_endpoint(self, node_id: int, position: Point) -> None:
        """Register a routable endpoint outside the deployment (the sink)."""
        self._extra[node_id] = position

    def _position(self, node_id: int) -> Point:
        if node_id in self._extra:
            return self._extra[node_id]
        return self.deployment.position_of(node_id)

    def _all_ids(self) -> List[int]:
        return sorted(set(self.deployment.node_ids()) | set(self._extra))

    def neighbors(self, node_id: int) -> List[int]:
        """Link-connected neighbours of ``node_id``."""
        here = self._position(node_id)
        return [
            other
            for other in self._all_ids()
            if other != node_id
            and here.distance_to(self._position(other)) <= self.radio_range
        ]

    def next_hop(
        self,
        current: int,
        destination: int,
        exclude: Sequence[int] = (),
    ) -> Optional[int]:
        """Greedy next hop from ``current`` toward ``destination``.

        ``exclude`` removes known-bad relays (e.g. diagnosed nodes).
        Returns ``None`` when current has no usable neighbour.
        """
        if current == destination:
            return destination
        try:
            target = self._position(destination)
        except KeyError:
            return None  # unknown destination: unroutable
        here = self._position(current)
        candidates = [
            n for n in self.neighbors(current) if n not in exclude
        ]
        if destination in candidates:
            return destination
        if not candidates:
            return None
        improving = [
            n
            for n in candidates
            if self._position(n).distance_to(target)
            < here.distance_to(target)
        ]
        pool = improving if improving else candidates
        return min(
            pool,
            key=lambda n: (self._position(n).distance_to(target), n),
        )

    def route(
        self,
        source: int,
        destination: int,
        max_hops: int = 64,
        exclude: Sequence[int] = (),
    ) -> Optional[List[int]]:
        """Full hop list from source to destination, or None if unroutable."""
        if source == destination:
            return [source]
        path = [source]
        seen: Set[int] = {source}
        current = source
        for _ in range(max_hops):
            nxt = self.next_hop(
                current, destination, exclude=tuple(exclude) + tuple(seen - {destination})
            )
            if nxt is None:
                return None
            path.append(nxt)
            if nxt == destination:
                return path
            if nxt in seen:
                return None  # greedy loop: unroutable under exclusions
            seen.add(nxt)
            current = nxt
        return None


class ReliableRelay(NetworkNode):
    """A store-and-forward relay with hop-by-hop ACK/retransmit.

    Parameters
    ----------
    node_id / position:
        Network identity (usually co-hosted with a sensing node).
    routing:
        Shared routing table.
    ack_timeout:
        Retransmit when no ACK arrives within this window.
    max_retries:
        Attempts per hop before the message is dropped (a
        ``relay.gave-up`` span).
    deliver_local:
        Callback invoked with the payload when this relay is the
        destination (the sink's relay hands reports to the CH logic).
    drop_everything:
        Fault-injection switch: a Byzantine relay that silently
        discards traffic instead of forwarding it.
    """

    def __init__(
        self,
        node_id: int,
        position: Point,
        routing: RoutingTable,
        ack_timeout: float = 0.2,
        max_retries: int = 3,
        deliver_local=None,
        drop_everything: bool = False,
    ) -> None:
        super().__init__(node_id, position)
        if ack_timeout <= 0:
            raise ValueError("ack_timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.routing = routing
        self.ack_timeout = ack_timeout
        self.max_retries = max_retries
        self._deliver_local = deliver_local
        self.drop_everything = drop_everything
        self._seen_relay_ids: Set[int] = set()
        self._pending: Dict[int, dict] = {}
        self.dropped_after_retries = 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def originate(self, payload: Message, destination: int) -> Optional[int]:
        """Inject ``payload`` toward ``destination``; returns relay id.

        An origin that is its own destination delivers at once, over
        zero hops, and transmits nothing.
        """
        relay_id = next(self.sim.relay_ids)
        if destination == self.node_id:
            self._deliver(payload, self.node_id, 0)
            return relay_id
        return self._forward(payload, self.node_id, destination, relay_id, 1)

    def _forward(
        self,
        payload: Optional[Message],
        origin: int,
        destination: int,
        relay_id: int,
        hop: int,
    ) -> Optional[int]:
        """Send the relay's ``hop``-th transmission toward ``destination``."""
        nxt = self.routing.next_hop(self.node_id, destination)
        if nxt is None:
            spans = self.sim.spans
            if spans.enabled:
                spans.point(
                    "relay.unroutable",
                    parent=spans.current,
                    node=self.node_id,
                    destination=destination,
                )
            return None
        outgoing = RelayedMessage(
            sender=self.node_id,
            message_id=next(self._message_ids),
            payload=payload,
            origin=origin,
            destination=destination,
            relay_id=relay_id,
            hop=hop,
        )
        self._pending[relay_id] = {
            "message": outgoing,
            "next_hop": nxt,
            "attempts": 0,
        }
        self._attempt(relay_id)
        return relay_id

    def _attempt(self, relay_id: int) -> None:
        state = self._pending.get(relay_id)
        if state is None:
            return
        if state["attempts"] > self.max_retries:
            del self._pending[relay_id]
            self.dropped_after_retries += 1
            spans = self.sim.spans
            if spans.enabled:
                spans.point(
                    "relay.gave-up",
                    parent=spans.current,
                    node=self.node_id,
                    relay_id=relay_id,
                    next_hop=state["next_hop"],
                )
            return
        state["attempts"] += 1
        self.send(state["next_hop"], state["message"])
        self.sim.after(self.ack_timeout, self._attempt, relay_id)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        if isinstance(message, RelayAck):
            self._pending.pop(message.relay_id, None)
            return
        if not isinstance(message, RelayedMessage):
            return
        # Hop-by-hop ACK even for duplicates (the ACK may have been lost).
        self.send(message.sender, RelayAck(
            sender=self.node_id,
            message_id=next(self._message_ids),
            relay_id=message.relay_id,
        ))
        if message.relay_id in self._seen_relay_ids:
            return
        self._seen_relay_ids.add(message.relay_id)
        if self.drop_everything:
            spans = self.sim.spans
            if spans.enabled:
                spans.point(
                    "relay.byzantine-drop",
                    parent=spans.current,
                    node=self.node_id,
                    relay_id=message.relay_id,
                )
            return
        if message.destination == self.node_id:
            self._deliver(message.payload, message.origin, message.hop)
        else:
            self._forward(
                message.payload, message.origin, message.destination,
                message.relay_id, message.hop + 1,
            )

    def _deliver(
        self, payload: Optional[Message], origin: int, hops: int
    ) -> None:
        spans = self.sim.spans
        if spans.enabled:
            spans.point(
                "relay.delivered",
                parent=spans.current,
                node=self.node_id,
                origin=origin,
                hops=hops,
            )
        if self._deliver_local is not None and payload is not None:
            self._deliver_local(payload)
