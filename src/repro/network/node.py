"""Addressable network endpoint base class.

A :class:`NetworkNode` is anything the radio channel can deliver to: a
sensing node, a cluster head, a shadow cluster head, or the base station.
Subclasses implement :meth:`on_message`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.network.geometry import Point
from repro.network.messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.network.radio import RadioChannel
    from repro.simkernel.simulator import Simulator


class NetworkNode:
    """One addressable endpoint in the sensor network.

    Parameters
    ----------
    node_id:
        Unique non-negative integer address.
    position:
        Deployment coordinates.  The base station may use a nominal
        position outside the field.
    """

    #: Whether this class may act on a message that does not name it
    #: (see ``RadioChannel.broadcast``).  A class that sets it ``False``
    #: promises that :meth:`on_message` does nothing with a message
    #: whose ``named`` ids leave it out, so a wide-open broadcast skips
    #: it unless the message names it or a tap watches it.
    hears_unnamed = True

    def __init__(self, node_id: int, position: Point) -> None:
        if node_id < 0:
            raise ValueError(f"node_id must be non-negative, got {node_id}")
        self.node_id = node_id
        self.position = position
        self.alive = True
        self._channel: Optional["RadioChannel"] = None
        self._sim: Optional["Simulator"] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, sim: "Simulator", channel: "RadioChannel") -> None:
        """Connect this node to a simulator and a radio channel.

        Registration with the channel is the caller's (or channel's)
        responsibility; attach only wires the references, and binds the
        run's message-id stream that this node's messages take their ids
        from.
        """
        self._sim = sim
        self._channel = channel
        self._message_ids = sim.message_ids

    @property
    def sim(self) -> "Simulator":
        """The simulator this node is attached to."""
        if self._sim is None:
            raise RuntimeError(
                f"node {self.node_id} is not attached to a simulator"
            )
        return self._sim

    @property
    def channel(self) -> "RadioChannel":
        """The radio channel this node transmits on."""
        if self._channel is None:
            raise RuntimeError(
                f"node {self.node_id} is not attached to a channel"
            )
        return self._channel

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def send(self, destination: int, message: Message) -> None:
        """Unicast ``message`` to ``destination`` via the channel."""
        self.channel.unicast(self, destination, message)

    def broadcast(self, message: Message) -> None:
        """Broadcast ``message`` to every other registered endpoint."""
        self.channel.broadcast(self, message)

    def on_message(self, message: Message) -> None:
        """Handle a delivered message.  Subclasses override."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Mark the node dead; the channel stops delivering to it."""
        self.alive = False

    def revive(self) -> None:
        """Bring a dead node back (used by recovery experiments)."""
        self.alive = True

    def __repr__(self) -> str:
        status = "alive" if self.alive else "dead"
        return (
            f"{type(self).__name__}(id={self.node_id}, "
            f"pos=({self.position.x:.1f},{self.position.y:.1f}), {status})"
        )
