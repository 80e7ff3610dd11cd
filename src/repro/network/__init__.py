"""Wireless sensor network substrate.

Provides the pieces of a deployed network that TIBFIT's protocol logic
sits on top of:

* :mod:`repro.network.geometry` -- points, polar coordinates, distances.
* :mod:`repro.network.topology` -- node deployment (uniform random, grid)
  and neighbourhood queries.
* :mod:`repro.network.radio`    -- a lossy broadcast/unicast channel with
  propagation delay (the ns-2 wireless model stand-in).
* :mod:`repro.network.messages` -- typed message payloads exchanged by
  nodes, cluster heads, and the base station.
* :mod:`repro.network.node`     -- the addressable network endpoint base
  class.
"""

from repro.network.geometry import Point, PolarOffset, Region
from repro.network.messages import (
    ChDecisionAnnouncement,
    EventReportMessage,
    Message,
    ScHDisagreement,
    TiTableTransfer,
)
from repro.network.multihop import (
    RelayAck,
    RelayedMessage,
    ReliableRelay,
    RoutingTable,
)
from repro.network.node import NetworkNode
from repro.network.radio import ChannelConfig, DeliveryOutcome, RadioChannel
from repro.network.topology import (
    Deployment,
    grid_deployment,
    shared_grid_deployment,
    uniform_random_deployment,
)

__all__ = [
    "ChDecisionAnnouncement",
    "ChannelConfig",
    "DeliveryOutcome",
    "Deployment",
    "EventReportMessage",
    "Message",
    "NetworkNode",
    "Point",
    "PolarOffset",
    "RadioChannel",
    "Region",
    "RelayAck",
    "RelayedMessage",
    "ReliableRelay",
    "RoutingTable",
    "ScHDisagreement",
    "TiTableTransfer",
    "grid_deployment",
    "shared_grid_deployment",
    "uniform_random_deployment",
]
