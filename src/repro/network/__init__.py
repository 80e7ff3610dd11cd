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
