"""Per-``Point`` neighbourhood scans: the oracle for the spatial index.

The original dict scans over ``Deployment.positions``, kept semantically
frozen so ``tests/network/test_topology_index.py`` can prove every
indexed and vectorised :class:`~repro.network.topology.Deployment`
query bit-identical to them.
"""

from __future__ import annotations

from typing import List

from repro.network.geometry import Point
from repro.network.topology import Deployment


def event_neighbors_reference(
    deployment: Deployment, event_location: Point, sensing_radius: float
) -> List[int]:
    """Ids within ``sensing_radius`` of ``event_location``, ascending."""
    return sorted(
        node_id
        for node_id, pos in deployment.positions.items()
        if pos.distance_to(event_location) <= sensing_radius
    )


def nearest_reference(
    deployment: Deployment, location: Point, k: int
) -> List[int]:
    """The ``k`` ids nearest to ``location``, in ``(distance, id)`` order."""
    ranked = sorted(
        deployment.positions.items(),
        key=lambda item: (item[1].distance_to(location), item[0]),
    )
    return [node_id for node_id, _pos in ranked[:k]]
