"""Node deployment and neighbourhood queries.

The paper deploys nodes two ways: Experiment 1 uses a small cluster where
every node neighbours every event; Experiment 2 places "100 nodes ...
uniformly on a 100x100 grid" (§4.2).  This module provides both
deployments plus the event-neighbour query (§2: nodes within detection
range ``r_s`` of an event are its *event neighbours*).

Disk queries go through a lazily built grid (:class:`_SpatialGrid`):
node ids are bucketed into square cells of the sensing radius, and a
query filters only the nodes in the cells its bounding box overlaps.
The grid is dropped whenever the deployment mutates
(:meth:`Deployment.add` / :meth:`Deployment.remove` /
:meth:`Deployment.move`), so faulty-node isolation and mobility stay
correct; code that mutates ``positions`` directly must call
:meth:`Deployment.invalidate_index`.  Every query is bit-identical to
a ``distance_to`` scan over ``positions`` (the oracle in
``tests/oracles/topology.py``): the same correctly-rounded
``sqrt(dx*dx + dy*dy) <= r`` test decides membership over the cells of
a bounding box padded against rounding, ids come back ascending, and
:meth:`Deployment.nearest` ranks by ``(distance, id)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.network.geometry import Point, Region

_Rows = Tuple[List[int], List[float], List[float]]

#: Relative pad (8 units in the last place) on a disk query's bounding
#: box.  The filter accepts a node whose *rounded* offset ``nx - x`` is
#: within ``r``, which a node a few ulps beyond ``x - r`` can have (for
#: ``x = 1.0``, ``r = 0.5`` the node at ``0.5 - 2**-54`` is 0.5 away
#: after rounding, yet lies in the cell below ``x - r``), and ``x - r``
#: itself rounds.  A box padded by ``8u (|x| + |y| + r)`` covers every
#: such node; the extra candidates it can add are rejected by the
#: filter, so results are unchanged wherever the box was already wide
#: enough.
_BOX_PAD = 2.0 ** -50


class _SpatialGrid:
    """Immutable grid-bucket snapshot of a deployment's positions.

    ``cells`` maps integer cell coordinates (``floor(x / cell)``,
    ``floor(y / cell)``) to the ids of the nodes inside.  Each queried
    cell range memoises its candidates as id-sorted ``(ids, xs, ys)``
    lists: disk queries of one radius revisit the same few ranges, so
    the gather and sort are paid once per range.  The snapshot never
    changes, so memo entries never go stale; they die with the grid.
    """

    __slots__ = ("cell", "positions", "cells", "_ranges")

    def __init__(self, positions: Dict[int, Point], cell: float) -> None:
        if cell <= 0:
            raise ValueError(f"cell size must be positive, got {cell}")
        self.cell = cell
        self.positions = dict(positions)
        self.cells: Dict[Tuple[int, int], List[int]] = {}
        for node_id in sorted(positions):
            p = positions[node_id]
            key = (math.floor(p.x / cell), math.floor(p.y / cell))
            self.cells.setdefault(key, []).append(node_id)
        self._ranges: Dict[Tuple[int, int, int, int], _Rows] = {}

    def rows(self, x: float, y: float, radius: float) -> _Rows:
        """``(ids, xs, ys)`` of every node in the cells that overlap the
        disk's bounding box (padded by ``_BOX_PAD``), ascending by id."""
        cell = self.cell
        reach = radius + _BOX_PAD * (abs(x) + abs(y) + radius)
        key = (
            math.floor((x - reach) / cell),
            math.floor((x + reach) / cell),
            math.floor((y - reach) / cell),
            math.floor((y + reach) / cell),
        )
        rows = self._ranges.get(key)
        if rows is None:
            gx0, gx1, gy0, gy1 = key
            if (gx1 - gx0 + 1) * (gy1 - gy0 + 1) >= len(self.cells):
                # Covers at least as many cells as are occupied: take
                # every node rather than walk mostly empty cells.
                ids = sorted(self.positions)
            else:
                ids = []
                get = self.cells.get
                for gx in range(gx0, gx1 + 1):
                    for gy in range(gy0, gy1 + 1):
                        members = get((gx, gy))
                        if members is not None:
                            ids.extend(members)
                ids.sort()
            positions = self.positions
            rows = (
                ids,
                [positions[i].x for i in ids],
                [positions[i].y for i in ids],
            )
            self._ranges[key] = rows
        return rows


@dataclass
class Deployment:
    """A set of node positions inside a region.

    Attributes
    ----------
    region:
        The deployment field.
    positions:
        Mapping of node id to position.  Ids are dense from 0 unless the
        deployment was built by hand.
    """

    region: Region
    positions: Dict[int, Point] = field(default_factory=dict)
    _grid: Optional[_SpatialGrid] = field(
        default=None, init=False, repr=False, compare=False
    )
    _preferred_cell: Optional[float] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.positions)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.positions

    def node_ids(self) -> Tuple[int, ...]:
        """All node ids, sorted."""
        return tuple(sorted(self.positions))

    def position_of(self, node_id: int) -> Point:
        """Position of ``node_id``; raises ``KeyError`` if unknown."""
        return self.positions[node_id]

    def add(self, node_id: int, position: Point) -> None:
        """Place a node, validating the position is inside the region."""
        if node_id in self.positions:
            raise ValueError(f"node {node_id} already deployed")
        if not self.region.contains(position):
            raise ValueError(
                f"position {position} outside region {self.region}"
            )
        self.positions[node_id] = position
        self._grid = None

    def remove(self, node_id: int) -> None:
        """Remove a node from the deployment (isolation of faulty nodes).

        Raises ``KeyError`` for an unknown id: isolation acting on a
        node that is not deployed indicates a bookkeeping bug upstream
        and must not pass silently.
        """
        if node_id not in self.positions:
            raise KeyError(node_id)
        del self.positions[node_id]
        self._grid = None

    def move(self, node_id: int, position: Point) -> None:
        """Update an existing node's position (mobility fast path).

        Unlike :meth:`add` this does not validate region membership:
        mobility interpolates between in-region waypoints, so staying
        inside the (convex) region is the caller's invariant.  Raises
        ``KeyError`` for an unknown id.
        """
        if node_id not in self.positions:
            raise KeyError(node_id)
        self.positions[node_id] = position
        self._grid = None

    def invalidate_index(self) -> None:
        """Drop the cached spatial index.

        Must be called by any code that mutates ``positions`` directly
        instead of going through :meth:`add` / :meth:`remove` /
        :meth:`move`.
        """
        self._grid = None

    def ensure_index(self, cell_size: float) -> None:
        """Pre-build the grid index with the given cell size.

        Cluster heads call this with their sensing radius ``r_s`` --
        the cell size that makes an event-neighbour disk query touch a
        handful of cells.  The index is still built lazily on first
        query if this is never called.
        """
        if cell_size <= 0:
            raise ValueError(
                f"cell_size must be positive, got {cell_size}"
            )
        self._preferred_cell = cell_size
        if self._grid is None or self._grid.cell != cell_size:
            self._grid = _SpatialGrid(self.positions, cell_size)

    def _disk(self, x: float, y: float, radius: float) -> List[int]:
        """Ids within ``radius`` of ``(x, y)``, ascending: the one body
        behind both event-neighbour queries."""
        if radius < 0:
            raise ValueError("sensing_radius must be non-negative")
        grid = self._grid
        if grid is None:
            cell = self._preferred_cell
            if cell is None:
                if radius > 0:
                    cell = radius
                else:
                    extent = max(self.region.width, self.region.height)
                    cell = extent / 8.0 if extent > 0 else 1.0
            grid = self._grid = _SpatialGrid(self.positions, cell)
        ids, xs, ys = grid.rows(x, y, radius)
        sqrt = math.sqrt
        out = []
        for node_id, nx, ny in zip(ids, xs, ys):
            dx = nx - x
            dy = ny - y
            if sqrt(dx * dx + dy * dy) <= radius:
                out.append(node_id)
        return out

    def event_neighbors(
        self, event_location: Point, sensing_radius: float
    ) -> List[int]:
        """Ids of nodes within ``sensing_radius`` of ``event_location``.

        These are the nodes expected to report the event (§2, figure 1).
        """
        return self._disk(event_location.x, event_location.y, sensing_radius)

    def event_neighbors_list(
        self, x: float, y: float, sensing_radius: float
    ) -> List[int]:
        """:meth:`event_neighbors` for a centre given as plain floats
        (the decision kernel's cluster centres)."""
        return self._disk(x, y, sensing_radius)

    def nearest(self, location: Point, k: int = 1) -> List[int]:
        """The ``k`` node ids nearest to ``location`` (distance, id order)."""
        if k <= 0:
            raise ValueError("k must be positive")
        x = location.x
        y = location.y
        ranked = []
        for node_id, p in self.positions.items():
            dx = p.x - x
            dy = p.y - y
            ranked.append((math.sqrt(dx * dx + dy * dy), node_id))
        ranked.sort()
        return [node_id for _distance, node_id in ranked[:k]]


def uniform_random_deployment(
    n_nodes: int,
    region: Region,
    rng: np.random.Generator,
    first_id: int = 0,
) -> Deployment:
    """Scatter ``n_nodes`` uniformly at random over ``region``.

    This matches the paper's §2 deployment assumption ("placing the nodes
    randomly in the network"); ids are assigned densely from ``first_id``.
    """
    if n_nodes < 0:
        raise ValueError(f"n_nodes must be non-negative, got {n_nodes}")
    deployment = Deployment(region=region)
    xs = rng.uniform(region.x_min, region.x_max, size=n_nodes)
    ys = rng.uniform(region.y_min, region.y_max, size=n_nodes)
    for i in range(n_nodes):
        deployment.add(first_id + i, Point(float(xs[i]), float(ys[i])))
    return deployment


def grid_deployment(
    n_nodes: int,
    region: Region,
    first_id: int = 0,
) -> Deployment:
    """Place ``n_nodes`` on a regular grid filling ``region``.

    Experiment 2's "100 nodes placed uniformly on a 100x100 grid" uses a
    10x10 arrangement with cell-centred positions.  For non-square counts
    the grid is the smallest ``rows x cols`` covering ``n_nodes`` with
    ``cols = ceil(sqrt(n))``; trailing cells are left empty.
    """
    if n_nodes < 0:
        raise ValueError(f"n_nodes must be non-negative, got {n_nodes}")
    deployment = Deployment(region=region)
    if n_nodes == 0:
        return deployment
    cols = math.ceil(math.sqrt(n_nodes))
    rows = math.ceil(n_nodes / cols)
    cell_w = region.width / cols
    cell_h = region.height / rows
    placed = 0
    for r in range(rows):
        for c in range(cols):
            if placed >= n_nodes:
                break
            x = region.x_min + (c + 0.5) * cell_w
            y = region.y_min + (r + 0.5) * cell_h
            deployment.add(first_id + placed, Point(x, y))
            placed += 1
    return deployment


#: Per-process memo behind :func:`shared_grid_deployment`: deployment
#: key -> (template positions, {cell size -> prebuilt _SpatialGrid}).
#: Bounded so a pathological sweep over many geometries cannot grow it
#: without limit; eviction is wholesale (the memo is a pure cache).
_SHARED_GRID_MEMO: Dict[
    Tuple[int, int, float, float, float, float],
    Tuple[Dict[int, Point], Dict[float, _SpatialGrid]],
] = {}
_SHARED_GRID_MEMO_MAX = 32


def shared_grid_deployment(
    n_nodes: int,
    region: Region,
    first_id: int = 0,
    index_cell: Optional[float] = None,
) -> Deployment:
    """A :func:`grid_deployment` served from a per-process memo.

    Grid placement is a pure function of ``(n_nodes, region bounds,
    first_id)`` -- no RNG -- so all trials of one sweep point can share
    the precomputed geometry: the returned :class:`Deployment` gets a
    *copy* of the memoised positions dict (:class:`Point` values are
    immutable and shared) and, when ``index_cell`` is given, a reference
    to the shared prebuilt :class:`_SpatialGrid` snapshot for that cell
    size.  Snapshots are immutable and mutation invalidates by replacing
    the reference (``add``/``remove``/``move`` set ``_grid = None``), so
    one trial mutating its deployment never perturbs another.  Results
    are bit-identical to building from scratch; only the wall time
    changes.
    """
    key = (
        n_nodes,
        first_id,
        region.x_min,
        region.x_max,
        region.y_min,
        region.y_max,
    )
    entry = _SHARED_GRID_MEMO.get(key)
    if entry is None:
        if len(_SHARED_GRID_MEMO) >= _SHARED_GRID_MEMO_MAX:
            _SHARED_GRID_MEMO.clear()
        template = grid_deployment(n_nodes, region, first_id)
        entry = (template.positions, {})
        _SHARED_GRID_MEMO[key] = entry
    positions, grids = entry
    deployment = Deployment(region=region, positions=dict(positions))
    if index_cell is not None and index_cell > 0 and n_nodes > 0:
        grid = grids.get(index_cell)
        if grid is None:
            grid = _SpatialGrid(positions, index_cell)
            grids[index_cell] = grid
        deployment._preferred_cell = index_cell
        deployment._grid = grid
    return deployment
