"""Node deployment and neighbourhood queries.

The paper deploys nodes two ways: Experiment 1 uses a small cluster where
every node neighbours every event; Experiment 2 places "100 nodes ...
uniformly on a 100x100 grid" (§4.2).  This module provides both
deployments plus the event-neighbour query (§2: nodes within detection
range ``r_s`` of an event are its *event neighbours*).

Neighbourhood queries are backed by a lazily built grid-bucket spatial
index (:class:`_SpatialGrid`): node ids and coordinates are cached as
flat numpy arrays, bucketed into square cells of roughly the sensing
radius, and a disk query touches only the cells its bounding box
overlaps.  The cache is invalidated whenever the deployment mutates
(:meth:`Deployment.add` / :meth:`Deployment.remove` /
:meth:`Deployment.move`), so faulty-node isolation and mobility stay
correct; code that mutates ``positions`` directly must call
:meth:`Deployment.invalidate_index`.  Every query is bit-identical to
a scalar ``distance_to`` scan over ``positions`` (the oracle in
``tests/oracles/topology.py``) -- the same correctly-rounded
``sqrt(dx*dx + dy*dy)`` expression decides membership, and tie order in
:meth:`Deployment.nearest` is ``(distance, id)`` in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.geometry import Point, Region

#: Node-count crossover below which queries use the plain dict scan --
#: numpy array construction and ufunc dispatch cost more than the loop.
#: Measured on this container the paths break even at ~64 nodes.
_INDEX_MIN_NODES = 64

#: Candidate-row count at or below which the list-returning disk query
#: filters with per-element ``math.sqrt`` instead of the array mask.
_SCALAR_FILTER_MAX = 32


class _SpatialGrid:
    """Immutable grid-bucket snapshot of a deployment's positions.

    ``ids`` is sorted ascending with ``xs`` / ``ys`` aligned, so a
    boolean mask over the full arrays yields ids already in sorted
    order.  ``buckets`` maps integer cell coordinates (``floor(x /
    cell)``, ``floor(y / cell)``) to index arrays into those flat
    arrays.
    """

    __slots__ = (
        "cell",
        "ids",
        "xs",
        "ys",
        "buckets",
        "_range_rows",
        "_range_lists",
    )

    def __init__(self, positions: Dict[int, Point], cell: float) -> None:
        if cell <= 0:
            raise ValueError(f"cell size must be positive, got {cell}")
        self.cell = cell
        # Memoised per-cell-range candidate rows for the disk query
        # behind event_neighbors_list: the decision kernel issues one
        # neighbour query per cluster vote, and cluster centres revisit
        # the same handful of cell ranges, so the bucket gather +
        # concatenate + sort is paid once per range instead of once per
        # query.  The snapshot is
        # immutable, so entries never go stale; the dict dies with the
        # grid on deployment mutation.
        self._range_rows: Dict[
            Tuple[int, int, int, int],
            Tuple[np.ndarray, np.ndarray, np.ndarray],
        ] = {}
        self._range_lists: Dict[
            Tuple[int, int, int, int],
            Tuple[List[int], List[float], List[float]],
        ] = {}
        ids = sorted(positions)
        self.ids = np.array(ids, dtype=np.int64)
        self.xs = np.array([positions[i].x for i in ids], dtype=np.float64)
        self.ys = np.array([positions[i].y for i in ids], dtype=np.float64)
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for idx, node_id in enumerate(ids):
            p = positions[node_id]
            key = (math.floor(p.x / cell), math.floor(p.y / cell))
            buckets.setdefault(key, []).append(idx)
        self.buckets = {
            key: np.array(members, dtype=np.intp)
            for key, members in buckets.items()
        }

    def disk_candidates(
        self, x: float, y: float, radius: float
    ) -> Optional[np.ndarray]:
        """Index array of nodes in cells overlapping the disk's bbox.

        Returns ``None`` when the bbox covers at least as many cells as
        exist -- the caller should scan the full arrays directly (same
        work, no gather overhead).
        """
        cell = self.cell
        gx0 = math.floor((x - radius) / cell)
        gx1 = math.floor((x + radius) / cell)
        gy0 = math.floor((y - radius) / cell)
        gy1 = math.floor((y + radius) / cell)
        if (gx1 - gx0 + 1) * (gy1 - gy0 + 1) >= len(self.buckets):
            return None
        chunks = []
        for gx in range(gx0, gx1 + 1):
            for gy in range(gy0, gy1 + 1):
                members = self.buckets.get((gx, gy))
                if members is not None:
                    chunks.append(members)
        if not chunks:
            return np.empty(0, dtype=np.intp)
        if len(chunks) == 1:
            return chunks[0]
        return np.concatenate(chunks)

    def disk_rows_sorted(
        self, x: float, y: float, radius: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, xs, ys)`` of every node in cells overlapping the
        disk's bounding box, sorted by id; memoised per cell range.

        Same candidate set as :meth:`disk_candidates` (identical cell
        range), pre-sorted so the caller's distance mask yields ids in
        ascending order with no per-query sort.
        """
        cell = self.cell
        key = (
            math.floor((x - radius) / cell),
            math.floor((x + radius) / cell),
            math.floor((y - radius) / cell),
            math.floor((y + radius) / cell),
        )
        rows = self._range_rows.get(key)
        if rows is None:
            gx0, gx1, gy0, gy1 = key
            if (gx1 - gx0 + 1) * (gy1 - gy0 + 1) >= len(self.buckets):
                rows = (self.ids, self.xs, self.ys)
            else:
                chunks = []
                for gx in range(gx0, gx1 + 1):
                    for gy in range(gy0, gy1 + 1):
                        members = self.buckets.get((gx, gy))
                        if members is not None:
                            chunks.append(members)
                if not chunks:
                    rows = (
                        np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=np.float64),
                        np.empty(0, dtype=np.float64),
                    )
                else:
                    idx = (
                        chunks[0]
                        if len(chunks) == 1
                        else np.sort(np.concatenate(chunks))
                    )
                    # ids is ascending, so ascending indices mean
                    # ascending ids (per-bucket members are already
                    # sorted; only multi-bucket concatenation needs
                    # the sort above).
                    rows = (self.ids[idx], self.xs[idx], self.ys[idx])
            self._range_rows[key] = rows
        return rows

    def disk_rows_lists(
        self, x: float, y: float, radius: float
    ) -> Tuple[List[int], List[float], List[float]]:
        """:meth:`disk_rows_sorted` as plain Python lists, memoised.

        The grid snapshot is immutable, so the ``tolist`` conversion is
        paid once per cell range instead of once per query.
        """
        cell = self.cell
        key = (
            math.floor((x - radius) / cell),
            math.floor((x + radius) / cell),
            math.floor((y - radius) / cell),
            math.floor((y + radius) / cell),
        )
        lists = self._range_lists.get(key)
        if lists is None:
            ids, xs, ys = self.disk_rows_sorted(x, y, radius)
            lists = (ids.tolist(), xs.tolist(), ys.tolist())
            self._range_lists[key] = lists
        return lists


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
    #: Lazily built ``(ids, xs, ys)`` flat-array snapshot (ids sorted
    #: ascending, coordinates aligned) backing the small-n vectorised
    #: scans and the decision kernel's implausibility gate.  Invalidated
    #: together with ``_grid`` on every mutation.
    _coords: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
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
        self._coords = None

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
        self._coords = None

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
        self._coords = None

    def invalidate_index(self) -> None:
        """Drop the cached spatial index.

        Must be called by any code that mutates ``positions`` directly
        instead of going through :meth:`add` / :meth:`remove` /
        :meth:`move`.
        """
        self._grid = None
        self._coords = None

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

    def _index(self, default_cell: float) -> _SpatialGrid:
        """The current grid, built on demand after any invalidation."""
        if self._grid is None:
            cell = self._preferred_cell
            if cell is None or cell <= 0:
                cell = default_cell
            self._grid = _SpatialGrid(self.positions, cell)
        return self._grid

    def _fallback_cell(self) -> float:
        """Cell size used when no radius hint is available."""
        extent = max(self.region.width, self.region.height)
        return extent / 8.0 if extent > 0 else 1.0

    def coords_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat ``(ids, xs, ys)`` snapshot, ids sorted ascending.

        Served from the grid index when one is already built (its flat
        arrays are exactly this snapshot), otherwise built directly --
        small deployments never pay for bucketing.  Cached until the
        next mutation; callers must not write into the returned arrays.
        """
        coords = self._coords
        if coords is None:
            grid = self._grid
            if grid is not None:
                coords = (grid.ids, grid.xs, grid.ys)
            else:
                positions = self.positions
                ids = sorted(positions)
                coords = (
                    np.array(ids, dtype=np.int64),
                    np.array(
                        [positions[i].x for i in ids], dtype=np.float64
                    ),
                    np.array(
                        [positions[i].y for i in ids], dtype=np.float64
                    ),
                )
            self._coords = coords
        return coords

    def event_neighbors(
        self, event_location: Point, sensing_radius: float
    ) -> List[int]:
        """Ids of nodes within ``sensing_radius`` of ``event_location``.

        These are the nodes expected to report the event (§2, figure 1).
        """
        if sensing_radius < 0:
            raise ValueError("sensing_radius must be non-negative")
        if len(self.positions) < _INDEX_MIN_NODES:
            return self._event_neighbors_small(
                event_location, sensing_radius
            )
        return self._event_neighbors_indexed(event_location, sensing_radius)

    def _event_neighbors_small(
        self, event_location: Point, sensing_radius: float
    ) -> List[int]:
        """Vectorised small-n scan over the cached coords snapshot.

        The mask is the same ``sqrt(dx*dx + dy*dy) <= r`` expression per
        element as the scalar scan, and the id array is pre-sorted so
        the masked result needs no sort.
        """
        ids, xs, ys = self.coords_arrays()
        dx = xs - event_location.x
        dy = ys - event_location.y
        return ids[np.sqrt(dx * dx + dy * dy) <= sensing_radius].tolist()

    def event_neighbors_list(
        self, x: float, y: float, sensing_radius: float
    ) -> List[int]:
        """:meth:`event_neighbors` through the memoised candidate rows,
        scalar-filtered when the candidate set is small.

        A decision-window vote queries one event centre against a
        handful of grid-cell candidates; at that size per-element
        ``math.sqrt`` over ``tolist()`` rows beats the array mask's
        ufunc dispatch plus the ``tolist`` round-trip the caller would
        pay anyway.  Same expression, membership, and ascending order
        as :meth:`event_neighbors`.
        """
        if sensing_radius < 0:
            raise ValueError("sensing_radius must be non-negative")
        if len(self.positions) < _INDEX_MIN_NODES:
            ids, xs, ys = self.coords_arrays()
            if len(ids) > _SCALAR_FILTER_MAX:
                dx = xs - x
                dy = ys - y
                mask = np.sqrt(dx * dx + dy * dy) <= sensing_radius
                return ids[mask].tolist()
            id_l, x_l, y_l = ids.tolist(), xs.tolist(), ys.tolist()
        else:
            grid = self._index(
                sensing_radius if sensing_radius > 0 else self._fallback_cell()
            )
            id_l, x_l, y_l = grid.disk_rows_lists(x, y, sensing_radius)
            if len(id_l) > _SCALAR_FILTER_MAX:
                # Rare wide-range query: hand the work back to the
                # array mask (the rows memo makes the extra lookup a
                # dict hit, not a re-gather).
                ids, xs, ys = grid.disk_rows_sorted(x, y, sensing_radius)
                dx = xs - x
                dy = ys - y
                mask = np.sqrt(dx * dx + dy * dy) <= sensing_radius
                return ids[mask].tolist()
        sqrt = math.sqrt
        out = []
        for node_id, nx, ny in zip(id_l, x_l, y_l):
            dx = nx - x
            dy = ny - y
            if sqrt(dx * dx + dy * dy) <= sensing_radius:
                out.append(node_id)
        return out

    def _event_neighbors_indexed(
        self, event_location: Point, sensing_radius: float
    ) -> List[int]:
        """Grid-bucket disk query; bit-identical to the scalar scan."""
        grid = self._index(
            sensing_radius if sensing_radius > 0 else self._fallback_cell()
        )
        x = event_location.x
        y = event_location.y
        candidates = grid.disk_candidates(x, y, sensing_radius)
        if candidates is None:
            xs, ys, ids = grid.xs, grid.ys, grid.ids
        else:
            if not len(candidates):
                return []
            xs = grid.xs[candidates]
            ys = grid.ys[candidates]
            ids = grid.ids[candidates]
        dx = xs - x
        dy = ys - y
        hit = ids[np.sqrt(dx * dx + dy * dy) <= sensing_radius]
        if candidates is None:
            # Full arrays are id-sorted, so the mask preserved order.
            return hit.tolist()
        return sorted(hit.tolist())

    def nearest(self, location: Point, k: int = 1) -> List[int]:
        """The ``k`` node ids nearest to ``location`` (distance, id order)."""
        if k <= 0:
            raise ValueError("k must be positive")
        if len(self.positions) < _INDEX_MIN_NODES:
            return self._nearest_small(location, k)
        return self._nearest_indexed(location, k)

    def _nearest_small(self, location: Point, k: int) -> List[int]:
        """Vectorised small-n ranking over the cached coords snapshot.

        ``np.lexsort`` sorts by its last key first, so ``(ids, d)``
        ranks by distance with id breaking ties.
        """
        ids, xs, ys = self.coords_arrays()
        dx = xs - location.x
        dy = ys - location.y
        d = np.sqrt(dx * dx + dy * dy)
        order = np.lexsort((ids, d))
        return ids[order[:k]].tolist()

    def _nearest_indexed(self, location: Point, k: int) -> List[int]:
        """Ranking over the cached flat arrays.

        ``np.lexsort`` sorts by its last key first, so ``(ids, d)``
        ranks by distance with id as the tie-breaker -- the scalar
        path's ``(distance, id)`` sort key exactly.
        """
        grid = self._index(self._fallback_cell())
        dx = grid.xs - location.x
        dy = grid.ys - location.y
        d = np.sqrt(dx * dx + dy * dy)
        order = np.lexsort((grid.ids, d))
        return grid.ids[order[:k]].tolist()

    def within(self, location: Point, radius: float) -> List[int]:
        """Alias of :meth:`event_neighbors` for general range queries."""
        return self.event_neighbors(location, radius)

    def density(self) -> float:
        """Nodes per unit area."""
        if self.region.area == 0:
            raise ValueError("region has zero area")
        return len(self.positions) / self.region.area


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


def clustered_deployment(
    cluster_centers: Sequence[Point],
    nodes_per_cluster: int,
    spread: float,
    region: Region,
    rng: np.random.Generator,
    first_id: int = 0,
) -> Deployment:
    """Gaussian blobs of nodes around given centres, clamped to the region.

    Not used by the headline experiments but exercised by the multi-cluster
    LEACH integration tests and the cluster-head failover example.
    """
    if nodes_per_cluster < 0:
        raise ValueError("nodes_per_cluster must be non-negative")
    if spread < 0:
        raise ValueError("spread must be non-negative")
    deployment = Deployment(region=region)
    node_id = first_id
    for center in cluster_centers:
        for _ in range(nodes_per_cluster):
            p = Point(
                float(rng.normal(center.x, spread)),
                float(rng.normal(center.y, spread)),
            )
            deployment.add(node_id, region.clamp(p))
            node_id += 1
    return deployment
