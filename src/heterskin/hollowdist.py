"""Per-bone breadth-first distance fields on the voxel grid.

The search starts from bone cells, never expands from a mesh cell into a
hollow cell, and restarts from the nearest traversed mesh cell bordering
untraversed hollow space until every mesh cell is reached.  Each search
phase, the first and every restart, is one call of scipy's compiled
`breadth_first_order` on a `GridGraph`, the grid's allowed moves as a
CSR graph built once per rig and shared by all its bones.  A vertex's
distance follows its cell's predecessor (distance of the previous cell
plus the straight-line distance from that cell's center to the vertex).
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .rigcore import Rig, RigError
from .voxelize import VoxelGrid, rasterize_bone


@dataclass
class DistanceField:
    bone: int
    steps: np.ndarray  # (R, R, R) int32, -1 = untraversed
    pred: np.ndarray  # (R, R, R) int32 flat cell index, -1 = none
    cell_size: float

    @property
    def dist(self) -> np.ndarray:
        """Distances in meters (inf where untraversed)."""
        d = self.steps.astype(np.float64) * self.cell_size
        d[self.steps < 0] = np.inf
        return d


class GridGraph:
    """The allowed moves of one grid's search, as a CSR graph.

    Nodes are the grid's cells in flat order, then a super-source.  Every
    cell's row has six entries: its neighbours in the fixed order +x, -x,
    +y, -y, +z, -z, with a move that leaves the grid or goes from a mesh
    cell to a hollow cell replaced by a self-loop.  A cell is claimed
    before it expands, so a self-loop claims nothing.  `search` rewrites
    the super-source's row, so one graph serves every bone and every
    restart of a rig.
    """

    def __init__(self, grid: VoxelGrid):
        r = grid.resolution
        n = r * r * r
        self.labels = grid.labels  # the grid it was built for
        self.source = n
        # spare room for the super-source's row: a rasterized bone (at most
        # 3R - 2 cells) or a restart frontier (at most 6); `search` grows it
        self.indices = np.empty(6 * n + 3 * r - 2, dtype=np.int32)
        cell = np.arange(n, dtype=np.int32).reshape(r, r, r)
        rows = self.indices[:6 * n].reshape(r, r, r, 6)
        np.add(cell[..., None], np.array([r * r, -r * r, r, -r, 1, -1], dtype=np.int32),
               out=rows)
        for axis in range(3):
            # a move off the grid stays put
            top, bottom = (slice(None),) * axis + (-1,), (slice(None),) * axis + (0,)
            rows[top + (..., 2 * axis)] = cell[top]
            rows[bottom + (..., 2 * axis + 1)] = cell[bottom]
        rows = rows.reshape(n, 6)
        mesh = grid.labels.reshape(-1).astype(bool)
        self.mesh_cells = np.flatnonzero(mesh)
        # the mesh cells' neighbours on the grid, which a restart looks at
        self.mesh_neighbors = rows[self.mesh_cells]
        rows[self.mesh_cells] = np.where(mesh[self.mesh_neighbors], self.mesh_neighbors,
                                         self.mesh_cells[:, None])
        self.indptr = np.arange(0, 6 * n + 7, 6, dtype=np.int32)

    def search(self, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Breadth-first search from `sources` (flat cell indices in claim
        order; a repeated source is claimed once).

        Returns the reached cells in FIFO order and the predecessor of
        every node (`source` for a source).
        """
        n = self.source + 1
        edges = 6 * self.source
        end = edges + len(sources)
        if end > len(self.indices):
            self.indices = np.concatenate([self.indices[:edges],
                                           np.empty(len(sources), dtype=np.int32)])
        self.indices[edges:end] = sources
        self.indptr[-1] = end
        graph = csr_matrix((np.broadcast_to(1.0, (end,)), self.indices[:end], self.indptr),
                           shape=(n, n), copy=False)
        order, parents = breadth_first_order(graph, self.source, directed=True,
                                             return_predecessors=True)
        # intp indices: numpy converts int32 ones on every use
        return order[1:].astype(np.intp), parents


def write_levels(steps: np.ndarray, cells: np.ndarray, parents: np.ndarray, sources: int,
                 base: int) -> None:
    """Write `base` + depth into `steps` for `cells`, new cells of one
    search in FIFO order, with their `parents`; the first `sources` are
    the search's sources.

    A new cell's parent is new too, and in FIFO order the parents'
    positions never decrease.  So once one level is written, the next
    ends at the first cell whose parent has no step count yet.
    """
    begin, end, total = 0, sources, len(cells)
    # the bisection reads single entries, as Python ints through memoryviews
    step_of, parent_of = memoryview(steps), memoryview(parents)
    while begin < total:
        steps[cells[begin:end]] = base
        lo, hi = end, total
        while lo < hi:
            mid = (lo + hi) // 2
            if step_of[parent_of[mid]] < 0:
                hi = mid
            else:
                lo = mid + 1
        if lo == end < total:
            raise RuntimeError("search order is not first-in, first-out")
        begin, end, base = end, lo, base + 1


def compute_cell_distances(grid: VoxelGrid, bone_cells: np.ndarray, bone: int = 0,
                           graph: GridGraph | None = None) -> DistanceField:
    """BFS distance field for one bone.

    Each search phase is one compiled breadth-first traversal of `graph`
    (built from `grid` when not given; a graph of another grid raises
    `ValueError`, and so does a bone cell off the grid).  Its super-source
    leads to the phase's sources in claim order: the bone's cells, or a
    restart's hollow frontier.  FIFO order and the fixed neighbour order
    make the result deterministic and equal to a sequential queue search
    on the grid.

    A phase ends with the visited cells closed under the allowed moves,
    so a restart reaches unvisited cells only through unvisited cells.
    It runs on the whole graph and may re-reach visited cells, but only
    cells still at -1 take its steps and predecessors.  The first phase
    finds every cell at -1.
    """
    bone_cells = np.atleast_2d(np.asarray(bone_cells, dtype=np.int64))
    if bone_cells.size == 0:
        raise ValueError("bone cell set is empty")
    r = grid.resolution
    off_grid = ((bone_cells < 0) | (bone_cells >= r)).any(axis=1)
    if off_grid.any():
        raise ValueError(f"bone cell {bone_cells[np.argmax(off_grid)].tolist()} lies outside "
                         f"the {r}^3 grid")
    if graph is None:
        graph = GridGraph(grid)
    elif graph.labels is not grid.labels:
        raise ValueError("grid graph was built for a different grid")
    mesh_cells, mesh_neighbors = graph.mesh_cells, graph.mesh_neighbors
    steps = np.full(r * r * r, -1, dtype=np.int32)
    pred = np.full(r * r * r, -1, dtype=np.int32)
    sources = (bone_cells[:, 0] * r + bone_cells[:, 1]) * r + bone_cells[:, 2]
    base, root = 0, -1
    while True:
        cells, parents = graph.search(sources)
        if base:
            cells = cells[steps[cells] == -1]
        parents = parents[cells]
        first = np.count_nonzero(parents[:len(sources)] == graph.source)
        pred[cells] = parents
        pred[cells[:first]] = root
        write_levels(steps, cells, parents, first, base)
        traversed = steps[mesh_cells] >= 0
        if traversed.all():
            break
        # restart: nearest traversed mesh cell bordering untraversed hollow
        # (a traversed mesh cell's untraversed neighbours are all hollow)
        borders = traversed & (steps[mesh_neighbors] == -1).any(axis=1)
        if not borders.any():
            raise RuntimeError("mesh cells unreachable even via restarts; grid is corrupt")
        cand = np.flatnonzero(borders)
        pick = cand[np.lexsort((mesh_cells[cand], steps[mesh_cells[cand]]))[0]]
        root = mesh_cells[pick]
        sources = mesh_neighbors[pick]
        sources = sources[steps[sources] == -1]
        base = int(steps[root]) + 1
    return DistanceField(bone, steps.reshape(r, r, r), pred.reshape(r, r, r), grid.cell_size)


def vertex_distances(field: DistanceField, positions: np.ndarray, grid: VoxelGrid) -> np.ndarray:
    """Distance of each vertex through its cell's predecessor."""
    r = grid.resolution
    cells = grid.inner_cell_of(positions)
    flat = (cells[:, 0] * r + cells[:, 1]) * r + cells[:, 2]
    steps = field.steps.reshape(-1)[flat]
    if np.any(steps < 0):
        # a vertex of a triangle lies in a mesh cell, and every search reaches those
        bad = int(np.argmax(steps < 0))
        raise RigError(f"vertex {bad} at {np.atleast_2d(positions)[bad].tolist()} lies off the "
                       "surface, in space the distance search never reaches (a vertex no "
                       "triangle uses, outside the body, say)")
    pred = field.pred.reshape(-1)[flat]
    out = np.zeros(len(flat))
    has_pred = pred >= 0
    if has_pred.any():
        p = pred[has_pred]
        pc = np.stack([p // (r * r), (p // r) % r, p % r], axis=1)
        centers = grid.center_of(pc)
        dist_prev = field.steps.reshape(-1)[p].astype(np.float64) * field.cell_size
        out[has_pred] = dist_prev + np.linalg.norm(
            centers - np.atleast_2d(positions)[has_pred], axis=1
        )
    return out


def bone_cell_sets(rig: Rig, grid: VoxelGrid) -> list[np.ndarray]:
    starts, ends = rig.skeleton.bone_segments()
    return [rasterize_bone(s, e, grid) for s, e in zip(starts, ends)]


def bone_fields(rig: Rig, grid: VoxelGrid) -> Iterator[tuple[DistanceField, np.ndarray]]:
    """Each bone's distance field with its column of vertex distances, in
    bone order."""
    graph = GridGraph(grid)
    for j, cells in enumerate(bone_cell_sets(rig, grid)):
        field = compute_cell_distances(grid, cells, j, graph)
        column = vertex_distances(field, rig.mesh.vertices, grid)
        if not np.all(np.isfinite(column)):
            raise RuntimeError("non-finite vertex-bone distance")
        yield field, column


def compute_all(rig: Rig, grid: VoxelGrid) -> np.ndarray:
    """N x B matrix of vertex-to-bone distances over the labeled grid."""
    return np.stack([column for _, column in bone_fields(rig, grid)], axis=1)


def euclidean_all(rig: Rig) -> np.ndarray:
    """N x B straight-line point-to-segment distances (ablation mode)."""
    v = rig.mesh.vertices
    starts, ends = rig.skeleton.bone_segments()
    d = np.zeros((len(v), len(starts)))
    for j, (a, b) in enumerate(zip(starts, ends)):
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0:
            d[:, j] = np.linalg.norm(v - a, axis=1)
        else:
            t = np.clip((v - a) @ ab / denom, 0.0, 1.0)
            proj = a + t[:, None] * ab
            d[:, j] = np.linalg.norm(v - proj, axis=1)
    return d
