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

from .rigcore import Rig
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

    Nodes are the cells of the grid padded by one cell per side, in
    padded flat order, then a super-source.  Every cell's row has six
    entries: an inner cell's neighbours in the fixed order +x, -x, +y,
    -y, +z, -z, with each mesh -> hollow move replaced by a self-loop.
    A padding cell's row is all self-loops, so it can be reached but
    never expands.  A cell is claimed before it expands, so a self-loop
    claims nothing.  `search` rewrites the super-source's row, so one
    graph serves every bone and every restart of a rig.
    """

    def __init__(self, grid: VoxelGrid):
        r = grid.resolution
        p = r + 2
        n = p * p * p
        inner = (slice(1, -1),) * 3
        cell = np.arange(n, dtype=np.int32).reshape(p, p, p)
        # padded flat index -> unpadded flat index; -1 on padding and on the
        # super-source, which is also where a -1 index lands
        self.unpadded = np.full(n + 1, -1, dtype=np.int32)
        self.unpadded[cell[inner]] = np.arange(r * r * r, dtype=np.int32).reshape(r, r, r)
        # a fresh search's step counts: -1 on inner cells, -2 on padding
        self.blank_steps = np.where(self.unpadded[:n] >= 0, -1, -2).astype(np.int32)
        mesh = np.zeros((p, p, p), dtype=bool)
        mesh[inner] = grid.labels
        mesh = mesh.reshape(-1)
        self.labels = grid.labels  # the grid it was built for
        self.mesh_cells = np.flatnonzero(mesh)
        self.offsets = np.array([p * p, -p * p, p, -p, 1, -1], dtype=np.int32)
        self.source = n
        # spare room for the super-source's row: a rasterized bone (at most
        # 3R + 4 cells) or a restart frontier (at most 6); `search` grows it
        self.indices = np.empty(6 * n + 3 * r + 6, dtype=np.int32)
        rows = self.indices[:6 * n].reshape(n, 6)
        np.add(cell.reshape(-1, 1), self.offsets, out=rows)
        padding = np.flatnonzero(self.blank_steps == -2)
        rows[padding] = padding[:, None]
        nb = rows[self.mesh_cells]
        rows[self.mesh_cells] = np.where(mesh[nb], nb, self.mesh_cells[:, None])
        self.indptr = np.arange(0, 6 * n + 7, 6, dtype=np.int32)

    def search(self, sources: np.ndarray, root) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Breadth-first search from `sources` (padded flat indices in
        claim order; a repeated source is claimed once).

        Returns the reached cells in FIFO order, each one's parent (`root`
        for a source) and its depth (0 for a source).
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
        order = order.astype(np.intp)
        cells = order[1:]
        parents = parents[cells]
        # in FIFO order the parents' positions in `order` never decrease, so
        # a level ends at the first cell whose parent lies beyond the level
        # before it
        position = np.empty(n, dtype=np.int32)
        position[order] = np.arange(len(order), dtype=np.int32)
        parent_position = position[parents.astype(np.intp)]
        bounds = [0]
        while bounds[-1] < len(cells):
            bounds.append(int(parent_position.searchsorted(np.int32(bounds[-1] + 1))))
        parents[:bounds[1]] = root
        depth = np.repeat(np.arange(len(bounds) - 1, dtype=np.int32), np.diff(bounds))
        return cells, parents, depth


def compute_cell_distances(grid: VoxelGrid, bone_cells: np.ndarray, bone: int = 0,
                           graph: GridGraph | None = None) -> DistanceField:
    """BFS distance field for one bone.

    Each search phase is one compiled breadth-first traversal of `graph`
    (built from `grid` when not given; a graph of another grid raises
    `ValueError`).  Its super-source leads to the phase's sources in
    claim order: the bone's cells, or a restart's hollow frontier.  FIFO
    order and the fixed neighbour order make the result deterministic
    and equal to a sequential queue search on the unpadded grid.

    A phase ends with the visited cells closed under the allowed moves,
    so a restart reaches unvisited cells only through unvisited cells.
    It runs on the whole graph and may re-reach visited cells, but only
    cells still at -1 take its steps and predecessors.  Padding cells
    carry step count -2 and never take any.
    """
    bone_cells = np.atleast_2d(np.asarray(bone_cells, dtype=np.int64))
    if bone_cells.size == 0:
        raise ValueError("bone cell set is empty")
    if graph is None:
        graph = GridGraph(grid)
    elif graph.labels is not grid.labels:
        raise ValueError("grid graph was built for a different grid")
    p = grid.resolution + 2
    inner = (slice(1, -1),) * 3
    mesh_cells, offsets = graph.mesh_cells, graph.offsets
    steps = graph.blank_steps.copy()
    pred = np.full(p * p * p, -1, dtype=np.int32)
    sources = ((bone_cells[:, 0] + 1) * p + bone_cells[:, 1] + 1) * p + bone_cells[:, 2] + 1
    base, root = 0, -1
    while True:
        cells, parents, depth = graph.search(sources, root)
        new = steps[cells] == -1
        cells = cells[new]
        steps[cells] = base + depth[new]
        pred[cells] = graph.unpadded[parents[new]]
        if not (steps[mesh_cells] == -1).any():
            break
        # restart: nearest traversed mesh cell bordering untraversed hollow
        # (a traversed mesh cell's untraversed neighbours are all hollow)
        cand = mesh_cells[steps[mesh_cells] >= 0]
        cand = cand[(steps[cand[:, None] + offsets] == -1).any(axis=1)]
        if cand.size == 0:
            raise RuntimeError("mesh cells unreachable even via restarts; grid is corrupt")
        root = cand[np.lexsort((cand, steps[cand]))[0]]
        sources = root + offsets
        sources = sources[steps[sources] == -1]
        base = int(steps[root]) + 1
    steps = np.ascontiguousarray(steps.reshape(p, p, p)[inner])
    pred = np.ascontiguousarray(pred.reshape(p, p, p)[inner])
    return DistanceField(bone, steps, pred, grid.cell_size)


def vertex_distances(field: DistanceField, positions: np.ndarray, grid: VoxelGrid) -> np.ndarray:
    """Distance of each vertex through its cell's predecessor."""
    r = grid.resolution
    cells = grid.inner_cell_of(positions)
    flat = (cells[:, 0] * r + cells[:, 1]) * r + cells[:, 2]
    steps = field.steps.reshape(-1)[flat]
    if np.any(steps < 0):
        bad = int(np.argmax(steps < 0))
        raise ValueError(f"vertex {bad} lies in an untraversed cell; field is incomplete")
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
