"""Per-bone breadth-first distance fields on the voxel grid.

The search starts from bone cells, never expands from a mesh cell into a
hollow cell, and restarts from the nearest traversed mesh cell bordering
untraversed hollow space until every mesh cell is reached.  A vertex's
distance follows its cell's predecessor (distance of the previous cell
plus the straight-line distance from that cell's center to the vertex).
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

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


def compute_cell_distances(grid: VoxelGrid, bone_cells: np.ndarray, bone: int = 0) -> DistanceField:
    """BFS distance field for one bone (level-synchronous frontier sweep).

    Claim order within a level is source-major, direction-minor, which
    reproduces the sequential FIFO traversal with the fixed neighbor
    order, so distances and predecessors are deterministic.

    The search runs on a copy of the grid padded by one blocked cell per
    side (step count -2), so every neighbor of an inner cell is a valid
    flat index and needs no bounds test.  Padded flat order is monotone
    in unpadded flat order, so claim order and restart tie-break are the
    same as on the unpadded grid.
    """
    bone_cells = np.atleast_2d(np.asarray(bone_cells, dtype=np.int64))
    if bone_cells.size == 0:
        raise ValueError("bone cell set is empty")
    r = grid.resolution
    p = r + 2
    inner = (slice(1, -1),) * 3
    mesh = np.zeros((p, p, p), dtype=bool)
    mesh[inner] = grid.labels
    mesh = mesh.reshape(-1)
    steps = np.full((p, p, p), -2, dtype=np.int32)
    steps[inner] = -1
    steps = steps.reshape(-1)
    pred = np.full(p * p * p, -1, dtype=np.int32)
    # fixed expansion order: +x, -x, +y, -y, +z, -z
    offsets = np.array([p * p, -p * p, p, -p, 1, -1], dtype=np.int64)
    seeds = ((bone_cells[:, 0] + 1) * p + bone_cells[:, 1] + 1) * p + bone_cells[:, 2] + 1
    seeds = seeds[np.sort(np.unique(seeds, return_index=True)[1])]
    steps[seeds] = 0
    frontier = seeds
    level = 0
    while True:
        while frontier.size:
            nb = frontier[:, None] + offsets
            # never expand from a mesh cell into a hollow cell
            free = (steps[nb] == -1) & ~(mesh[frontier][:, None] & ~mesh[nb])
            cand_dst = nb[free]
            if cand_dst.size == 0:
                break
            cand_src = np.broadcast_to(frontier[:, None], nb.shape)[free]
            first = np.sort(np.unique(cand_dst, return_index=True)[1])
            frontier = cand_dst[first]
            steps[frontier] = level + 1
            pred[frontier] = cand_src[first]
            level += 1
        if not (mesh & (steps == -1)).any():
            break
        # restart: nearest traversed mesh cell bordering untraversed hollow
        cand = np.flatnonzero(mesh & (steps >= 0))
        nb = cand[:, None] + offsets
        cand = cand[((steps[nb] == -1) & ~mesh[nb]).any(axis=1)]
        if cand.size == 0:
            raise RuntimeError("mesh cells unreachable even via restarts; grid is corrupt")
        best = cand[np.lexsort((cand, steps[cand]))[0]]
        frontier = best + offsets
        frontier = frontier[(steps[frontier] == -1) & ~mesh[frontier]]
        level = int(steps[best]) + 1
        steps[frontier] = level
        pred[frontier] = best
    steps = np.ascontiguousarray(steps.reshape(p, p, p)[inner])
    pred = np.ascontiguousarray(pred.reshape(p, p, p)[inner])
    # back to unpadded flat indices, on the reached cells only
    reached = pred >= 0
    x, rest = np.divmod(pred[reached] - (p * p + p + 1), p * p)
    y, z = np.divmod(rest, p)
    pred[reached] = (x * r + y) * r + z
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
    for j, cells in enumerate(bone_cell_sets(rig, grid)):
        field = compute_cell_distances(grid, cells, j)
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
