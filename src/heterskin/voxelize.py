"""Cubic voxel grid: conservative surface marking and bone rasterization.

Mesh cells are found with a separating-axis triangle/box overlap test
(Akenine-Moller 2001) over closed boxes, so boundary contact counts and
thin features are never missed.  The test runs batched: every triangle's
candidate cells (its bounding box clipped to the inner region) are
numbered as (triangle, cell) pairs and processed in chunks of
CHUNK_PAIRS.  Each chunk runs the triangle-plane test first, the cheapest
and most selective, then the box-face and the nine edge-axis tests on the
pairs that survive it.  Bone segments are rasterized by incremental grid
traversal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rigcore import Mesh, check_integer, write_json

HOLLOW = 0
MESH = 1
CHUNK_PAIRS = 8192  # (triangle, cell) pairs per SAT pass; bounds the temporaries


@dataclass
class VoxelGrid:
    origin: np.ndarray  # (3,) grid min corner
    cell_size: float
    resolution: int
    labels: np.ndarray  # (R, R, R) uint8

    def cell_of(self, points) -> np.ndarray:
        """Containing cell of each point, clipped into the grid."""
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        c = np.floor((p - self.origin) / self.cell_size).astype(np.int64)
        return np.clip(c, 0, self.resolution - 1)

    def inner_cell_of(self, points) -> np.ndarray:
        """Containing cell clipped into the padded interior; mesh and bone
        geometry lives there, so boundary-touching float jitter resolves
        inward."""
        c = self.cell_of(points)
        return np.clip(c, 1, self.resolution - 2)

    def center_of(self, cells) -> np.ndarray:
        c = np.atleast_2d(np.asarray(cells, dtype=np.float64))
        return self.origin + (c + 0.5) * self.cell_size

    def contains_point(self, point) -> bool:
        p = np.asarray(point, dtype=np.float64)
        rel = (p - self.origin) / self.cell_size
        return bool(np.all(rel >= 0) and np.all(rel <= self.resolution))


def build_grid(mesh: Mesh, resolution: int) -> VoxelGrid:
    """Fit a cubic grid around the mesh with a one-cell padding border.

    The cell size is chosen so the largest AABB extent spans resolution-2
    cells and the grid is centered on the AABB per axis.
    """
    check_integer(resolution, "grid resolution", 4)
    if mesh.num_vertices == 0:
        raise ValueError("cannot build a grid around an empty mesh")
    lo, hi = mesh.aabb()
    extent = float((hi - lo).max())
    if extent <= 0:
        raise ValueError("degenerate mesh: zero-extent bounding box")
    s = extent / (resolution - 2)
    origin = (lo + hi) / 2 - resolution * s / 2
    labels = np.zeros((resolution,) * 3, dtype=np.uint8)
    return VoxelGrid(origin, s, resolution, labels)


def voxelize_surface(mesh: Mesh, grid: VoxelGrid) -> np.ndarray:
    """Label every cell whose closed box overlaps at least one triangle.

    Marking is restricted to the inner region so the padding border stays
    hollow; a point exactly on the inner boundary is also covered by the
    adjacent interior cell.
    """
    r = grid.resolution
    labels = np.zeros((r,) * 3, dtype=np.uint8)
    half = grid.cell_size / 2
    slack = half * 1e-9  # absorb last-ulp jitter; extra marking stays conservative
    # coordinate-major, so take() along the last axis gives contiguous rows
    tris = mesh.vertices[mesh.triangles].T  # (3, 3 vertices, T)
    lo = np.floor((tris.min(axis=1) - grid.origin[:, None]) / grid.cell_size).astype(np.int64)
    hi = np.floor((tris.max(axis=1) - grid.origin[:, None]) / grid.cell_size).astype(np.int64)
    lo = np.clip(lo, 1, r - 2)
    dims = np.clip(hi, 1, r - 2) - lo + 1  # candidate box extent per triangle
    counts = dims.prod(axis=0)
    ends = np.cumsum(counts)  # pairs are numbered triangle by triangle
    starts = ends - counts
    e = tris[:, [1, 2, 0]] - tris  # edges v1-v0, v2-v1, v0-v2
    n = e[[1, 2, 0], 0] * e[[2, 0, 1], 1] - e[[2, 0, 1], 0] * e[[1, 2, 0], 1]  # e0 x e1
    n_l1 = np.abs(n).sum(axis=0)
    plane_r = half * n_l1 + slack * n_l1
    # edge axis e_i x unit_j is zero at j and holds e_i[k], -e_i[m] at m, k
    axes = ((1, 2), (2, 0), (0, 1))
    e_abs = np.abs(e)
    axis_r = (half + slack) * (e_abs[[1, 2, 0]] + e_abs[[2, 0, 1]])  # (j, i, T)
    total = int(counts.sum())
    for first in range(0, total, CHUNK_PAIRS):
        pair = np.arange(first, min(first + CHUNK_PAIRS, total))
        t = np.searchsorted(ends, pair, side="right")
        ox, rest = np.divmod(pair - starts[t], dims[1, t] * dims[2, t])
        oy, oz = np.divmod(rest, dims[2, t])
        cells = lo.take(t, axis=1) + np.stack([ox, oy, oz])  # (3, K)
        centers = grid.origin[:, None] + (cells + 0.5) * grid.cell_size
        # triangle plane first: cheapest and most selective
        d = np.einsum("ck,ck->k", tris[:, 0].take(t, axis=1) - centers, n.take(t, axis=1))
        keep = np.flatnonzero(np.abs(d) <= plane_r[t])
        t, cells, centers = t[keep], cells.take(keep, axis=1), centers.take(keep, axis=1)
        v = tris.take(t, axis=2) - centers[:, None, :]  # (3, 3 vertices, K)
        # box face axes
        ok = np.all((v.max(axis=1) >= -half - slack) & (v.min(axis=1) <= half + slack), axis=0)
        # 9 edge axes, each a two-term product
        et, rt = e.take(t, axis=2), axis_r.take(t, axis=2)
        for j, (m, k) in enumerate(axes):
            for i in range(3):
                p = v[m] * et[k, i] - v[k] * et[m, i]  # (3 vertices, K)
                ok &= (p.min(axis=0) <= rt[j, i]) & (p.max(axis=0) >= -rt[j, i])
        hit = cells[:, ok]
        labels[hit[0], hit[1], hit[2]] = MESH
    grid.labels = labels
    return labels


def voxelize_mesh(mesh: Mesh, resolution: int) -> VoxelGrid:
    grid = build_grid(mesh, resolution)
    voxelize_surface(mesh, grid)
    return grid


def rasterize_bone(start, end, grid: VoxelGrid) -> np.ndarray:
    """Cells crossed by the segment, in traversal order ((S, 3) array).

    A zero-length bone yields the single cell containing its point.  Each
    axis takes exactly as many steps as it has faces to cross, then leaves
    the race, so the walk ends in the end cell even through a tie.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    for p, which in ((start, "start"), (end, "end")):
        if not grid.contains_point(p):
            raise ValueError(f"bone {which} point {p.tolist()} lies outside the voxel grid")
    cell = grid.cell_of(start)[0].tolist()
    goal = grid.cell_of(end)[0].tolist()
    # the walk runs on Python floats and ints: numpy's float64 arithmetic
    # without its per-scalar call cost
    s, d = start.tolist(), (end - start).tolist()
    origin, size = grid.origin.tolist(), float(grid.cell_size)
    step = [(x > 0) - (x < 0) for x in d]
    left = [abs(g - c) for g, c in zip(goal, cell)]
    t_max, t_delta = [math.inf] * 3, [math.inf] * 3
    for a in range(3):
        if left[a]:
            boundary = origin[a] + (cell[a] + (step[a] > 0)) * size
            t_max[a] = (boundary - s[a]) / d[a]
            t_delta[a] = size / abs(d[a])
    out = [cell]
    for _ in range(sum(left)):
        a = min(range(3), key=t_max.__getitem__)  # the first minimum, as np.argmin
        cell = cell.copy()
        cell[a] += step[a]
        left[a] -= 1
        t_max[a] = t_max[a] + t_delta[a] if left[a] else math.inf
        out.append(cell)
    return np.array(out, dtype=np.int64)


def export_grid(grid: VoxelGrid, path) -> None:
    """Debug export: grid metadata plus run-length-encoded labels."""
    flat = grid.labels.reshape(-1)
    change = np.flatnonzero(np.diff(flat)) + 1
    starts = np.concatenate([[0], change])
    lengths = np.diff(np.concatenate([starts, [flat.size]]))
    runs = [[int(flat[s]), int(l)] for s, l in zip(starts, lengths)]
    write_json({"origin": grid.origin.tolist(), "cell_size": grid.cell_size,
                "resolution": grid.resolution, "rle_labels": runs}, path)
