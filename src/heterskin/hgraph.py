"""Heterogeneous mesh/skeleton graph construction.

Bundles one-ring mesh edges, capped geodesic neighborhoods, shared-joint
skeleton edges, per-vertex Top-K bone bindings, node attribute arrays and
the combinatorial mesh Laplacian.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .rigcore import Mesh, Skeleton

EPS_DIST = 1e-6  # clamp for inverse distances (vertices on bones)


@dataclass
class HeterGraph:
    mesh_edges: np.ndarray  # (E, 2) undirected vertex pairs
    geo_neighbors: list[np.ndarray]  # per-vertex neighbor index arrays
    skel_edges: np.ndarray  # (Es, 2) undirected bone pairs
    topk: np.ndarray  # (N, K) bone indices, ascending distance
    vertex_attr: np.ndarray  # (N, K+3)
    bone_attr: np.ndarray  # (B, 6)
    laplacian: sp.csr_matrix  # (N, N)
    num_bones: int

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_attr)

    @property
    def k(self) -> int:
        return self.topk.shape[1]


def topk_bones(d: np.ndarray, k: int) -> np.ndarray:
    """Indices of the K nearest bones per vertex, ascending distance,
    ties broken by ascending bone index."""
    if k > d.shape[1]:
        raise ValueError(f"K={k} exceeds bone count {d.shape[1]}")
    order = np.argsort(d, axis=1, kind="stable")
    return order[:, :k].astype(np.int64)


def vertex_attributes(positions: np.ndarray, d: np.ndarray, topk: np.ndarray,
                      eps: float = EPS_DIST) -> np.ndarray:
    nearest = np.take_along_axis(d, topk, axis=1)
    inv = 1.0 / np.maximum(nearest, eps)
    return np.concatenate([positions, inv], axis=1)


def bone_attributes(skeleton: Skeleton) -> np.ndarray:
    starts, ends = skeleton.bone_segments()
    return np.concatenate([starts, ends], axis=1)


def skeleton_edges(skeleton: Skeleton) -> np.ndarray:
    """Bone pairs sharing a joint (clique at multi-bone joints)."""
    by_joint: dict[int, list[int]] = {}
    for j, (a, b) in enumerate(skeleton.bones):
        by_joint.setdefault(int(a), []).append(j)
        if b != a:
            by_joint.setdefault(int(b), []).append(j)
    pairs = set()
    for bones in by_joint.values():
        for i in range(len(bones)):
            for j in range(i + 1, len(bones)):
                pairs.add((bones[i], bones[j]))
    if not pairs:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(sorted(pairs), dtype=np.int64)


def geodesic_neighbors(mesh: Mesh, threshold: float = 0.06, cap: int = 32) -> list[np.ndarray]:
    """Vertices within a shortest-path distance threshold along mesh edges,
    excluding self; at most `cap` nearest are kept."""
    n = mesh.num_vertices
    edges = mesh.edges()
    if len(edges) == 0:
        return [np.zeros(0, dtype=np.int64) for _ in range(n)]
    lengths = np.linalg.norm(mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1)
    adj = sp.csr_matrix(
        (np.concatenate([lengths, lengths]),
         (np.concatenate([edges[:, 0], edges[:, 1]]),
          np.concatenate([edges[:, 1], edges[:, 0]]))),
        shape=(n, n),
    )
    out: list[np.ndarray] = []
    chunk = 512
    for lo in range(0, n, chunk):
        idx = np.arange(lo, min(lo + chunk, n))
        dmat = dijkstra(adj, directed=False, indices=idx, limit=threshold)
        for row_i, i in enumerate(idx):
            row = dmat[row_i]
            cand = np.flatnonzero(np.isfinite(row) & (row <= threshold))
            cand = cand[cand != i]
            if len(cand) > cap:
                order = np.lexsort((cand, row[cand]))[:cap]
                cand = np.sort(cand[order])
            out.append(cand.astype(np.int64))
    return out


def mesh_laplacian(mesh: Mesh) -> sp.csr_matrix:
    """Combinatorial Laplacian L = Deg - Adj over one-ring edges."""
    n = mesh.num_vertices
    edges = mesh.edges()
    if len(edges) == 0:
        return sp.csr_matrix((n, n))
    ones = np.ones(len(edges))
    adj = sp.csr_matrix(
        (np.concatenate([ones, ones]),
         (np.concatenate([edges[:, 0], edges[:, 1]]),
          np.concatenate([edges[:, 1], edges[:, 0]]))),
        shape=(n, n),
    )
    deg = sp.diags(np.asarray(adj.sum(axis=1)).reshape(-1))
    return (deg - adj).tocsr()


def build_graph(mesh: Mesh, skeleton: Skeleton, d: np.ndarray, k: int = 3,
                geo_threshold: float = 0.06, geo_cap: int = 32,
                eps: float = EPS_DIST) -> HeterGraph:
    tk = topk_bones(d, k)
    return HeterGraph(
        mesh_edges=mesh.edges(),
        geo_neighbors=geodesic_neighbors(mesh, geo_threshold, geo_cap),
        skel_edges=skeleton_edges(skeleton),
        topk=tk,
        vertex_attr=vertex_attributes(mesh.vertices, d, tk, eps),
        bone_attr=bone_attributes(skeleton),
        laplacian=mesh_laplacian(mesh),
        num_bones=skeleton.num_bones,
    )
