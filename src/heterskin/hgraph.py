"""Heterogeneous mesh/skeleton graph construction.

Bundles one-ring mesh edges, capped geodesic neighborhoods, shared-joint
skeleton edges, per-vertex Top-K bone bindings, node attribute arrays and
the combinatorial mesh Laplacian, plus the segment layouts the network's
autodiff ops use on them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .autodiff import SegmentLayout
from .rigcore import Mesh, Skeleton

GEO_CAP = 32  # most geodesic neighbours a vertex keeps, the nearest first


def edge_layouts(edges: np.ndarray, n: int) -> tuple[SegmentLayout, SegmentLayout]:
    """Layouts of (E, 2) directed (src, dst) edge rows over n nodes, with a
    self-loop appended for every node that sends no edge: src groups each
    node's incoming messages, dst gathers their senders."""
    lonely = np.flatnonzero(np.bincount(edges[:, 0], minlength=n) == 0)
    return (SegmentLayout(np.concatenate([edges[:, 0], lonely]), n),
            SegmentLayout(np.concatenate([edges[:, 1], lonely]), n))


def pair_layouts(pairs: np.ndarray, n: int) -> tuple[SegmentLayout, SegmentLayout]:
    """`edge_layouts` of (E, 2) undirected pairs over n nodes in both
    directions: the pairs, then each pair reversed.  A node's senders keep
    that order, which `edge_max`'s gradient bytes depend on."""
    return edge_layouts(np.concatenate([pairs, pairs[:, ::-1]]), n)


@dataclass
class HeterGraph:
    """The graph of one rig.  Its arrays are read-only by contract: the
    layout properties are built on first use and cached, so every forward
    pass over the graph shares them."""

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

    @cached_property
    def ring_layouts(self) -> tuple[SegmentLayout, SegmentLayout]:
        """Both directions of the one-ring edges, with nothing dropped."""
        return pair_layouts(self.mesh_edges, self.num_vertices)

    @cached_property
    def geo_layouts(self) -> tuple[SegmentLayout, SegmentLayout]:
        """One (vertex, neighbour) edge per geodesic list entry."""
        centers = np.repeat(np.arange(self.num_vertices), list(map(len, self.geo_neighbors)))
        return edge_layouts(np.stack([centers, np.concatenate(self.geo_neighbors)], axis=1),
                            self.num_vertices)

    @cached_property
    def skel_layouts(self) -> tuple[SegmentLayout, SegmentLayout]:
        return pair_layouts(self.skel_edges, self.num_bones)

    @cached_property
    def topk_layouts(self) -> tuple[SegmentLayout, SegmentLayout]:
        """Slot i*K + j binds vertex i to bone topk[i, j]: the first layout
        is over the N vertices, the second over the B bones."""
        n, k = self.topk.shape
        return (SegmentLayout(np.repeat(np.arange(n), k), n),
                SegmentLayout(self.topk.reshape(-1), self.num_bones))

    @cached_property
    def topk_columns(self) -> tuple[SegmentLayout, ...]:
        """One layout over the B bones per column j of topk: vertex i reads
        bone topk[i, j]."""
        return tuple(SegmentLayout(col, self.num_bones) for col in self.topk.T)

    @cached_property
    def pool_layouts(self) -> tuple[SegmentLayout, SegmentLayout]:
        """One segment over all vertices and one over all bones."""
        return (SegmentLayout(np.zeros(self.num_vertices, dtype=np.int64), 1),
                SegmentLayout(np.zeros(self.num_bones, dtype=np.int64), 1))


def topk_bones(d: np.ndarray, k: int) -> np.ndarray:
    """Indices of the K nearest bones per vertex, ascending distance,
    ties broken by ascending bone index."""
    if k > d.shape[1]:
        raise ValueError(f"K={k} exceeds bone count {d.shape[1]}")
    order = np.argsort(d, axis=1, kind="stable")
    return order[:, :k].astype(np.int64)


def vertex_attributes(positions: np.ndarray, d: np.ndarray, topk: np.ndarray,
                      eps: float) -> np.ndarray:
    """Positions, then the inverse of each Top-K distance clamped below at eps."""
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
    pairs = {pair for bones in by_joint.values() for pair in combinations(bones, 2)}
    if not pairs:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(sorted(pairs), dtype=np.int64)


def geodesic_neighbors(mesh: Mesh, threshold: float, cap: int) -> list[np.ndarray]:
    """Vertices within a shortest-path distance threshold along mesh edges,
    excluding self; at most `cap` nearest are kept."""
    n = mesh.num_vertices
    adj = ring_adjacency(mesh)
    rows = np.repeat(np.arange(n), np.diff(adj.indptr))
    adj.data = np.linalg.norm(mesh.vertices[rows] - mesh.vertices[adj.indices], axis=1)
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


def ring_adjacency(mesh: Mesh) -> sp.csr_matrix:
    """Symmetric (N, N) CSR matrix of ones over one-ring edges; each row
    lists its neighbours in ascending order."""
    n = mesh.num_vertices
    edges = mesh.edges()
    ones = np.ones(len(edges))
    return sp.csr_matrix(
        (np.concatenate([ones, ones]),
         (np.concatenate([edges[:, 0], edges[:, 1]]),
          np.concatenate([edges[:, 1], edges[:, 0]]))),
        shape=(n, n),
    )


def mesh_laplacian(mesh: Mesh) -> sp.csr_matrix:
    """Combinatorial Laplacian L = Deg - Adj over one-ring edges."""
    adj = ring_adjacency(mesh)
    deg = sp.diags(np.asarray(adj.sum(axis=1)).reshape(-1))
    return (deg - adj).tocsr()


def build_graph(mesh: Mesh, skeleton: Skeleton, d: np.ndarray, k: int,
                geo_threshold: float, eps: float) -> HeterGraph:
    tk = topk_bones(d, k)
    return HeterGraph(
        mesh_edges=mesh.edges(),
        geo_neighbors=geodesic_neighbors(mesh, geo_threshold, GEO_CAP),
        skel_edges=skeleton_edges(skeleton),
        topk=tk,
        vertex_attr=vertex_attributes(mesh.vertices, d, tk, eps),
        bone_attr=bone_attributes(skeleton),
        laplacian=mesh_laplacian(mesh),
        num_bones=skeleton.num_bones,
    )
