"""Procedural rigged-character generator with ground-truth weights.

Characters are random joint trees with capsule-like tubes swept around
each real bone, optionally plus a detached prop sphere and a bone lying
entirely outside the mesh, so the distance-field restart path and the
out-of-body case are always exercisable without external data.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .hgraph import ring_adjacency, topk_bones
from .hollowdist import compute_all, rasterize_bone
from .rigcore import Mesh, Rig, Skeleton, WeightRows
from . import rigcore
from .voxelize import voxelize_mesh

MAX_DEPTH = 4  # deepest joint of a random tree, the root at depth 0
GT_SUPPORT = 3  # nearest bones that share a vertex's ground-truth weight
GT_SMOOTHING_PASSES = 10  # one-ring averaging passes over the ground truth


@dataclass(frozen=True)
class SynthConfig:
    bones_min: int = 6
    bones_max: int = 20
    radial_segments: int = 8
    rings_per_bone: int = 6
    prop_probability: float = 0.3
    antenna_probability: float = 0.3
    resolution: int = 48  # grid used while painting ground truth

    def __post_init__(self):
        if not (0 <= self.prop_probability <= 1 and 0 <= self.antenna_probability <= 1):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.bones_min > self.bones_max:
            raise ValueError("empty bone count range")


def _perp_frame(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ref = np.array([0.0, 0.0, 1.0]) if abs(direction[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    u = np.cross(direction, ref)
    u /= np.linalg.norm(u)
    return u, np.cross(direction, u)


def _tube(start, end, radius, segments, rings, verts, tris):
    direction = end - start
    length = np.linalg.norm(direction)
    direction = direction / length
    u, v = _perp_frame(direction)
    base = len(verts)
    angles = np.linspace(0, 2 * np.pi, segments, endpoint=False)
    for t in np.linspace(0.0, 1.0, rings):
        center = start + t * length * direction
        # taper toward the ends for a capsule-like profile
        r = radius * (0.35 + 0.65 * np.sin(np.pi * (0.08 + 0.84 * t)))
        for a in angles:
            verts.append(center + r * (np.cos(a) * u + np.sin(a) * v))
    for ring in range(rings - 1):
        for s in range(segments):
            a = base + ring * segments + s
            b = base + ring * segments + (s + 1) % segments
            c = a + segments
            d = b + segments
            tris.append([a, b, d])
            tris.append([a, d, c])
    cap0 = len(verts)
    verts.append(start - 0.02 * direction * length)
    cap1 = len(verts)
    verts.append(end + 0.02 * direction * length)
    for s in range(segments):
        a = base + s
        b = base + (s + 1) % segments
        tris.append([cap0, b, a])
        a = base + (rings - 1) * segments + s
        b = base + (rings - 1) * segments + (s + 1) % segments
        tris.append([cap1, a, b])


def _sphere(center, radius, verts, tris, stacks=5, slices=8):
    base = len(verts)
    verts.append(center + np.array([0.0, radius, 0.0]))
    for i in range(1, stacks):
        phi = np.pi * i / stacks
        for j in range(slices):
            theta = 2 * np.pi * j / slices
            verts.append(center + radius * np.array([
                np.sin(phi) * np.cos(theta), np.cos(phi), np.sin(phi) * np.sin(theta)]))
    bottom = len(verts)
    verts.append(center - np.array([0.0, radius, 0.0]))
    ring = lambda i: base + 1 + (i - 1) * slices
    for j in range(slices):
        tris.append([base, ring(1) + (j + 1) % slices, ring(1) + j])
    for i in range(1, stacks - 1):
        for j in range(slices):
            a = ring(i) + j
            b = ring(i) + (j + 1) % slices
            c = ring(i + 1) + j
            d = ring(i + 1) + (j + 1) % slices
            tris.append([a, b, d])
            tris.append([a, d, c])
    for j in range(slices):
        tris.append([bottom, ring(stacks - 1) + j, ring(stacks - 1) + (j + 1) % slices])


def _random_tree(rng: np.random.Generator, config: SynthConfig):
    """Joint parents/depths with total bone count inside the configured
    range (real bones + one helper per leaf)."""
    for _ in range(200):
        n = int(rng.integers(4, 11))
        parents = [-1]
        depth = [0]
        for i in range(1, n):
            cand = [j for j in range(i) if depth[j] < MAX_DEPTH]
            p = int(rng.choice(cand))
            parents.append(p)
            depth.append(depth[p] + 1)
        leaves = sum(1 for j in range(n) if j not in parents)
        b = (n - 1) + leaves
        if config.bones_min <= b <= config.bones_max:
            return np.asarray(parents, dtype=np.int64)
    raise RuntimeError("failed to sample a joint tree inside the bone count range")


def _attempt(config: SynthConfig, rng: np.random.Generator) -> Rig | None:
    parents = _random_tree(rng, config)
    n = len(parents)
    positions = np.zeros((n, 3))
    for i in range(1, n):
        d = rng.normal(size=3)
        d[1] += 0.6  # bias upward for a plausible height axis
        d /= np.linalg.norm(d)
        positions[i] = positions[parents[i]] + d * rng.uniform(0.14, 0.3)

    meshless: set[tuple[int, int]] = set()
    antenna_pair = None
    if rng.random() < config.antenna_probability:
        host = int(rng.integers(0, n))
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        a_pos = positions[host] + d * rng.uniform(0.2, 0.3)
        a2_pos = a_pos + d * rng.uniform(0.08, 0.15)
        positions = np.concatenate([positions, [a_pos], [a2_pos]])
        parents = np.concatenate([parents, [host], [n]])
        meshless.add((host, n))
        meshless.add((n, n + 1))
        antenna_pair = (n, n + 1)
        n += 2

    verts: list[np.ndarray] = []
    tris: list[list[int]] = []
    for child in range(len(parents)):
        p = int(parents[child])
        if p < 0 or (p, child) in meshless:
            continue
        length = np.linalg.norm(positions[child] - positions[p])
        radius = np.clip(0.33 * length, 0.03, 0.09)
        _tube(positions[p], positions[child], radius,
              config.radial_segments, config.rings_per_bone, verts, tris)
    if rng.random() < config.prop_probability:
        host = int(rng.integers(0, len(parents)))
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        center = positions[host] + d * rng.uniform(0.18, 0.26)
        _sphere(center, rng.uniform(0.05, 0.08), verts, tris)

    vertices = np.asarray(verts)
    height = vertices[:, 1].max() - vertices[:, 1].min()
    if height <= 1e-6:
        return None
    vertices = vertices / height
    positions = positions / height

    lo = vertices.min(axis=0)
    hi = vertices.max(axis=0)
    if np.any(positions < lo - 1e-9) or np.any(positions > hi + 1e-9):
        return None  # a joint escaped the mesh bounds; the grid would not cover it

    mesh = Mesh(vertices, np.asarray(tris, dtype=np.int64))
    skeleton = Skeleton.build([f"joint{i}" for i in range(len(parents))],
                              positions, parents)

    grid = voxelize_mesh(mesh, config.resolution)
    if antenna_pair is not None:
        cells = rasterize_bone(positions[antenna_pair[0]], positions[antenna_pair[1]], grid)
        if grid.labels[cells[:, 0], cells[:, 1], cells[:, 2]].any():
            return None  # antenna must stay entirely outside the surface
    d = compute_all(Rig(mesh, skeleton), grid)

    support = min(GT_SUPPORT, skeleton.num_bones)
    tk = topk_bones(d, support)
    inv2 = (1.0 / np.maximum(np.take_along_axis(d, tk, axis=1), 1e-6)) ** 2
    dense = np.zeros((mesh.num_vertices, skeleton.num_bones))
    np.put_along_axis(dense, tk, inv2 / inv2.sum(axis=1, keepdims=True), axis=1)

    # each row lists its neighbours in ascending order, and the product adds
    # them in that order from 0.0
    adj = ring_adjacency(mesh)
    deg = np.maximum(np.diff(adj.indptr), 1)
    for _ in range(GT_SMOOTHING_PASSES):
        mean = adj @ dense
        mean /= deg[:, None]
        dense = dense + 0.5 * (mean - dense)
    # project back onto each row's nearest-bone support and renormalize
    trunc = np.take_along_axis(dense, tk, axis=1)
    trunc = np.maximum(trunc, 0.0)
    mass = trunc.sum(axis=1, keepdims=True)
    trunc = np.where(mass > 1e-12, trunc / np.maximum(mass, 1e-300), 1.0 / support)
    order = np.argsort(tk, axis=1)
    weights = WeightRows.from_arrays(np.take_along_axis(tk, order, axis=1),
                                     np.take_along_axis(trunc, order, axis=1),
                                     skeleton.num_bones)
    return Rig(mesh, skeleton, weights)


def gen_character(config: SynthConfig, seed: int) -> Rig:
    rng = np.random.default_rng(seed)
    for _ in range(100):
        rig = _attempt(config, rng)
        if rig is not None:
            return Rig(rig.mesh, rig.skeleton, rig.weights, f"synth-{seed}")
    raise RuntimeError(f"failed to generate a valid character for seed {seed}")


def gen_dataset(n: int, config: SynthConfig, seed: int, out_dir) -> list[str]:
    """Write n rig bundles (seeds seed..seed+n-1) plus a manifest file."""
    if n < 1:
        raise ValueError("dataset size must be >= 1")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i in range(n):
        rig = gen_character(config, seed + i)
        path = os.path.join(out_dir, f"rig_{seed + i:05d}.json")
        rigcore.save_rig(rig, path)
        paths.append(path)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        for p in paths:
            f.write(os.path.basename(p) + "\n")
    return paths


def load_manifest(data_dir) -> list[str]:
    manifest = os.path.join(data_dir, "manifest.txt")
    if os.path.exists(manifest):
        with open(manifest) as f:
            return [os.path.join(data_dir, line.strip()) for line in f if line.strip()]
    return sorted(
        os.path.join(data_dir, p) for p in os.listdir(data_dir)
        if p.endswith(".json")
    )
