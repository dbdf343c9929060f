"""Canonical data model for rigged characters and file IO.

A rig bundle is a JSON document holding the mesh, the joint tree and
(optionally) sparse ground-truth weight rows.  Floats are serialized with
repr-precision so save/load round-trips 64-bit values exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree


class RigError(ValueError):
    """Raised for schema violations and invariant failures in rig data and
    model checkpoints."""


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray  # (N, 3) float64
    triangles: np.ndarray  # (M, 3) int64

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3))
        t = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3))
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        if not np.all(np.isfinite(v)):
            raise RigError("mesh contains non-finite vertex coordinates")
        n = len(v)
        if len(t):
            if t.min() < 0 or t.max() >= n:
                bad = int(np.argmax((t < 0) | (t >= n)).item())
                raise RigError(
                    f"triangle index out of range: triangle {bad // 3} references "
                    f"vertex {t.flat[bad]} of {n}"
                )
            if np.any((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])):
                bad = int(np.argmax((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])))
                raise RigError(f"degenerate triangle {bad}: repeated vertex index")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def edges(self) -> np.ndarray:
        """Undirected one-ring edges as a sorted unique (E, 2) array."""
        t = self.triangles
        if len(t) == 0:
            return np.zeros((0, 2), dtype=np.int64)
        e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e = np.sort(e, axis=1)
        return np.unique(e, axis=0)


@dataclass(frozen=True)
class Skeleton:
    names: tuple[str, ...]
    positions: np.ndarray  # (J, 3) float64
    parents: np.ndarray  # (J,) int64, -1 for the root
    bones: np.ndarray  # (B, 2) joint index pairs, helpers last

    @classmethod
    def build(cls, names, positions, parents) -> "Skeleton":
        positions = np.ascontiguousarray(np.asarray(positions, dtype=np.float64).reshape(-1, 3))
        parents = np.asarray(parents, dtype=np.int64).reshape(-1)
        names = tuple(str(n) for n in names)
        if not (len(names) == len(positions) == len(parents)):
            raise RigError("joint name/position/parent counts differ")
        bones = add_helper_bones(parents)
        return cls(names, positions, parents, bones)

    def __post_init__(self):
        _validate_tree(self.parents)

    @property
    def num_joints(self) -> int:
        return len(self.parents)

    @property
    def num_bones(self) -> int:
        return len(self.bones)

    def bone_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end positions of every bone, (B, 3) each."""
        return self.positions[self.bones[:, 0]], self.positions[self.bones[:, 1]]

    def is_helper(self) -> np.ndarray:
        return self.bones[:, 0] == self.bones[:, 1]


def _validate_tree(parents: np.ndarray) -> None:
    j = len(parents)
    if j == 0:
        raise RigError("skeleton has no joints")
    roots = np.flatnonzero(parents < 0)
    if len(roots) != 1:
        raise RigError(f"skeleton must have exactly one root, found {len(roots)}")
    if parents.max() >= j:
        raise RigError("joint parent index out of range")
    # walk up from each joint; a cycle never reaches the root within j steps
    for i in range(j):
        cur, steps = i, 0
        while parents[cur] >= 0:
            cur = int(parents[cur])
            steps += 1
            if steps > j:
                raise RigError(f"cyclic parent links at joint {i}")


def add_helper_bones(parents) -> np.ndarray:
    """All (parent, child) bones in joint order, then one zero-length
    (leaf, leaf) helper bone per leaf joint in joint order."""
    parents = np.asarray(parents, dtype=np.int64).reshape(-1)
    _validate_tree(parents)
    j = len(parents)
    real = [(int(parents[i]), i) for i in range(j) if parents[i] >= 0]
    has_child = np.zeros(j, dtype=bool)
    for i in range(j):
        if parents[i] >= 0:
            has_child[parents[i]] = True
    helpers = [(i, i) for i in range(j) if not has_child[i]]
    return np.asarray(real + helpers, dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True)
class WeightRows:
    """Per-vertex sparse (bone index, weight) rows."""

    indices: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    num_bones: int

    @classmethod
    def from_pairs(cls, rows, num_bones, renorm_tol=1e-4) -> "WeightRows":
        idx, val = [], []
        for i, row in enumerate(rows):
            ji = np.asarray([p[0] for p in row], dtype=np.int64)
            wi = np.asarray([p[1] for p in row], dtype=np.float64)
            if len(ji) and (ji.min() < 0 or ji.max() >= num_bones):
                raise RigError(f"weight row {i}: bone index out of range [0, {num_bones})")
            if np.any(wi < 0):
                raise RigError(f"weight row {i}: negative weight")
            s = wi.sum()
            if abs(s - 1.0) > renorm_tol:
                raise RigError(f"weight row {i} sums to {s!r}, deviates from 1 by more than {renorm_tol}")
            # skip the division when already normalized so that values
            # serialized and re-read come back bit-identical
            if s > 0 and abs(s - 1.0) > 1e-12:
                wi = wi / s
            idx.append(ji)
            val.append(wi)
        return cls(tuple(idx), tuple(val), int(num_bones))

    @classmethod
    def from_dense(cls, dense: np.ndarray, prune: float = 0.0) -> "WeightRows":
        dense = np.asarray(dense, dtype=np.float64)
        idx, val = [], []
        for row in dense:
            ji = np.flatnonzero(row > prune)
            wi = row[ji]
            wi = wi / wi.sum()
            idx.append(ji)
            val.append(wi)
        return cls(tuple(idx), tuple(val), dense.shape[1])

    def __len__(self) -> int:
        return len(self.indices)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((len(self.indices), self.num_bones))
        for i, (ji, wi) in enumerate(zip(self.indices, self.values)):
            out[i, ji] = wi
        return out

    def row_pairs(self, i: int) -> list[tuple[int, float]]:
        return [(int(j), float(w)) for j, w in zip(self.indices[i], self.values[i])]


@dataclass(frozen=True)
class Rig:
    mesh: Mesh
    skeleton: Skeleton
    weights: WeightRows | None = None
    name: str = "rig"

    def __post_init__(self):
        if self.weights is not None:
            if len(self.weights) != self.mesh.num_vertices:
                raise RigError(
                    f"weight row count {len(self.weights)} != vertex count {self.mesh.num_vertices}"
                )
            if self.weights.num_bones != self.skeleton.num_bones:
                raise RigError(
                    f"weight bone count {self.weights.num_bones} != skeleton bone count "
                    f"{self.skeleton.num_bones}"
                )


def merge_duplicate_vertices(mesh: Mesh, tol: float = 1e-6) -> tuple[Mesh, np.ndarray]:
    """Merge vertices within tol of each other (transitive closure of the
    pairwise relation).  Returns the merged mesh and the old->new index map.
    Degenerate triangles produced by merging are dropped."""
    if tol < 0:
        raise RigError("merge tolerance must be >= 0")
    n = mesh.num_vertices
    if n == 0:
        return mesh, np.zeros(0, dtype=np.int64)
    root = np.arange(n)

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    if tol > 0:
        pairs = cKDTree(mesh.vertices).query_pairs(tol, output_type="ndarray")
    else:
        # exact duplicates only
        _, inv = np.unique(mesh.vertices, axis=0, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        pairs = np.stack([order[:-1], order[1:]], axis=1)
        pairs = pairs[inv[pairs[:, 0]] == inv[pairs[:, 1]]]
    for a, b in pairs:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            root[max(ra, rb)] = min(ra, rb)
    rep = np.asarray([find(i) for i in range(n)])
    keep = np.flatnonzero(rep == np.arange(n))
    new_of_rep = np.full(n, -1, dtype=np.int64)
    new_of_rep[keep] = np.arange(len(keep))
    mapping = new_of_rep[rep]
    tris = mapping[mesh.triangles]
    ok = (tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2]) & (tris[:, 0] != tris[:, 2])
    return Mesh(mesh.vertices[keep], tris[ok]), mapping


def merge_rig(rig: Rig, tol: float = 1e-6) -> tuple[Rig, np.ndarray]:
    """Merge duplicate vertices; merged-away vertices take the weights of
    the surviving vertex."""
    mesh, mapping = merge_duplicate_vertices(rig.mesh, tol)
    weights = None
    if rig.weights is not None:
        first_old = np.full(mesh.num_vertices, -1, dtype=np.int64)
        for old in range(len(mapping) - 1, -1, -1):
            first_old[mapping[old]] = old
        weights = WeightRows(
            tuple(rig.weights.indices[o] for o in first_old),
            tuple(rig.weights.values[o] for o in first_old),
            rig.weights.num_bones,
        )
    return Rig(mesh, rig.skeleton, weights, rig.name), mapping


# ---------------------------------------------------------------------------
# bundle IO


def save_rig(rig: Rig, path) -> None:
    doc = {
        "name": rig.name,
        "vertices": rig.mesh.vertices.tolist(),
        "triangles": rig.mesh.triangles.tolist(),
        "joints": [
            {
                "name": rig.skeleton.names[i],
                "position": rig.skeleton.positions[i].tolist(),
                "parent": int(rig.skeleton.parents[i]),
            }
            for i in range(rig.skeleton.num_joints)
        ],
    }
    if rig.weights is not None:
        doc["weights"] = [rig.weights.row_pairs(i) for i in range(len(rig.weights))]
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


def load_rig(path) -> Rig:
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise RigError(f"{path}: not a valid rig bundle: {e}") from e
    for key in ("vertices", "triangles", "joints"):
        if key not in doc:
            raise RigError(f"{path}: missing field {key!r}")
    mesh = Mesh(np.asarray(doc["vertices"], dtype=np.float64).reshape(-1, 3),
                np.asarray(doc["triangles"], dtype=np.int64).reshape(-1, 3))
    joints = doc["joints"]
    for i, j in enumerate(joints):
        if not isinstance(j, dict):
            raise RigError(f"{path}: joint {i} is not an object")
        for key in ("name", "position", "parent"):
            if key not in j:
                raise RigError(f"{path}: joint {i} is missing field {key!r}")
    skel = Skeleton.build(
        [j["name"] for j in joints],
        [j["position"] for j in joints],
        [j["parent"] for j in joints],
    )
    weights = None
    if doc.get("weights") is not None:
        weights = WeightRows.from_pairs(doc["weights"], skel.num_bones)
    return Rig(mesh, skel, weights, str(doc.get("name", "rig")))


def load_obj_mesh(path) -> Mesh:
    """Import a triangulated OBJ (v/f lines only)."""
    verts, tris = [], []
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise RigError(f"{path}:{ln}: malformed vertex line")
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                idx = [int(p.split("/")[0]) for p in parts[1:]]
                if len(idx) != 3:
                    raise RigError(f"{path}:{ln}: only triangulated faces are supported")
                tris.append([i - 1 if i > 0 else len(verts) + i for i in idx])
    return Mesh(np.asarray(verts, dtype=np.float64).reshape(-1, 3),
                np.asarray(tris, dtype=np.int64).reshape(-1, 3))


def save_obj_mesh(mesh: Mesh, path) -> None:
    with open(path, "w") as f:
        for v in mesh.vertices:
            f.write(f"v {v[0]!r} {v[1]!r} {v[2]!r}\n")
        for t in mesh.triangles:
            f.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")
