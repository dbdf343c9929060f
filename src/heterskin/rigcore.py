"""Canonical data model for rigged characters and file IO.

A rig bundle is a JSON document holding the mesh, the joint tree and
(optionally) sparse ground-truth weight rows.  Floats are serialized with
repr-precision so save/load round-trips 64-bit values exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree


RENORM_TOL = 1e-4  # a weight row summing further from 1 is rejected, a nearer one renormalized
_JSON_NAMES = {dict: "an object", list: "an array"}  # for `read_json`'s messages
_NUMBERS = (int, float, np.integer, np.floating)  # `check_numbers`'s types, bool excepted


class RigError(ValueError):
    """Raised for schema violations and invariant failures in rig data and
    model checkpoints."""


def _array(value, dtype, message: str) -> np.ndarray:
    """``value`` as a ``dtype`` array; raises `RigError` ``message`` where numpy
    cannot convert it (a ragged list, a string, a value beyond ``dtype``)."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as e:
        raise RigError(message) from e


def check_numbers(value, message: str) -> np.ndarray:
    """``value``, a number or a nested list or array of ints, floats, numpy integers
    and numpy floats, as a float64 array of its shape; for a bool, string, null,
    object, ragged list or value beyond float64 raises `RigError` ``message``."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value.astype(np.float64, copy=False)
    leaves = _array(value, object, message)
    if any(t is bool or not issubclass(t, _NUMBERS) for t in set(map(type, leaves.flat))):
        raise RigError(message)
    return _array(leaves, np.float64, message)


def _triples(value, what: str, dtype=np.float64) -> np.ndarray:
    """``value`` as a C-contiguous (n, 3) ``dtype`` array, (0, 3) for an empty list;
    float64 entries must pass `check_numbers`.  Raises `RigError` naming ``what``."""
    message = f"{what} must be an (n, 3) array of numbers"
    a = check_numbers(value, message) if dtype == np.float64 else _array(value, dtype, message)
    if a.shape == (0,):
        a = a.reshape(0, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise RigError(f"{what} must be an (n, 3) array, got shape {a.shape}")
    return np.ascontiguousarray(a)


def check_integer(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int, if it is an int or a numpy integer (not a bool,
    2.0 or "2") in [low, high); otherwise raises `RigError` "{what} {value!r}
    is not an integer", ending " >= {low}" or " in [{low}, {high})"."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (low is not None and value < low) or (high is not None and value >= high)):
        bound = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high})"
        raise RigError(f"{what} {value!r} is not an integer{bound}")
    return int(value)


def check_integers(values, what: str, width: int = 1) -> None:
    """`check_integer` on each entry of the array-like ``values``, flat entry k named
    ``what.format(k // width)``; an integer array or all-int entries pass at once."""
    if (isinstance(values, np.ndarray) and values.dtype.kind in "iu") or set(map(type, values)) <= {int}:
        return
    flat = np.asarray(values, dtype=object).reshape(-1)
    if not set(map(type, flat)) <= {int}:
        for k, x in enumerate(flat):
            check_integer(x, what.format(k // width))


def check_nonnegative(value, what: str) -> None:
    """Raise `RigError` unless ``value``, a number or an array of numbers (see
    `check_numbers`), is finite and >= 0 throughout."""
    if isinstance(value, (int, float)) or np.ndim(value) == 0:
        message = f"{what} must be a finite number >= 0, got {value!r}"
        if not (math.isfinite(check_numbers(value, message)) and value >= 0):
            raise RigError(message)
        return
    a = check_numbers(value, f"{what} must be non-negative numbers")
    bad = np.argwhere(~(np.isfinite(a) & (a >= 0)))[:1].tolist()
    if bad:
        raise RigError(f"{what} must be non-negative numbers; entry {bad[0]} is {a[tuple(bad[0])]}")


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray  # (N, 3) float64
    triangles: np.ndarray  # (M, 3) int64

    def __post_init__(self):
        v = _triples(self.vertices, "vertices")
        t = _triples(self.triangles, "triangles", np.int64)
        check_integers(self.triangles, "triangle {}: vertex index", 3)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        if not np.all(np.isfinite(v)):
            raise RigError("mesh contains non-finite vertex coordinates")
        n = len(v)
        if len(t):
            if t.min() < 0 or t.max() >= n:
                bad = int(np.argmax((t < 0) | (t >= n)))
                raise RigError(f"triangle index out of range: triangle {bad // 3} references "
                               f"vertex {t.flat[bad]} of {n}")
            repeated = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
            if repeated.any():
                raise RigError(f"degenerate triangle {int(np.argmax(repeated))}: repeated vertex index")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def edges(self) -> np.ndarray:
        """Undirected one-ring edges as a sorted unique (E, 2) array."""
        t, n = self.triangles, self.num_vertices
        # each (a, b) pair, a < b, as the one integer a * n + b, in the pairs' order
        a, b = t.reshape(-1), t[:, [1, 2, 0]].reshape(-1)
        keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
        return np.stack(np.divmod(keys, n), axis=1)


@dataclass(frozen=True)
class Skeleton:
    names: tuple[str, ...]
    positions: np.ndarray  # (J, 3) float64
    parents: np.ndarray  # (J,) int64, -1 for the root
    bones: np.ndarray = field(init=False)  # (B, 2) joint index pairs, helpers last
    depths: np.ndarray = field(init=False, repr=False, compare=False)  # (J,) root's is 0

    @classmethod
    def build(cls, names, positions, parents) -> "Skeleton":
        positions = _triples(positions, "joint positions")
        finite = np.isfinite(positions).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise RigError(f"joint {i}: position {positions[i].tolist()} is not finite")
        check_integers(parents, "joint {}: parent")
        parents = _array(parents, np.int64, "joint parent index out of range").reshape(-1)
        names = tuple(names)
        for i, name in enumerate(names):
            if not isinstance(name, str):
                raise RigError(f"joint {i}: name {name!r} is not a string")
        if not (len(names) == len(positions) == len(parents)):
            raise RigError("joint name/position/parent counts differ")
        return cls(names, positions, parents)

    def __post_init__(self):
        object.__setattr__(self, "depths", _validate_tree(self.parents))
        object.__setattr__(self, "bones", add_helper_bones(self.parents))

    @property
    def num_joints(self) -> int:
        return len(self.parents)

    @property
    def num_bones(self) -> int:
        return len(self.bones)

    def bone_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end positions of every bone, (B, 3) each."""
        return self.positions[self.bones[:, 0]], self.positions[self.bones[:, 1]]


def _validate_tree(parents: np.ndarray) -> np.ndarray:
    """Check for a single-rooted tree; returns each joint's depth."""
    j = len(parents)
    if j == 0:
        raise RigError("skeleton has no joints")
    roots = np.flatnonzero(parents < 0)
    if len(roots) != 1:
        raise RigError(f"skeleton must have exactly one root, found {len(roots)}")
    if parents.max() >= j:
        raise RigError("joint parent index out of range")
    # walk up from every joint at once; a walk still going after j steps met a cycle
    depths, up = np.zeros(j, dtype=np.int64), parents.copy()
    for _ in range(j):
        live = up >= 0
        if not live.any():
            return depths
        depths += live
        up[live] = parents[up[live]]
    raise RigError(f"cyclic parent links at joint {int(np.argmax(up >= 0))}")


def add_helper_bones(parents) -> np.ndarray:
    """All (parent, child) bones of a valid tree's ``parents`` in joint order,
    then one zero-length (leaf, leaf) helper bone per leaf joint in joint order."""
    parents = np.asarray(parents, dtype=np.int64).reshape(-1)
    child = np.flatnonzero(parents >= 0)
    leaf = np.setdiff1d(np.arange(len(parents)), parents[child])
    return np.concatenate([np.stack([parents[child], child], 1), np.stack([leaf, leaf], 1)])


@dataclass(frozen=True)
class WeightRows:
    """Per-vertex sparse (bone index, weight) rows."""

    indices: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    num_bones: int

    @classmethod
    def from_pairs(cls, rows, num_bones) -> "WeightRows":
        if check_integer(num_bones, "num_bones", 1) >= 2**63:
            raise RigError(f"num_bones {num_bones} does not fit in 64 bits")
        if not isinstance(rows, (list, tuple)):
            raise RigError(f"weight rows must be a list, got {type(rows).__name__}")
        idx, val = [], []
        for i, row in enumerate(rows):
            pairs = f"weight row {i}: entries must be [bone, weight] pairs"
            try:
                bones, weights = [j for j, _ in row], [w for _, w in row]
            except (TypeError, ValueError) as e:
                raise RigError(pairs) from e
            wi = check_numbers(weights, pairs)
            if wi.ndim != 1:  # a weight given as a list
                raise RigError(pairs)
            for j in bones:
                check_integer(j, f"weight row {i}: bone index")
                if not 0 <= j < num_bones:
                    raise RigError(f"weight row {i}: bone index out of range [0, {num_bones})")
            ji = np.asarray(bones, dtype=np.int64)
            js = np.sort(ji)
            repeated = js[1:][js[1:] == js[:-1]]
            if repeated.size:
                raise RigError(f"weight row {i}: bone {repeated[0]} is listed twice")
            check_nonnegative(wi, f"weight row {i}: weights")
            s = wi.sum()
            if abs(s - 1.0) > RENORM_TOL:
                raise RigError(f"weight row {i} sums to {s!r}, deviates from 1 by more than {RENORM_TOL}")
            # skip the division when already normalized so that values
            # serialized and re-read come back bit-identical
            if s > 0 and abs(s - 1.0) > 1e-12:
                wi = wi / s
            idx.append(ji)
            val.append(wi)
        return cls(tuple(idx), tuple(val), int(num_bones))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "WeightRows":
        """Rows of the positive entries of a dense (N, B) matrix, each
        renormalized to sum to 1."""
        dense = np.asarray(dense, dtype=np.float64)
        idx = tuple(np.flatnonzero(row > 0) for row in dense)
        val = tuple(row[ji] / row[ji].sum() for row, ji in zip(dense, idx))
        return cls(idx, val, dense.shape[1])

    @classmethod
    def from_arrays(cls, indices, values, num_bones) -> "WeightRows":
        """Row i holds row i of the (N, k) arrays ``indices`` and ``values``,
        copied: the rows share no memory with the inputs."""
        return cls(tuple(np.array(indices, dtype=np.int64)),
                   tuple(np.array(values, dtype=np.float64)), int(num_bones))

    def __len__(self) -> int:
        return len(self.indices)

    def take(self, rows) -> "WeightRows":
        """Row i of the result is row ``rows[i]`` of this one."""
        return WeightRows(tuple(self.indices[r] for r in rows),
                          tuple(self.values[r] for r in rows), self.num_bones)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((len(self), self.num_bones))
        if len(self):
            rows = np.repeat(np.arange(len(self)), [len(ji) for ji in self.indices])
            out[rows, np.concatenate(self.indices)] = np.concatenate(self.values)
        return out

    def to_pairs(self) -> list[list[tuple[int, float]]]:
        """Every row as (bone, weight) pairs, the form `from_pairs` reads
        and the weights files and rig bundles hold."""
        return [list(zip(ji.tolist(), wi.tolist())) for ji, wi in zip(self.indices, self.values)]


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
    check_nonnegative(tol, "merge tolerance")
    n = mesh.num_vertices
    try:
        pairs = cKDTree(mesh.vertices).query_pairs(tol, output_type="ndarray")
    except ValueError as e:
        # the tree squares coordinate differences, which overflow from a span near 1e154
        raise RigError("mesh coordinate span is too large to merge duplicate vertices") from e
    graph = coo_array((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    # components are numbered in order of their smallest vertex index
    mapping = connected_components(graph, directed=False)[1].astype(np.int64)
    keep = np.unique(mapping, return_index=True)[1]
    tris = mapping[mesh.triangles]
    ok = (tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2]) & (tris[:, 0] != tris[:, 2])
    return Mesh(mesh.vertices[keep], tris[ok]), mapping


def merge_rig(rig: Rig, tol: float = 1e-6) -> tuple[Rig, np.ndarray]:
    """Merge duplicate vertices; merged-away vertices take the weights of
    the surviving vertex."""
    mesh, mapping = merge_duplicate_vertices(rig.mesh, tol)
    weights = None
    if rig.weights is not None:
        weights = rig.weights.take(np.unique(mapping, return_index=True)[1])
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
        doc["weights"] = rig.weights.to_pairs()
    write_json(doc, path)


def write_json(doc, path) -> None:
    """Write ``doc`` as one line of JSON and a newline, as every JSON file here is written."""
    with open(path, "w") as f:
        f.write(json.dumps(doc) + "\n")


def read_json(path, what: str, top: type, required: dict, optional=None):
    """The JSON document at ``path``, a ``what`` such as "weights file".  Raises
    `RigError` naming the file unless it parses, its top level is a ``top``
    (dict or list), and each field of ``required`` (and of ``optional``, unless
    absent or null) is of the type the dict maps it to (`object`: any)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except ValueError as e:  # a syntax error, or bytes that are not text
        raise RigError(f"{path}: not a valid {what}: {e}") from e
    if not isinstance(doc, top):
        raise RigError(f"{path}: a {what} must be {_JSON_NAMES[top]}")
    if not all(key in doc for key in required):
        raise RigError(f"{path}: a {what} needs {' and '.join(map(json.dumps, required))}")
    for key, want in {**required, **(optional or {})}.items():
        if not isinstance(doc.get(key), want) and (key in required or doc.get(key) is not None):
            raise RigError(f'{path}: "{key}" must be {_JSON_NAMES[want]}')
    return doc


def load_rig(path) -> Rig:
    doc = read_json(path, "rig bundle", dict, {"vertices": list, "triangles": list, "joints": list},
                    {"weights": list})
    mesh = Mesh(doc["vertices"], doc["triangles"])
    joints = doc["joints"]
    for i, j in enumerate(joints):
        if not isinstance(j, dict):
            raise RigError(f"{path}: joint {i} is not an object")
        for key in ("name", "position", "parent"):
            if key not in j:
                raise RigError(f"{path}: joint {i} is missing field {key!r}")
    skel = Skeleton.build([j["name"] for j in joints], [j["position"] for j in joints],
                          [j["parent"] for j in joints])
    weights = None
    if doc.get("weights") is not None:
        weights = WeightRows.from_pairs(doc["weights"], skel.num_bones)
    name = doc.get("name", "rig")
    if not isinstance(name, str):
        raise RigError(f'{path}: "name" must be a string')
    return Rig(mesh, skel, weights, name)


def save_obj_mesh(mesh: Mesh, path) -> None:
    with open(path, "w") as f:
        for v in mesh.vertices:
            f.write(f"v {v[0]!r} {v[1]!r} {v[2]!r}\n")
        for t in mesh.triangles:
            f.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")
