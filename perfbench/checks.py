"""Correctness checks the benchmark runs outside its timed region.

Each check takes plain arrays and raises CheckFailed with a reason when the
output breaks a property the method must have, or disagrees with a
computation written here rather than taken from heterskin (point-to-segment
distance, the sequential distance search, the dense skinning sum).
"""
from __future__ import annotations

from collections import deque

import numpy as np

HOLLOW, MESH = 0, 1


class CheckFailed(AssertionError):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_convex_rows(indices, values, num_vertices: int, num_bones: int,
                      tol: float = 1e-9) -> None:
    """One row per input vertex; each row nonnegative, summing to 1, with
    distinct bone indices in [0, num_bones)."""
    _require(len(indices) == len(values) == num_vertices,
             f"{len(indices)} weight rows for {num_vertices} vertices")
    for i, (ji, wi) in enumerate(zip(indices, values)):
        ji = np.asarray(ji)
        wi = np.asarray(wi, dtype=np.float64)
        _require(len(ji) == len(wi) and len(ji) > 0, f"row {i} is empty or ragged")
        _require(np.all(wi >= 0), f"row {i} has a negative weight")
        _require(abs(wi.sum() - 1.0) <= tol, f"row {i} sums to {wi.sum()!r}")
        _require(np.all((ji >= 0) & (ji < num_bones)), f"row {i} has a bone index out of range")
        _require(len(np.unique(ji)) == len(ji), f"row {i} repeats a bone index")


def check_same_rows(indices, values, a: int, b: int) -> None:
    """Vertex b (merged away as a duplicate) carries vertex a's row."""
    _require(np.array_equal(indices[a], indices[b]) and np.array_equal(values[a], values[b]),
             f"duplicate vertex {b} does not carry the row of vertex {a}")


def rows_bytes(indices, values) -> bytes:
    """Exact byte image of a set of weight rows, for identity comparisons."""
    parts = []
    for ji, wi in zip(indices, values):
        ji = np.ascontiguousarray(ji, dtype=np.int64)
        wi = np.ascontiguousarray(wi, dtype=np.float64)
        parts += [np.int64(len(ji)).tobytes(), ji.tobytes(), wi.tobytes()]
    return b"".join(parts)


def segment_distances(points: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """(N, B) Euclidean distance from each point to each closed segment;
    zero-length segments are points."""
    ab = ends - starts  # (B, 3)
    ap = points[:, None, :] - starts[None, :, :]  # (N, B, 3)
    denom = np.einsum("bi,bi->b", ab, ab)
    t = np.einsum("nbi,bi->nb", ap, ab) / np.where(denom > 0, denom, 1.0)
    t = np.where(denom > 0, np.clip(t, 0.0, 1.0), 0.0)
    closest = starts[None, :, :] + t[:, :, None] * ab[None, :, :]
    return np.linalg.norm(points[:, None, :] - closest, axis=2)


def check_distance_bound(d: np.ndarray, points: np.ndarray, starts: np.ndarray,
                         ends: np.ndarray, cell_size: float) -> None:
    """Every wall-respecting distance is finite and no shorter than the
    straight-line distance less one cell diagonal: a path of unit steps
    between cell centres is never shorter than the straight line, and a
    bone's seed cell centre lies within half a diagonal of the bone."""
    _require(np.all(np.isfinite(d)), "non-finite vertex-bone distance")
    euclid = segment_distances(points, starts, ends)
    _require(d.shape == euclid.shape, f"distance matrix shape {d.shape} != {euclid.shape}")
    slack = np.sqrt(3.0) * cell_size + 1e-12
    short = d < euclid - slack
    if short.any():
        first = tuple(int(x) for x in np.argwhere(short)[0])
        raise CheckFailed(f"{int(short.sum())} distances fall below the straight-line "
                          f"bound, first at (vertex, bone) {first}")


def check_mesh_labels(labels: np.ndarray, origin: np.ndarray, cell_size: float,
                      vertices: np.ndarray, triangles: np.ndarray) -> None:
    """The cell holding each vertex and each triangle centroid is MESH.
    Points are located in the inner region, as the grid keeps its
    one-cell border hollow."""
    r = labels.shape[0]
    centroids = vertices[triangles].mean(axis=1)
    for what, points in (("vertex", vertices), ("triangle centroid", centroids)):
        cells = np.clip(np.floor((points - origin) / cell_size).astype(np.int64), 1, r - 2)
        bad = labels[cells[:, 0], cells[:, 1], cells[:, 2]] != MESH
        _require(not bad.any(), f"the cell of {what} {int(np.argmax(bad))} is not labelled MESH")


# fixed expansion order, the same as the library's: +x, -x, +y, -y, +z, -z
_ORDER = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def fifo_distance_field(labels: np.ndarray,
                        seed_cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sequential FIFO search with the mesh barrier and the restart rule.

    Never steps from a MESH cell into a HOLLOW cell.  While a MESH cell is
    unreached, restart from the reached MESH cell with the fewest steps
    (ties: lowest flat index) that borders an unreached HOLLOW cell,
    claiming those neighbours at its step count plus one.  Returns (steps,
    pred) shaped like `labels`: step counts (-1 unreached) and flat indices
    of predecessors (-1 for seeds and unreached cells).

    The grid is padded by one blocked cell per side so the inner loop needs
    no bounds test; padded flat order equals unpadded flat order.
    """
    r = labels.shape[0]
    p = r + 2
    padded_mesh = np.zeros((p, p, p), dtype=bool)
    padded_mesh[1:-1, 1:-1, 1:-1] = labels.astype(bool)
    blocked = np.ones((p, p, p), dtype=bool)
    blocked[1:-1, 1:-1, 1:-1] = False
    mesh = padded_mesh.reshape(-1).tolist()
    steps = np.where(blocked.reshape(-1), -2, -1).tolist()  # -2 marks the padding
    pred = [-1] * (p * p * p)
    offsets = [(dx * p + dy) * p + dz for dx, dy, dz in _ORDER]

    queue: deque[int] = deque()
    for x, y, z in np.asarray(seed_cells, dtype=np.int64).reshape(-1, 3):
        f = ((int(x) + 1) * p + int(y) + 1) * p + int(z) + 1
        if steps[f] == -1:
            steps[f] = 0
            queue.append(f)

    while True:
        while queue:
            cur = queue.popleft()
            nxt = steps[cur] + 1
            from_mesh = mesh[cur]
            for off in offsets:
                nf = cur + off
                if steps[nf] != -1 or (from_mesh and not mesh[nf]):
                    continue
                steps[nf] = nxt
                pred[nf] = cur
                queue.append(nf)
        s = np.asarray(steps)
        m = padded_mesh.reshape(-1)
        if not np.any(m & (s == -1)):
            break
        reached_mesh = np.flatnonzero(m & (s >= 0))
        open_hollow = np.zeros((len(reached_mesh), len(offsets)), dtype=bool)
        for k, off in enumerate(offsets):
            nb = reached_mesh + off
            open_hollow[:, k] = (s[nb] == -1) & ~m[nb]
        cand = reached_mesh[open_hollow.any(axis=1)]
        if cand.size == 0:
            raise CheckFailed("reference search: MESH cells unreachable even by restarts")
        best = int(cand[np.lexsort((cand, s[cand]))[0]])
        for off in offsets:
            nf = best + off
            if steps[nf] == -1 and not mesh[nf]:
                steps[nf] = steps[best] + 1
                pred[nf] = best
                queue.append(nf)

    inner = (slice(1, -1),) * 3
    s = np.asarray(steps).reshape(p, p, p)[inner]
    pr = np.asarray(pred).reshape(p, p, p)[inner]
    # padded flat index -> unpadded flat index
    px, rem = np.divmod(pr, p * p)
    py, pz = np.divmod(rem, p)
    unpadded = ((px - 1) * r + (py - 1)) * r + (pz - 1)
    return s.astype(np.int64), np.where(pr >= 0, unpadded, -1).astype(np.int64)


def check_field_matches_reference(steps: np.ndarray, pred: np.ndarray, labels: np.ndarray,
                                  seed_cells: np.ndarray) -> None:
    """A library distance field equals the sequential search cell for cell."""
    ref_steps, ref_pred = fifo_distance_field(labels, seed_cells)
    diff = np.asarray(steps, dtype=np.int64) != ref_steps
    _require(not diff.any(), f"{int(diff.sum())} cells differ in step count from the "
                             "sequential search")
    diff = np.asarray(pred, dtype=np.int64) != ref_pred
    _require(not diff.any(), f"{int(diff.sum())} cells differ in predecessor from the "
                             "sequential search")


def check_rigid(transforms: np.ndarray, tol: float = 1e-12) -> None:
    """Each 4x4 transform has an orthonormal, orientation-preserving
    rotation block and a (0, 0, 0, 1) bottom row."""
    rot = transforms[:, :3, :3]
    gram = np.einsum("bji,bjk->bik", rot, rot)
    _require(np.max(np.abs(gram - np.eye(3))) <= tol, "a transform is not orthonormal")
    _require(np.max(np.abs(np.linalg.det(rot) - 1.0)) <= tol, "a transform has det != +1")
    _require(np.array_equal(transforms[:, 3, :], np.tile([0.0, 0.0, 0.0, 1.0],
                                                         (len(transforms), 1))),
             "a transform has a projective bottom row")


def dense_weights(indices, values, num_bones: int) -> np.ndarray:
    out = np.zeros((len(indices), num_bones))
    for i, (ji, wi) in enumerate(zip(indices, values)):
        out[i, np.asarray(ji, dtype=np.int64)] = wi
    return out


def check_lbs(deformed: np.ndarray, vertices: np.ndarray, dense: np.ndarray,
              transforms: np.ndarray, tol: float = 1e-12) -> None:
    """Linear blend skinning equals the dense sum_j w_ij (R_j v_i + t_j)."""
    moved = np.einsum("jab,ib->ija", transforms[:, :3, :3], vertices) + transforms[None, :, :3, 3]
    expected = np.einsum("ij,ija->ia", dense, moved)
    err = float(np.max(np.abs(deformed - expected)))
    _require(err <= tol, f"skinned vertices differ from the dense sum by {err:.3g}")


def check_identity_report(report: dict) -> None:
    """Ground truth scored against itself is perfect."""
    _require(report["precision"] == 1.0 and report["recall"] == 1.0,
             f"precision/recall of gt vs gt are {report['precision']}/{report['recall']}")
    _require(report["l1_norm"] == 0.0 and report["dist_err"] == 0.0,
             f"l1/dist_err of gt vs gt are {report['l1_norm']}/{report['dist_err']}")


def check_same_params(saved: dict, loaded: dict) -> None:
    """A checkpoint reloads bit for bit: same names, shapes, dtypes and bytes."""
    _require(sorted(saved) == sorted(loaded), "checkpoint parameter names differ")
    for name, a in saved.items():
        b = loaded[name]
        _require(a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(),
                 f"parameter {name!r} does not round-trip bit for bit")


def check_training(history) -> None:
    """Loss finite every epoch; with two or more epochs, the last epoch's
    mean loss is below the first's."""
    h = np.asarray(history, dtype=np.float64)
    _require(h.size > 0 and np.all(np.isfinite(h)), f"training loss not finite: {history}")
    if h.size >= 2:
        _require(h[-1] < h[0], f"last epoch loss {h[-1]!r} is not below first {h[0]!r}")
