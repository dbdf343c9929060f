"""Independent reference implementations used only by the tests.

These are written for clarity, not speed: a sequential queue-based
distance-field search, an all-pairs vertex dedup scan, a central
finite-difference gradient helper, the two directed-edge builders that
placed each self-loop differently, the edge convolution with one row per
edge (as products and as a concat), the merge, vertex-to-bone,
bone-to-vertex and final-head products over concatenated rows, the
whole-array Adam step, the row-by-row dense weight matrix, the mesh edge
list by row-wise `np.unique`, the geodesic lists one row at a time and
the bone traversal on numpy scalars.  Test code compares the package
against these, never the other way around.
"""
from __future__ import annotations

from collections import deque

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

import heterskin.autodiff as ad

# expansion order must match the library: +x, -x, +y, -y, +z, -z
OFFSETS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def reference_bfs(labels: np.ndarray, seed_cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sequential FIFO distance field with mesh barrier and restarts.

    labels: (R, R, R) bool, True on mesh cells.  seed_cells: (S, 3) int.
    Returns (steps, pred) where steps is int step count (-1 untraversed)
    and pred is the flat index of the previous cell (-1 for seeds).
    """
    r = labels.shape[0]
    mesh = labels.reshape(-1).astype(bool)
    steps = np.full(r * r * r, -1, dtype=np.int64)
    pred = np.full(r * r * r, -1, dtype=np.int64)

    def flat(x, y, z):
        return (x * r + y) * r + z

    queue = deque()
    seen = set()
    for x, y, z in np.asarray(seed_cells, dtype=np.int64):
        f = flat(int(x), int(y), int(z))
        if f in seen:
            continue
        seen.add(f)
        steps[f] = 0
        queue.append(f)

    while True:
        while queue:
            cur = queue.popleft()
            cx, cy, cz = cur // (r * r), (cur // r) % r, cur % r
            for dx, dy, dz in OFFSETS:
                nx, ny, nz = cx + dx, cy + dy, cz + dz
                if not (0 <= nx < r and 0 <= ny < r and 0 <= nz < r):
                    continue
                nf = flat(nx, ny, nz)
                if steps[nf] >= 0:
                    continue
                if mesh[cur] and not mesh[nf]:
                    continue
                steps[nf] = steps[cur] + 1
                pred[nf] = cur
                queue.append(nf)
        untraversed_mesh = np.flatnonzero(mesh & (steps < 0))
        if untraversed_mesh.size == 0:
            break
        best = None
        for cur in np.flatnonzero(mesh & (steps >= 0)):
            cx, cy, cz = cur // (r * r), (cur // r) % r, cur % r
            open_hollow = False
            for dx, dy, dz in OFFSETS:
                nx, ny, nz = cx + dx, cy + dy, cz + dz
                if not (0 <= nx < r and 0 <= ny < r and 0 <= nz < r):
                    continue
                nf = flat(nx, ny, nz)
                if steps[nf] < 0 and not mesh[nf]:
                    open_hollow = True
            if open_hollow:
                # min distance first; ties by cell coordinate (= flat index)
                key = (steps[cur], cur)
                if best is None or key < best:
                    best = key
        if best is None:
            raise RuntimeError("unreachable mesh cells")
        cur = best[1]
        cx, cy, cz = cur // (r * r), (cur // r) % r, cur % r
        for dx, dy, dz in OFFSETS:
            nx, ny, nz = cx + dx, cy + dy, cz + dz
            if not (0 <= nx < r and 0 <= ny < r and 0 <= nz < r):
                continue
            nf = flat(nx, ny, nz)
            if steps[nf] < 0 and not mesh[nf]:
                steps[nf] = steps[cur] + 1
                pred[nf] = cur
                queue.append(nf)
    return steps.reshape(labels.shape), pred.reshape(labels.shape)


def brute_force_dedup(vertices: np.ndarray, tol: float) -> np.ndarray:
    """All-pairs duplicate scan.  Returns old index -> group representative
    (smallest index in the transitive closure of the within-tol relation)."""
    n = len(vertices)
    group = np.arange(n)

    def find(i):
        while group[i] != i:
            group[i] = group[group[i]]
            i = group[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(vertices[i] - vertices[j]) <= tol:
                a, b = find(i), find(j)
                if a != b:
                    group[max(a, b)] = min(a, b)
    return np.array([find(i) for i in range(n)])


def finite_difference(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar fn at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (fn(xp) - fn(xm)) / (2.0 * h)
        it.iternext()
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def directed_edges(pairs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Both directions of undirected pairs plus self-loops for nodes that
    would otherwise have no neighbors."""
    if len(pairs):
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    else:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.int64)
    present = np.zeros(n, dtype=bool)
    present[src] = True
    lonely = np.flatnonzero(~present)
    return np.concatenate([src, lonely]), np.concatenate([dst, lonely])


def neighbor_edges(neighbors: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Directed (center, neighbor) edges from per-node lists, with a
    self-loop in place of each empty list."""
    lens = np.fromiter(map(len, neighbors), dtype=np.int64, count=len(neighbors))
    src = np.repeat(np.arange(len(neighbors), dtype=np.int64), np.maximum(lens, 1))
    dst = src.copy()
    dst[lens[src] > 0] = np.concatenate(neighbors)
    return src, dst


def edge_linear(f, src, dst, w):
    """Rows ``[f_i || f_i - f_j] @ w``, one per directed edge (i, j) of an
    edge layout pair, as ``p[i] + (q[i] - q[j])`` for ``p = f @ w_top`` and
    ``q = f @ w_bot``, two products over the nodes gathered per edge."""
    n, width = f.value.shape
    if w.value.shape[0] != 2 * width:
        raise ad.AutodiffError(f"edge_linear weight {w.shape} for features {f.shape}")
    if src.num != n or dst.num != n or src.idx.size != dst.idx.size:
        raise ad.AutodiffError("edge layouts do not match the features")
    w_top, w_bot = w.value[:width], w.value[width:]
    q = f.value @ w_bot
    out = q[src.idx]
    out -= q[dst.idx]
    out += (f.value @ w_top)[src.idx]

    def bw(g):
        ga = src.incidence @ g
        gd = ga - dst.incidence @ g
        return (ga @ w_top.T + gd @ w_bot.T,
                np.concatenate([f.value.T @ ga, f.value.T @ gd]))

    return ad._make(out, (f, w), bw, "edge_linear")


def edge_rows_conv(f, src, dst, w, alpha: float):
    """Edge convolution with one row per edge: `edge_linear`, a leaky ReLU
    and the max over each node's edges."""
    return ad.segment_max(ad.leaky_relu(edge_linear(f, src, dst, w), alpha), src)


def concat_edge_conv(f, src, dst, w, alpha: float):
    """Edge convolution as the per-edge product ``[f_i || f_i - f_j] @ w``:
    two row gathers, a difference and a concat of (E, 2F) rows, then one
    matmul, a leaky ReLU and the max over each node's edges."""
    fi = ad.gather_rows(f, src)
    fj = ad.gather_rows(f, dst)
    h = ad.concat_cols([fi, ad.sub(fi, fj)])
    return ad.segment_max(ad.leaky_relu(ad.matmul(h, w), alpha), src)


def concat_mesh_conv(f_v, ring, geo, w_ring, w_geo, w_merge, alpha: float):
    """Mesh convolution with its merge as one product over the concatenated
    rows ``[ring || geo]``; each edge convolution is `edge_rows_conv`."""
    a = edge_rows_conv(f_v, *ring, w_ring, alpha)
    b = edge_rows_conv(f_v, *geo, w_geo, alpha)
    return ad.leaky_relu(ad.matmul(ad.concat_cols([a, b]), w_merge), alpha)


def concat_vertex_to_bone(f_v, f_b, topk, w, var_scale: float, alpha: float):
    """Vertex-to-bone convolution as one product over the concatenated rows
    ``[f_b || max || mean || var_scale * var]`` of each bone's vertices."""
    vertex_of_slot, bone_of_slot = topk
    slot_feats = ad.gather_rows(f_v, vertex_of_slot)
    stats = [ad.segment_max(slot_feats, bone_of_slot), ad.segment_mean(slot_feats, bone_of_slot),
             ad.scale(ad.segment_var(slot_feats, bone_of_slot), var_scale)]
    return ad.leaky_relu(ad.matmul(ad.concat_cols([f_b, *stats]), w), alpha)


def reshape(a, shape):
    """The entries of ``a`` in C order, in a new shape."""
    return ad._make(a.value.reshape(shape), (a,), lambda g: (g.reshape(a.value.shape),),
                    "reshape")


def topk_rows(f_b, topk):
    """(N, K*F): each vertex's Top-K bone rows side by side, nearest first,
    from one gather over the slots of a ``(vertex_of_slot, bone_of_slot)``
    layout pair and a reshape."""
    vertex_of_slot, bone_of_slot = topk
    return reshape(ad.gather_rows(f_b, bone_of_slot), (vertex_of_slot.num, -1))


def concat_bone_to_vertex(f_v, f_b, topk, w, alpha: float):
    """Bone-to-vertex convolution as one product over the concatenated rows
    ``[f_v || Top-K bone rows]``, then a leaky ReLU."""
    return ad.leaky_relu(ad.matmul(ad.concat_cols([f_v, topk_rows(f_b, topk)]), w), alpha)


def concat_final_head(f_v, f_b, g_v, g_b, topk, w):
    """The first final layer's product over the concatenated rows
    ``[f_v || Top-K bone rows || g_v || g_b]``, the global rows copied to
    every vertex with `broadcast_rows`."""
    n = f_v.value.shape[0]
    rows = ad.concat_cols([f_v, topk_rows(f_b, topk), ad.broadcast_rows(g_v, n),
                           ad.broadcast_rows(g_b, n)])
    return ad.matmul(rows, w)


def allocating_adam_step(params, grads, state, lr: float = 1e-4, wd: float = 1e-4,
                         beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Adam with decoupled weight decay, one whole-array expression per
    term, each into a fresh array; rebinds every ``p.value``."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise ad.AutodiffError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.value)
            state.v[name] = np.zeros_like(p.value)
        if wd:
            p.value = p.value - lr * wd * p.value
        m = state.m[name] = beta1 * state.m[name] + (1 - beta1) * g
        v = state.v[name] = beta2 * state.v[name] + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p.value = p.value - lr * m_hat / (np.sqrt(v_hat) + eps)


def row_loop_to_dense(weights) -> np.ndarray:
    """The (N, B) dense matrix of `WeightRows`, written one row at a time."""
    out = np.zeros((len(weights.indices), weights.num_bones))
    for i, (ji, wi) in enumerate(zip(weights.indices, weights.values)):
        out[i, ji] = wi
    return out


def row_unique_edges(triangles: np.ndarray) -> np.ndarray:
    """Undirected one-ring edges of (M, 3) triangles as a sorted unique
    (E, 2) array, through `np.unique` over the sorted rows."""
    t = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    if len(t) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    return np.unique(np.sort(e, axis=1), axis=0)


def row_loop_geodesic_neighbors(mesh, threshold: float, cap: int) -> list[np.ndarray]:
    """Geodesic lists one row at a time: `dijkstra` over (512, N) chunks of
    edge-length rows, a scan of all N entries per row, and for a row over
    `cap` a sort by (distance, index) whose first `cap` are kept."""
    n = mesh.num_vertices
    edges = row_unique_edges(mesh.triangles)
    ones = np.ones(len(edges))
    adj = sp.csr_matrix((np.concatenate([ones, ones]),
                         (np.concatenate([edges[:, 0], edges[:, 1]]),
                          np.concatenate([edges[:, 1], edges[:, 0]]))), shape=(n, n))
    rows = np.repeat(np.arange(n), np.diff(adj.indptr))
    adj.data = np.linalg.norm(mesh.vertices[rows] - mesh.vertices[adj.indices], axis=1)
    out: list[np.ndarray] = []
    for lo in range(0, n, 512):
        idx = np.arange(lo, min(lo + 512, n))
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


def scalar_rasterize_bone(start, end, grid) -> np.ndarray:
    """Cells a segment crosses, by incremental grid traversal on numpy
    arrays and scalars (`np.argmin` per cell)."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    cell = grid.cell_of(start)[0].copy()
    goal = grid.cell_of(end)[0]
    if np.array_equal(cell, goal):
        return cell[None, :]
    d = end - start
    step = np.where(d > 0, 1, np.where(d < 0, -1, 0))
    t_max = np.full(3, np.inf)
    t_delta = np.full(3, np.inf)
    for a in range(3):
        if d[a] != 0:
            boundary = grid.origin[a] + (cell[a] + (step[a] > 0)) * grid.cell_size
            t_max[a] = (boundary - start[a]) / d[a]
            t_delta[a] = grid.cell_size / abs(d[a])
    out = [cell.copy()]
    for _ in range(3 * grid.resolution + 3):
        a = int(np.argmin(t_max))
        cell[a] += step[a]
        t_max[a] += t_delta[a]
        out.append(cell.copy())
        if np.array_equal(cell, goal):
            return np.asarray(out)
    raise RuntimeError("bone rasterization failed to reach the end cell")
