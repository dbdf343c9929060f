"""The skin-weight prediction network: layer operators, forward assembly,
loss, training loop and end-to-end prediction.

The network runs on the heterogeneous graph: an inter-graph convolution
lifts raw attributes, intra-graph edge convolutions refine each subgraph,
global branches pool subgraph-wide context, and a final MLP stack with a
row softmax emits K convex weights per vertex (one per Top-K bone).
"""
from __future__ import annotations

from dataclasses import dataclass, asdict
from itertools import zip_longest

import json
import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .hgraph import HeterGraph, build_graph
from .hollowdist import compute_all, euclidean_all
from .rigcore import Rig, RigError, WeightRows, merge_rig
from .voxelize import voxelize_mesh

KL_EPS = 1e-8  # floor for ground-truth mass inside the KL term


@dataclass(frozen=True)
class HyperParams:
    k: int = 3
    vertex_local: int = 256
    vertex_global: int = 512
    bone_local: int = 128
    bone_global: int = 512
    final_dims: tuple[int, ...] = (1024, 512)
    lambda_smooth: float = 0.4
    edge_dropout: float = 0.85
    final_dropout: float = 0.5
    leaky_alpha: float = 0.2
    var_scale: float = 0.1
    local_stages: int = 3
    distance_mode: str = "hollow"  # or "euclidean"
    smoothing: bool = True
    resolution: int = 88
    geo_threshold: float = 0.06
    geo_cap: int = 32

    def __post_init__(self):
        if self.k < 1 or self.vertex_local < 1 or self.bone_local < 1:
            raise ValueError("feature dimensions and K must be >= 1")
        if not (0 <= self.edge_dropout < 1 and 0 <= self.final_dropout < 1):
            raise ValueError("dropout rates must lie in [0, 1)")
        if self.lambda_smooth < 0:
            raise ValueError("smoothing factor must be >= 0")
        if self.distance_mode not in ("hollow", "euclidean"):
            raise ValueError(f"unknown distance mode {self.distance_mode!r}")


def _param_shapes(h: HyperParams) -> dict[str, tuple[int, int]]:
    fv, fb, k = h.vertex_local, h.bone_local, h.k
    shapes = {
        "inter0.b2v": ((k + 3) + k * 6, fv),
        "inter0.v2b": (6 + 3 * fv, fb),
        "mesh0.ring": (2 * fv, fv),
        "mesh0.geo": (2 * fv, fv),
        "mesh0.merge": (2 * fv, fv),
        "skel0.conv": (2 * fb, fb),
        "global.vertex": (fv, h.vertex_global),
        "global.bone": (fb, h.bone_global),
    }
    for s in range(h.local_stages):
        shapes[f"stage{s}.mesh.ring"] = (2 * fv, fv)
        shapes[f"stage{s}.mesh.geo"] = (2 * fv, fv)
        shapes[f"stage{s}.mesh.merge"] = (2 * fv, fv)
        shapes[f"stage{s}.skel.conv"] = (2 * fb, fb)
        shapes[f"stage{s}.inter.b2v"] = (fv + k * fb, fv)
        shapes[f"stage{s}.inter.v2b"] = (fb + 3 * fv, fb)
    dims = (fv + k * fb + h.vertex_global + h.bone_global,) + tuple(h.final_dims) + (k,)
    for i in range(len(dims) - 1):
        shapes[f"final.{i}"] = (dims[i], dims[i + 1])
    return shapes


def init_params(h: HyperParams, seed: int = 0) -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    shapes = _param_shapes(h)
    logit_layer = f"final.{len(h.final_dims)}"
    params = {}
    for name, shape in shapes.items():
        if name == logit_layer:
            # zero start keeps the output softmax near uniform; a scaled random
            # start spreads the logits wide enough to freeze training at a
            # one-hot output
            value = np.zeros(shape)
        else:
            value = ad.kaiming_normal(shape, fan_in=shape[0], rng=rng)
        params[name] = Tensor(value, name=name)
    return params


# ---------------------------------------------------------------------------
# layer operators


def _directed_edges(pairs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
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


def _neighbor_edges(neighbors: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Directed (center, neighbor) edges from per-node lists, with
    self-loops for empty lists."""
    src, dst = [], []
    for i, nb in enumerate(neighbors):
        if len(nb):
            src.append(np.full(len(nb), i, dtype=np.int64))
            dst.append(nb)
        else:
            src.append(np.asarray([i], dtype=np.int64))
            dst.append(np.asarray([i], dtype=np.int64))
    return np.concatenate(src), np.concatenate(dst)


def edge_conv(f: Tensor, src: np.ndarray, dst: np.ndarray, w: Tensor,
              alpha: float) -> Tensor:
    """Max over neighbors j of MLP(f_i || f_i - f_j)."""
    fi = ad.gather_rows(f, src)
    fj = ad.gather_rows(f, dst)
    h = ad.concat_cols([fi, ad.sub(fi, fj)])
    h = ad.leaky_relu(ad.matmul(h, w), alpha)
    return ad.segment_max(h, src, f.value.shape[0])


def skeleton_conv(f_b: Tensor, skel_edges: np.ndarray, w: Tensor, alpha: float) -> Tensor:
    src, dst = _directed_edges(skel_edges, f_b.value.shape[0])
    return edge_conv(f_b, src, dst, w, alpha)


def mesh_conv(f_v: Tensor, ring_edges: tuple[np.ndarray, np.ndarray],
              geo_edges: tuple[np.ndarray, np.ndarray],
              w_ring: Tensor, w_geo: Tensor, w_merge: Tensor, alpha: float) -> Tensor:
    a = edge_conv(f_v, ring_edges[0], ring_edges[1], w_ring, alpha)
    b = edge_conv(f_v, geo_edges[0], geo_edges[1], w_geo, alpha)
    return ad.leaky_relu(ad.matmul(ad.concat_cols([a, b]), w_merge), alpha)


def vertex_to_bone(f_v: Tensor, f_b: Tensor, topk: np.ndarray, num_bones: int,
                   w: Tensor, alpha: float, var_scale: float) -> Tensor:
    """Bones gather max/mean/damped-variance over their influenced vertices."""
    vertex_of_slot = np.repeat(np.arange(topk.shape[0]), topk.shape[1])
    bone_of_slot = topk.reshape(-1)
    slot_feats = ad.gather_rows(f_v, vertex_of_slot)
    mx = ad.segment_max(slot_feats, bone_of_slot, num_bones)
    mean = ad.segment_mean(slot_feats, bone_of_slot, num_bones)
    var = ad.scale(ad.segment_var(slot_feats, bone_of_slot, num_bones), var_scale)
    h = ad.concat_cols([f_b, mx, mean, var])
    return ad.leaky_relu(ad.matmul(h, w), alpha)


def bone_to_vertex(f_v: Tensor, f_b: Tensor, topk: np.ndarray, w: Tensor,
                   alpha: float) -> Tensor:
    """Vertices concatenate their Top-K bones' features in distance order."""
    parts = [f_v] + [ad.gather_rows(f_b, topk[:, j]) for j in range(topk.shape[1])]
    return ad.leaky_relu(ad.matmul(ad.concat_cols(parts), w), alpha)


def global_branch(f: Tensor, w: Tensor, alpha: float) -> Tensor:
    if f.value.shape[0] == 0:
        raise ad.AutodiffError("global branch over an empty node set")
    pooled = ad.segment_max(f, np.zeros(f.value.shape[0], dtype=np.int64), 1)
    return ad.leaky_relu(ad.matmul(pooled, w), alpha)


# ---------------------------------------------------------------------------
# forward / loss


def forward(graph: HeterGraph, params: dict[str, Tensor], h: HyperParams,
            train_mode: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    if graph.k != h.k:
        raise ValueError(f"graph K={graph.k} does not match hyperparameter K={h.k}")
    if train_mode and rng is None:
        rng = np.random.default_rng(0)
    alpha = h.leaky_alpha
    n, b = graph.num_vertices, graph.num_bones

    ring_pairs = graph.mesh_edges
    if train_mode and h.edge_dropout > 0 and len(ring_pairs):
        keep = rng.random(len(ring_pairs)) >= h.edge_dropout
        ring_pairs = ring_pairs[keep]
    ring_edges = _directed_edges(ring_pairs, n)
    geo_edges = _neighbor_edges(graph.geo_neighbors)

    f_v = Tensor(graph.vertex_attr)
    f_b = Tensor(graph.bone_attr)

    # lift raw attributes through the first inter-graph convolution
    f_v = bone_to_vertex(f_v, f_b, graph.topk, params["inter0.b2v"], alpha)
    f_b = vertex_to_bone(f_v, Tensor(graph.bone_attr), graph.topk, b,
                         params["inter0.v2b"], alpha, h.var_scale)

    f_v = mesh_conv(f_v, ring_edges, geo_edges, params["mesh0.ring"],
                    params["mesh0.geo"], params["mesh0.merge"], alpha)
    f_b = skeleton_conv(f_b, graph.skel_edges, params["skel0.conv"], alpha)

    g_v = global_branch(f_v, params["global.vertex"], alpha)
    g_b = global_branch(f_b, params["global.bone"], alpha)

    for s in range(h.local_stages):
        f_v = mesh_conv(f_v, ring_edges, geo_edges, params[f"stage{s}.mesh.ring"],
                        params[f"stage{s}.mesh.geo"], params[f"stage{s}.mesh.merge"], alpha)
        f_b = skeleton_conv(f_b, graph.skel_edges, params[f"stage{s}.skel.conv"], alpha)
        f_v = bone_to_vertex(f_v, f_b, graph.topk, params[f"stage{s}.inter.b2v"], alpha)
        f_b = vertex_to_bone(f_v, f_b, graph.topk, b, params[f"stage{s}.inter.v2b"],
                             alpha, h.var_scale)

    bone_locals = [ad.gather_rows(f_b, graph.topk[:, j]) for j in range(h.k)]
    feat = ad.concat_cols([f_v] + bone_locals +
                          [ad.broadcast_rows(g_v, n), ad.broadcast_rows(g_b, n)])

    num_final = len(h.final_dims) + 1
    for i in range(num_final):
        feat = ad.matmul(feat, params[f"final.{i}"])
        if i < num_final - 1:
            feat = ad.leaky_relu(feat, alpha)
            if train_mode and h.final_dropout > 0:
                feat = ad.dropout(feat, h.final_dropout, rng)
    return ad.row_softmax(feat)


def project_ground_truth(gt: WeightRows, topk: np.ndarray) -> np.ndarray:
    """Ground-truth mass on each vertex's Top-K bones, renormalized over
    that support; rows with negligible support mass fall back to uniform."""
    dense = gt.to_dense()
    proj = np.take_along_axis(dense, topk, axis=1)
    mass = proj.sum(axis=1, keepdims=True)
    low = mass[:, 0] < 1e-6
    proj = np.where(low[:, None], 1.0 / topk.shape[1], proj / np.maximum(mass, 1e-300))
    return proj


def loss(pred: Tensor, gt_topk: np.ndarray, topk: np.ndarray,
         laplacian, lambda_smooth: float) -> Tensor:
    """KL data term plus Laplacian smoothness, both normalized by N."""
    n = pred.value.shape[0]
    rows = pred.value.sum(axis=1)
    if np.any(pred.value < 0) or np.any(np.abs(rows - 1.0) > 1e-6):
        raise ValueError("predicted rows are not convex")
    log_ratio = ad.sub(ad.log(pred), Tensor(np.log(np.maximum(gt_topk, KL_EPS))))
    data = ad.scale(ad.tsum(ad.mul(pred, log_ratio)), 1.0 / n)
    if lambda_smooth == 0:
        return data
    full = ad.scatter_cols(pred, topk, int(topk.max()) + 1)
    smooth = ad.scale(ad.tsum(ad.mul(full, ad.spmm(laplacian, full))), 1.0 / n)
    return ad.add(data, ad.scale(smooth, lambda_smooth))


# ---------------------------------------------------------------------------
# dataset preparation / training


@dataclass
class TrainSample:
    name: str
    graph: HeterGraph
    gt_topk: np.ndarray  # (N, K) projected ground truth
    gt: WeightRows


def distance_matrix(rig: Rig, h: HyperParams) -> np.ndarray:
    if h.distance_mode == "euclidean":
        return euclidean_all(rig)
    grid = voxelize_mesh(rig.mesh, h.resolution)
    return compute_all(rig, grid)


def attribute_clamp(rig: Rig, h: HyperParams) -> float:
    """Inverse-distance clamp for network inputs: half a voxel cell.

    Distances below the grid step carry no geometric information, and the
    raw 1e-6 clamp yields 1e6-scale attributes that saturate the network
    through the global max-pool.
    """
    lo, hi = rig.mesh.aabb()
    cell = float((hi - lo).max()) / (h.resolution - 2)
    return max(cell / 2, 1e-6)


def prepare_sample(rig: Rig, h: HyperParams, merge_tol: float = 1e-6) -> TrainSample:
    rig, _ = merge_rig(rig, merge_tol)
    d = distance_matrix(rig, h)
    graph = build_graph(rig.mesh, rig.skeleton, d, h.k, h.geo_threshold, h.geo_cap,
                        eps=attribute_clamp(rig, h))
    if rig.weights is None:
        raise ValueError(f"rig {rig.name!r} has no ground-truth weights")
    return TrainSample(rig.name, graph, project_ground_truth(rig.weights, graph.topk),
                       rig.weights)


def train(samples: list[TrainSample], h: HyperParams, epochs: int, seed: int = 0,
          lr: float = 1e-4, wd: float = 1e-4,
          params: dict[str, Tensor] | None = None) -> tuple[dict[str, Tensor], list[float]]:
    """One Adam step per rig per epoch; rig order reshuffled each epoch."""
    if not samples:
        raise ValueError("training requires at least one rig")
    if params is None:
        params = init_params(h, seed)
    state = ad.AdamState()
    rng = np.random.default_rng(seed + 1)
    lam = h.lambda_smooth if h.smoothing else 0.0
    history: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(len(samples))
        total = 0.0
        for si in order:
            s = samples[si]
            pred = forward(s.graph, params, h, train_mode=True, rng=rng)
            step_loss = loss(pred, s.gt_topk, s.graph.topk, s.graph.laplacian, lam)
            if not np.isfinite(step_loss.value):
                raise ad.AutodiffError(
                    f"non-finite loss at epoch {epoch}, rig {s.name!r}")
            grads = ad.backward(step_loss, params)
            ad.adam_step(params, grads, state, lr=lr, wd=wd)
            total += float(step_loss.value)
        history.append(total / len(samples))
    return params, history


def predict_from_graph(graph: HeterGraph, params: dict[str, Tensor],
                       h: HyperParams) -> WeightRows:
    pred = forward(graph, params, h, train_mode=False)
    idx = tuple(graph.topk[i].copy() for i in range(graph.num_vertices))
    val = tuple(pred.value[i].copy() for i in range(graph.num_vertices))
    return WeightRows(idx, val, graph.num_bones)


def predict(rig: Rig, params: dict[str, Tensor], h: HyperParams,
            merge_tol: float = 1e-6) -> WeightRows:
    """Full pipeline on an unmerged rig; merged-away vertices receive the
    surviving vertex's prediction."""
    merged, mapping = merge_rig(rig, merge_tol)
    d = distance_matrix(merged, h)
    graph = build_graph(merged.mesh, merged.skeleton, d, h.k, h.geo_threshold, h.geo_cap,
                        eps=attribute_clamp(merged, h))
    rows = predict_from_graph(graph, params, h)
    idx = tuple(rows.indices[mapping[i]] for i in range(rig.mesh.num_vertices))
    val = tuple(rows.values[mapping[i]] for i in range(rig.mesh.num_vertices))
    return WeightRows(idx, val, rows.num_bones)


# ---------------------------------------------------------------------------
# checkpoints


CHECKPOINT_MAGIC = b"heterskin checkpoint v1\n"
_F64 = np.dtype("<f8")


def save_checkpoint(params: dict[str, Tensor], h: HyperParams, path) -> None:
    """Write a binary checkpoint in three parts:

    1. the magic line ``CHECKPOINT_MAGIC``;
    2. a one-line JSON header ``{"hyper": asdict(h), "params": [[name,
       shape], ...]}`` listing the parameters in ``params`` order;
    3. each parameter's values in that order, C-order little-endian float64,
       with nothing between or after them.

    The file holds no timestamp or other run state, so saving the same
    parameters and hyperparameters twice gives identical bytes.
    """
    header = {"hyper": asdict(h),
              "params": [[name, list(t.value.shape)] for name, t in params.items()]}
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(json.dumps(header).encode() + b"\n")
        for t in params.values():
            f.write(np.ascontiguousarray(t.value, dtype=_F64))


def load_checkpoint(path) -> tuple[dict[str, Tensor], HyperParams]:
    """Read a checkpoint written by `save_checkpoint` into fresh, writable
    float64 arrays.

    Raises `RigError` when the magic line is wrong (JSON checkpoints of
    earlier versions included), when the header does not parse or holds
    invalid `HyperParams`, when the parameter names, order or shapes differ
    from what those hyperparameters define, and when the file is shorter or
    longer than the header says.
    """
    with open(path, "rb") as f:
        if f.readline(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise RigError(f"{path}: not a heterskin checkpoint (wrong magic line)")
        try:
            header = json.loads(f.readline())
            hyper = dict(header["hyper"])
            hyper["final_dims"] = tuple(hyper["final_dims"])
            h = HyperParams(**hyper)
            layout = [(name, tuple(shape)) for name, shape in header["params"]]
        except (ValueError, KeyError, TypeError) as e:
            raise RigError(f"{path}: bad checkpoint header: {e}") from e
        expected = list(_param_shapes(h).items())
        for got, want in zip_longest(layout, expected):
            if got != want:
                raise RigError(f"{path}: checkpoint lists parameter {got} where its "
                               f"hyperparameters define {want}")
        params = {}
        for name, shape in layout:
            value = np.empty(shape, dtype=_F64)
            if f.readinto(value) != value.nbytes:
                raise RigError(f"{path}: file ends inside parameter {name!r}")
            params[name] = Tensor(value, name=name)
        if f.read(1):
            raise RigError(f"{path}: trailing bytes after the last parameter")
    return params, h
