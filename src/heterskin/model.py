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
from .autodiff import SegmentLayout, Tensor
from .hgraph import HeterGraph, build_graph, pair_layouts
from .hollowdist import compute_all, euclidean_all
from .rigcore import (Rig, RigError, WeightRows, check_integer, check_integers, check_nonnegative,
                      merge_rig)
from .voxelize import build_grid, voxelize_mesh

KL_EPS = 1e-8  # floor for ground-truth mass inside the KL term

# the paper's training recipe
EDGE_DROPOUT = 0.85  # share of one-ring edges dropped in each training pass
FINAL_DROPOUT = 0.5  # dropout after each hidden layer of the final MLP, in training
LEAKY_ALPHA = 0.2  # negative slope of every leaky ReLU
VAR_SCALE = 0.1  # damping of the variance bones pool from their vertices
LEARNING_RATE = 1e-4  # Adam step size of `train`
WEIGHT_DECAY = 1e-4  # Adam's decoupled weight decay in `train`

# the values HyperParams.distance_mode accepts; the first is the default
DISTANCE_MODES = ("hollow", "euclidean")


@dataclass(frozen=True)
class HyperParams:
    k: int = 3
    vertex_local: int = 256
    vertex_global: int = 512
    bone_local: int = 128
    bone_global: int = 512
    final_dims: tuple[int, ...] = (1024, 512)
    lambda_smooth: float = 0.4  # 0 is the smoothness ablation
    local_stages: int = 3
    distance_mode: str = DISTANCE_MODES[0]
    resolution: int = 88
    geo_threshold: float = 0.06

    def __post_init__(self):
        for name in ("k", "vertex_local", "vertex_global", "bone_local", "bone_global",
                     "local_stages", "resolution"):
            check_integer(getattr(self, name), name)
        check_integers(self.final_dims, "final_dims entry")
        if min(self.k, self.vertex_local, self.vertex_global, self.bone_local,
               self.bone_global, *self.final_dims) < 1:
            raise ValueError("feature dimensions and K must be >= 1")
        if self.local_stages < 0:
            raise ValueError(f"local_stages must be >= 0, got {self.local_stages}")
        check_nonnegative(self.lambda_smooth, "lambda_smooth")
        check_nonnegative(self.geo_threshold, "geo_threshold")
        if self.distance_mode not in DISTANCE_MODES:
            raise ValueError(f"unknown distance mode {self.distance_mode!r}")
        if self.resolution < 4:
            raise ValueError(f"resolution must be >= 4, got {self.resolution}")


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


def edge_conv(f: Tensor, src: SegmentLayout, dst: SegmentLayout, w: Tensor) -> Tensor:
    """Max over neighbors j of MLP(f_i || f_i - f_j), over the directed
    edges of an `edge_layouts` pair."""
    return ad.leaky_relu(ad.edge_max(f, src, dst, w), LEAKY_ALPHA)


def mesh_conv(f_v: Tensor, ring_edges: tuple, geo_edges: tuple,
              w_ring: Tensor, w_geo: Tensor, w_merge: Tensor) -> Tensor:
    a = edge_conv(f_v, ring_edges[0], ring_edges[1], w_ring)
    b = edge_conv(f_v, geo_edges[0], geo_edges[1], w_geo)
    return ad.leaky_relu(ad.gather_matmul([(a, None), (b, None)], w_merge), LEAKY_ALPHA)


def vertex_to_bone(f_v: Tensor, f_b: Tensor, topk: tuple[SegmentLayout, SegmentLayout],
                   w: Tensor) -> Tensor:
    """Bones gather max/mean/damped-variance over their influenced vertices."""
    vertex_of_slot, bone_of_slot = topk
    slot_feats = ad.gather_rows(f_v, vertex_of_slot)
    mx = ad.segment_max(slot_feats, bone_of_slot)
    mean = ad.segment_mean(slot_feats, bone_of_slot)
    var = ad.scale(ad.segment_var(slot_feats, bone_of_slot), VAR_SCALE)
    h = ad.gather_matmul([(f_b, None), (mx, None), (mean, None), (var, None)], w)
    return ad.leaky_relu(h, LEAKY_ALPHA)


def bone_to_vertex(f_v: Tensor, f_b: Tensor, columns: tuple[SegmentLayout, ...],
                   w: Tensor) -> Tensor:
    """Vertices concatenate their Top-K bones' features in distance order;
    ``columns`` holds one layout over the bones per Top-K column."""
    parts = [(f_v, None), *((f_b, col) for col in columns)]
    return ad.leaky_relu(ad.gather_matmul(parts, w), LEAKY_ALPHA)


def final_head(f_v: Tensor, f_b: Tensor, g_v: Tensor, g_b: Tensor,
               columns: tuple[SegmentLayout, ...], pool: SegmentLayout, w: Tensor) -> Tensor:
    """The first final layer's product: each vertex's features, its Top-K
    bones' and the two global vectors side by side, times ``w``.  ``pool``
    puts every vertex in segment 0, so each vertex reads the one global row."""
    parts = [(f_v, None), *((f_b, col) for col in columns), (g_v, pool), (g_b, pool)]
    return ad.gather_matmul(parts, w)


def global_branch(f: Tensor, pool: SegmentLayout, w: Tensor) -> Tensor:
    """Max-pool over all rows of f (``pool`` puts every row in segment 0)."""
    if f.value.shape[0] == 0:
        raise ad.AutodiffError("global branch over an empty node set")
    pooled = ad.segment_max(f, pool)
    return ad.leaky_relu(ad.matmul(pooled, w), LEAKY_ALPHA)


# ---------------------------------------------------------------------------
# forward / loss


def forward(graph: HeterGraph, params: dict[str, Tensor], h: HyperParams,
            rng: np.random.Generator | None = None) -> Tensor:
    """The (N, K) convex weights of a graph's vertices.  With an ``rng`` the
    pass is a training pass: it drops one-ring edges and final-layer
    features with the draws it takes from ``rng``."""
    if graph.k != h.k:
        raise ValueError(f"graph K={graph.k} does not match hyperparameter K={h.k}")

    # graph-only layouts are cached on the graph; dropped ring edges change
    # every training pass and are shared by its mesh convolutions
    if rng is not None:
        pairs = graph.mesh_edges[rng.random(len(graph.mesh_edges)) >= EDGE_DROPOUT]
        ring = pair_layouts(pairs, graph.num_vertices)
    else:
        ring = graph.ring_layouts
    geo, skel, topk = graph.geo_layouts, graph.skel_layouts, graph.topk_layouts
    columns = graph.topk_columns
    vertex_pool, bone_pool = graph.pool_layouts

    bone_attr = Tensor(graph.bone_attr)

    # lift raw attributes through the first inter-graph convolution
    f_v = bone_to_vertex(Tensor(graph.vertex_attr), bone_attr, columns, params["inter0.b2v"])
    f_b = vertex_to_bone(f_v, bone_attr, topk, params["inter0.v2b"])

    f_v = mesh_conv(f_v, ring, geo, params["mesh0.ring"],
                    params["mesh0.geo"], params["mesh0.merge"])
    f_b = edge_conv(f_b, *skel, params["skel0.conv"])

    g_v = global_branch(f_v, vertex_pool, params["global.vertex"])
    g_b = global_branch(f_b, bone_pool, params["global.bone"])

    for s in range(h.local_stages):
        f_v = mesh_conv(f_v, ring, geo, params[f"stage{s}.mesh.ring"],
                        params[f"stage{s}.mesh.geo"], params[f"stage{s}.mesh.merge"])
        f_b = edge_conv(f_b, *skel, params[f"stage{s}.skel.conv"])
        f_v = bone_to_vertex(f_v, f_b, columns, params[f"stage{s}.inter.b2v"])
        f_b = vertex_to_bone(f_v, f_b, topk, params[f"stage{s}.inter.v2b"])

    feat = final_head(f_v, f_b, g_v, g_b, columns, vertex_pool, params["final.0"])
    for i in range(1, len(h.final_dims) + 1):
        feat = ad.leaky_relu(feat, LEAKY_ALPHA)
        if rng is not None:
            feat = ad.dropout(feat, FINAL_DROPOUT, rng)
        feat = ad.matmul(feat, params[f"final.{i}"])
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
    return max(build_grid(rig.mesh, h.resolution).cell_size / 2, 1e-6)


def rig_graph(rig: Rig, d: np.ndarray, h: HyperParams) -> HeterGraph:
    """The graph of a merged rig over its (N, B) distance matrix ``d``; the
    one builder behind training, prediction and ``heterskin graph``."""
    return build_graph(rig.mesh, rig.skeleton, d, h.k, h.geo_threshold,
                       attribute_clamp(rig, h))


def prepare_sample(rig: Rig, h: HyperParams) -> TrainSample:
    if rig.weights is None:
        raise ValueError(f"rig {rig.name!r} has no ground-truth weights")
    rig, _ = merge_rig(rig)
    graph = rig_graph(rig, distance_matrix(rig, h), h)
    return TrainSample(rig.name, graph, project_ground_truth(rig.weights, graph.topk))


def train(samples: list[TrainSample], h: HyperParams, epochs: int, seed: int = 0,
          lr: float = LEARNING_RATE, wd: float = WEIGHT_DECAY
          ) -> tuple[dict[str, Tensor], list[float]]:
    """One Adam step per rig per epoch; rig order reshuffled each epoch.
    Zero epochs return the initial parameters."""
    if not samples:
        raise ValueError("training requires at least one rig")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    check_nonnegative(lr, "lr")
    check_nonnegative(wd, "wd")
    params = init_params(h, seed)
    state = ad.AdamState()
    rng = np.random.default_rng(seed + 1)
    history: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(len(samples))
        total = 0.0
        for si in order:
            s = samples[si]
            pred = forward(s.graph, params, h, rng)
            step_loss = loss(pred, s.gt_topk, s.graph.topk, s.graph.laplacian, h.lambda_smooth)
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
    return WeightRows.from_arrays(graph.topk, forward(graph, params, h).value, graph.num_bones)


def predict(rig: Rig, params: dict[str, Tensor], h: HyperParams) -> WeightRows:
    """Full pipeline on an unmerged rig; merged-away vertices receive the
    surviving vertex's prediction."""
    merged, mapping = merge_rig(rig)
    rows = predict_from_graph(rig_graph(merged, distance_matrix(merged, h), h), params, h)
    return rows.take(mapping)


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
    invalid `HyperParams` (such as the six fields earlier headers list, now
    constants) or a shape entry that is not an integer, when the parameter
    names, order or shapes differ from what those hyperparameters define,
    and when the file is shorter or longer than the header says.
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
            check_integers([n for _, shape in layout for n in shape], "parameter dimension")
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
