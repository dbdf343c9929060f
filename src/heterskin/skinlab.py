"""Skinning evaluation lab: forward kinematics, linear blend skinning,
randomized pose sampling, the four weight metrics and Top-K coverage."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hgraph import topk_bones
from .rigcore import Rig, RigError, Skeleton, WeightRows

INFLUENCE_TAU = 1e-4
POSE_ANGLE_STD = np.deg2rad(25.0)  # radians; spread of a sampled bone rotation


@dataclass(frozen=True)
class Pose:
    """Per-bone axis/angle rotations; identity for unselected bones.  A
    stack of poses carries the same leading dimensions on both arrays."""

    axes: np.ndarray  # (..., B, 3) unit vectors
    angles: np.ndarray  # (..., B) radians

    def __post_init__(self):
        if not np.all(np.isfinite(self.angles)):
            raise RigError("pose angles must be finite")
        norms = np.linalg.norm(self.axes, axis=-1)
        active = self.angles != 0
        # written so that a NaN axis fails too
        if not np.all(np.abs(norms[active] - 1.0) <= 1e-9):
            raise RigError("pose axes must be unit length")
        # a bone at rest still multiplies its axis by zero; a finite length
        # keeps every product, and so every transform, finite
        if not np.all(np.isfinite(norms)):
            raise RigError("pose axes must have a finite length")

    @classmethod
    def identity(cls, num_bones: int) -> "Pose":
        axes = np.zeros((num_bones, 3))
        axes[:, 0] = 1.0
        return cls(axes, np.zeros(num_bones))


@dataclass
class EvalReport:
    precision: float
    recall: float
    l1_norm: float
    dist_err: float

    def as_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "l1_norm": self.l1_norm,
            "dist_err": self.dist_err,
        }


def forward_kinematics(skeleton: Skeleton, pose: Pose) -> np.ndarray:
    """World transform per bone, (..., B, 4, 4) for a pose stack (...).

    Each bone's rotation acts about its start joint (bind position) and
    composes root-to-leaf; a helper bone applies its own rotation on top
    of its joint's accumulated transform.
    """
    b = skeleton.num_bones
    if pose.angles.shape[-1] != b:
        raise ValueError(f"pose covers {pose.angles.shape[-1]} bones, skeleton has {b}")
    shape = pose.angles.shape
    x, y, z = np.moveaxis(pose.axes, -1, 0)
    c, s = np.cos(pose.angles), np.sin(pose.angles)
    cc = 1.0 - c
    rot = np.stack([
        c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s,
        y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s,
        z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc,
    ], axis=-1).reshape(shape + (3, 3))
    start, end = skeleton.bones.T
    pivot = skeleton.positions[start]
    local = np.zeros(shape + (4, 4))
    local[..., :3, :3] = rot
    local[..., :3, 3] = pivot - (rot @ pivot[:, :, None])[..., 0]
    local[..., 3, 3] = 1.0
    joint_tf = np.broadcast_to(np.eye(4), shape[:-1] + (skeleton.num_joints, 4, 4)).copy()
    out = np.empty_like(local)
    # a bone's start joint is one level above its end joint, so bones in
    # start-depth order find their start joint's transform complete; a
    # helper's end is its own leaf joint, which no later bone reads
    for bone in np.argsort(skeleton.depths[start], kind="stable"):
        out[..., bone, :, :] = joint_tf[..., start[bone], :, :] @ local[..., bone, :, :]
        joint_tf[..., end[bone], :, :] = out[..., bone, :, :]
    return out


def lbs_deform(vertices: np.ndarray, weights: WeightRows, transforms: np.ndarray) -> np.ndarray:
    """v' = sum_j w_ij * T_j(v_i); transforms (..., B, 4, 4) give (..., N, 3).

    Each bone transforms only the vertices it weights, with one product
    over all poses, into a vertex-major (N, 3P) sum.  A skipped term is
    a zero weight times a finite point, an exact +-0, and the sum starts
    at +0.0 and never becomes -0.0, so skipping leaves every byte as the
    dense sum over all vertices would.
    """
    b = weights.num_bones
    if b != transforms.shape[-3]:
        raise ValueError(f"{b} weight bones vs {transforms.shape[-3]} transforms")
    if len(weights) != len(vertices):
        raise ValueError("weight row count does not match vertex count")
    if not np.all(np.isfinite(transforms)):
        raise ValueError("transforms must be finite")
    if not np.all(np.isfinite(vertices)):
        raise ValueError("vertices must be finite")
    lead, n = transforms.shape[:-3], len(vertices)
    tf = transforms.reshape(-1, b, 4, 4)
    cols = 3 * len(tf)
    # Column 3p + a of rot[j].T, the transposed view the per-pose products
    # multiplied by, is R_j[p]'s row a, and shift[j, 3p + a] = t_j[p][a].
    # Zero columns pad the width to a multiple of 8: OpenBLAS's 4-wide
    # edge kernel rounds unlike the kernels the (N, 3) @ (3, 3) ran on.
    width = -(-cols // 8) * 8
    rot = np.zeros((b, width, 3))
    rot[:, :cols] = tf[..., :3, :3].transpose(1, 0, 2, 3).reshape(b, cols, 3)
    shift = np.zeros((b, width))
    shift[:, :cols] = tf[..., :3, 3].transpose(1, 0, 2).reshape(b, cols)
    out = np.zeros((n, width))
    dense = weights.to_dense()
    for j in range(b):
        rows = np.flatnonzero(dense[:, j])
        if not len(rows):
            continue
        # numpy sends every one-row product to gemv, which rounds unlike
        # gemm; the per-pose products had one row only on a one-vertex mesh
        lone = len(rows) == 1 < n
        moved = (vertices[rows.repeat(2) if lone else rows] @ rot[j].T)[:len(rows)]
        moved += shift[j]
        moved *= dense[rows, j, None]
        out[rows] += moved
    deformed = out[:, :cols].reshape(n, -1, 3).transpose(1, 0, 2)
    return np.ascontiguousarray(deformed).reshape(lead + (n, 3))


def sample_poses(skeleton: Skeleton, count: int = 10, seed: int = 0,
                 fraction: float = 0.3) -> list[Pose]:
    """Random poses: ceil(fraction * B) bones get a uniform random axis and
    a normal(0, POSE_ANGLE_STD) rotation angle."""
    if count < 1:
        raise ValueError("pose count must be >= 1")
    rng = np.random.default_rng(seed)
    b = skeleton.num_bones
    rotated = int(np.ceil(fraction * b))
    poses = []
    for _ in range(count):
        chosen = rng.choice(b, size=rotated, replace=False)
        axes = np.zeros((b, 3))
        axes[:, 0] = 1.0
        angles = np.zeros(b)
        for bone in chosen:
            v = rng.normal(size=3)
            while np.linalg.norm(v) < 1e-12:
                v = rng.normal(size=3)
            axes[bone] = v / np.linalg.norm(v)
            angles[bone] = rng.normal(0.0, POSE_ANGLE_STD)
        poses.append(Pose(axes, angles))
    return poses


# ---------------------------------------------------------------------------
# metrics


def precision_recall(pred: WeightRows, gt: WeightRows,
                     tau: float = INFLUENCE_TAU) -> tuple[float, float]:
    """Micro-averaged over vertices; empty denominators count as perfect."""
    if len(pred) != len(gt) or pred.num_bones != gt.num_bones:
        raise ValueError("prediction and ground truth shapes differ")
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"influence threshold must be a finite number > 0, got {tau!r}")
    p = pred.to_dense() > tau
    g = gt.to_dense() > tau
    hit, n_pred, n_gt = int((p & g).sum()), int(p.sum()), int(g.sum())
    precision = hit / n_pred if n_pred else 1.0
    recall = hit / n_gt if n_gt else 1.0
    return precision, recall


def l1_norm(pred: WeightRows, gt: WeightRows) -> float:
    """Mean over vertices of the dense per-row L1 difference."""
    if len(pred) != len(gt) or pred.num_bones != gt.num_bones:
        raise ValueError("prediction and ground truth shapes differ")
    return float(np.abs(pred.to_dense() - gt.to_dense()).sum(axis=1).mean())


def distance_error(rig: Rig, pred: WeightRows, gt: WeightRows,
                   poses: list[Pose]) -> float:
    """Mean per-vertex Euclidean distance between pred- and gt-deformed
    meshes over all poses."""
    stack = Pose(np.stack([p.axes for p in poses]), np.stack([p.angles for p in poses]))
    tf = forward_kinematics(rig.skeleton, stack)
    # deformed separately, so equal weights give exact zeros
    a = lbs_deform(rig.mesh.vertices, pred, tf)
    b = lbs_deform(rig.mesh.vertices, gt, tf)
    d = a - b
    d *= d
    # np.linalg.norm's sum over the last axis, in its order, without its
    # reduction over rows of 3
    per_pose = np.sqrt(d[..., 0] + d[..., 1] + d[..., 2]).mean(axis=-1)
    # summed in pose order; Python 3.12's sum() would compensate
    return float(np.cumsum(per_pose)[-1]) / len(poses)


def evaluate(rig: Rig, pred: WeightRows, gt: WeightRows, poses: list[Pose],
             tau: float = INFLUENCE_TAU) -> EvalReport:
    p, r = precision_recall(pred, gt, tau)
    return EvalReport(p, r, l1_norm(pred, gt), distance_error(rig, pred, gt, poses))


def topk_coverage(pairs: list[tuple[WeightRows, np.ndarray]],
                  k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Coverage curves over K = 1..k_max for (ground truth, distance
    matrix) pairs: mean weight mass on the K nearest bones, and the pooled
    fraction of bones weighted above INFLUENCE_TAU found among them."""
    mass_curve = np.zeros(k_max)
    mass_count = 0
    infl_hits = np.zeros(k_max)
    infl_total = 0
    for gt, d in pairs:
        order = topk_bones(d, d.shape[1])
        dense = gt.to_dense()
        sorted_w = np.take_along_axis(dense, order, axis=1)
        totals = sorted_w.sum(axis=1)
        ok = totals > 0
        cum = np.cumsum(sorted_w, axis=1) / np.maximum(totals, 1e-300)[:, None]
        for k in range(k_max):
            kk = min(k, dense.shape[1] - 1)
            mass_curve[k] += cum[ok, kk].sum()
        mass_count += int(ok.sum())
        infl = sorted_w > INFLUENCE_TAU
        infl_total += int(infl.sum())
        for k in range(k_max):
            kk = min(k + 1, dense.shape[1])
            infl_hits[k] += int(infl[:, :kk].sum())
    mass_curve = mass_curve / max(mass_count, 1)
    infl_curve = infl_hits / max(infl_total, 1)
    return mass_curve, infl_curve
