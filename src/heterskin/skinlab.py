"""Skinning evaluation lab: forward kinematics, linear blend skinning,
randomized pose sampling, the four weight metrics and Top-K coverage."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rigcore import Rig, Skeleton, WeightRows

INFLUENCE_TAU = 1e-4


@dataclass(frozen=True)
class Pose:
    """Per-bone axis/angle rotations; identity for unselected bones."""

    axes: np.ndarray  # (B, 3) unit vectors
    angles: np.ndarray  # (B,) radians

    def __post_init__(self):
        norms = np.linalg.norm(self.axes, axis=1)
        active = self.angles != 0
        if np.any(np.abs(norms[active] - 1.0) > 1e-9):
            raise ValueError("pose axes must be unit length")

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


def _axis_angle_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    cc = 1.0 - c
    return np.array([
        [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
        [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
        [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
    ])


def _about_point(rot: np.ndarray, pivot: np.ndarray) -> np.ndarray:
    t = np.eye(4)
    t[:3, :3] = rot
    t[:3, 3] = pivot - rot @ pivot
    return t


def forward_kinematics(skeleton: Skeleton, pose: Pose) -> np.ndarray:
    """World transform per bone, (B, 4, 4).

    Each bone's rotation acts about its start joint (bind position) and
    composes root-to-leaf; a helper bone applies its own rotation on top
    of its joint's accumulated transform.
    """
    b = skeleton.num_bones
    if len(pose.angles) != b:
        raise ValueError(f"pose covers {len(pose.angles)} bones, skeleton has {b}")
    joint_tf = np.tile(np.eye(4), (skeleton.num_joints, 1, 1))
    bone_of_child = {}
    for j, (a, c) in enumerate(skeleton.bones):
        if a != c:
            bone_of_child[int(c)] = j
    # joints in parent-before-child order
    order = []
    pending = list(range(skeleton.num_joints))
    placed = np.zeros(skeleton.num_joints, dtype=bool)
    while pending:
        rest = []
        for j in pending:
            p = int(skeleton.parents[j])
            if p < 0 or placed[p]:
                order.append(j)
                placed[j] = True
            else:
                rest.append(j)
        pending = rest
    out = np.tile(np.eye(4), (b, 1, 1))
    for j in order:
        p = int(skeleton.parents[j])
        if p < 0:
            continue
        bone = bone_of_child[j]
        local = _about_point(
            _axis_angle_matrix(pose.axes[bone], float(pose.angles[bone])),
            skeleton.positions[p],
        )
        joint_tf[j] = joint_tf[p] @ local
        out[bone] = joint_tf[j]
    for bone in np.flatnonzero(skeleton.is_helper()):
        j = int(skeleton.bones[bone, 0])
        local = _about_point(
            _axis_angle_matrix(pose.axes[bone], float(pose.angles[bone])),
            skeleton.positions[j],
        )
        out[bone] = joint_tf[j] @ local
    return out


def lbs_deform(vertices: np.ndarray, weights: WeightRows, transforms: np.ndarray) -> np.ndarray:
    """v' = sum_j w_ij * T_j(v_i)."""
    if weights.num_bones != len(transforms):
        raise ValueError(f"{weights.num_bones} weight bones vs {len(transforms)} transforms")
    if len(weights) != len(vertices):
        raise ValueError("weight row count does not match vertex count")
    out = np.zeros_like(vertices)
    dense = weights.to_dense()
    for j in range(len(transforms)):
        col = dense[:, j]
        if not col.any():
            continue
        r, t = transforms[j, :3, :3], transforms[j, :3, 3]
        out += col[:, None] * (vertices @ r.T + t)
    return out


def sample_poses(skeleton: Skeleton, count: int = 10, seed: int = 0,
                 angle_std_deg: float = 25.0, fraction: float = 0.3) -> list[Pose]:
    """Random poses: ceil(fraction * B) bones get a uniform random axis and
    a normal(0, angle_std) rotation angle."""
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
            angles[bone] = rng.normal(0.0, np.deg2rad(angle_std_deg))
        poses.append(Pose(axes, angles))
    return poses


# ---------------------------------------------------------------------------
# metrics


def precision_recall(pred: WeightRows, gt: WeightRows,
                     tau: float = INFLUENCE_TAU) -> tuple[float, float]:
    """Micro-averaged over vertices; empty denominators count as perfect."""
    if len(pred) != len(gt) or pred.num_bones != gt.num_bones:
        raise ValueError("prediction and ground truth shapes differ")
    if tau <= 0:
        raise ValueError("influence threshold must be > 0")
    hit = n_pred = n_gt = 0
    for i in range(len(pred)):
        p = {int(j) for j, w in zip(pred.indices[i], pred.values[i]) if w > tau}
        g = {int(j) for j, w in zip(gt.indices[i], gt.values[i]) if w > tau}
        hit += len(p & g)
        n_pred += len(p)
        n_gt += len(g)
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
    total = 0.0
    for pose in poses:
        tf = forward_kinematics(rig.skeleton, pose)
        a = lbs_deform(rig.mesh.vertices, pred, tf)
        b = lbs_deform(rig.mesh.vertices, gt, tf)
        total += float(np.linalg.norm(a - b, axis=1).mean())
    return total / len(poses)


def evaluate(rig: Rig, pred: WeightRows, gt: WeightRows, poses: list[Pose],
             tau: float = INFLUENCE_TAU) -> EvalReport:
    p, r = precision_recall(pred, gt, tau)
    return EvalReport(p, r, l1_norm(pred, gt), distance_error(rig, pred, gt, poses))


def topk_coverage(pairs: list[tuple[WeightRows, np.ndarray]], k_max: int,
                  tau: float = INFLUENCE_TAU) -> tuple[np.ndarray, np.ndarray]:
    """Coverage curves over K = 1..k_max for (ground truth, distance
    matrix) pairs: mean weight mass on the K nearest bones, and the pooled
    fraction of influential bones found among them."""
    mass_curve = np.zeros(k_max)
    mass_count = 0
    infl_hits = np.zeros(k_max)
    infl_total = 0
    for gt, d in pairs:
        order = np.argsort(d, axis=1, kind="stable")
        dense = gt.to_dense()
        sorted_w = np.take_along_axis(dense, order, axis=1)
        totals = sorted_w.sum(axis=1)
        ok = totals > 0
        cum = np.cumsum(sorted_w, axis=1) / np.maximum(totals, 1e-300)[:, None]
        for k in range(k_max):
            kk = min(k, dense.shape[1] - 1)
            mass_curve[k] += cum[ok, kk].sum()
        mass_count += int(ok.sum())
        infl = sorted_w > tau
        infl_total += int(infl.sum())
        for k in range(k_max):
            kk = min(k + 1, dense.shape[1])
            infl_hits[k] += int(infl[:, :kk].sum())
    mass_curve = mass_curve / max(mass_count, 1)
    infl_curve = infl_hits / max(infl_total, 1)
    return mass_curve, infl_curve
