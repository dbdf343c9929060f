import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heterskin import skinlab, synthgen
from heterskin.rigcore import Rig, WeightRows
from heterskin.skinlab import Pose

from handbuilt import chain_skeleton, tube_rig


# reference: evaluation one pose at a time, with a parent-first joint sort
# and per-vertex influence sets; skinlab must match it byte for byte


def _axis_angle_matrix(axis, angle):
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    cc = 1.0 - c
    return np.array([
        [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
        [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
        [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
    ])


def _about_point(rot, pivot):
    t = np.eye(4)
    t[:3, :3] = rot
    t[:3, 3] = pivot - rot @ pivot
    return t


def _reference_forward_kinematics(skeleton, pose):
    """One pose: joints placed parent-first, then helper bones."""
    b = skeleton.num_bones
    joint_tf = np.tile(np.eye(4), (skeleton.num_joints, 1, 1))
    bone_of_child = {}
    for j, (a, c) in enumerate(skeleton.bones):
        if a != c:
            bone_of_child[int(c)] = j
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
    for bone in np.flatnonzero(skeleton.bones[:, 0] == skeleton.bones[:, 1]):
        j = int(skeleton.bones[bone, 0])
        local = _about_point(
            _axis_angle_matrix(pose.axes[bone], float(pose.angles[bone])),
            skeleton.positions[j],
        )
        out[bone] = joint_tf[j] @ local
    return out


def _reference_lbs_deform(vertices, weights, transforms):
    """One pose's (B, 4, 4) transforms."""
    out = np.zeros_like(vertices)
    dense = weights.to_dense()
    for j in range(len(transforms)):
        col = dense[:, j]
        if not col.any():
            continue
        r, t = transforms[j, :3, :3], transforms[j, :3, 3]
        out += col[:, None] * (vertices @ r.T + t)
    return out


def _reference_distance_error(rig, pred, gt, poses):
    total = 0.0
    for pose in poses:
        tf = _reference_forward_kinematics(rig.skeleton, pose)
        a = _reference_lbs_deform(rig.mesh.vertices, pred, tf)
        b = _reference_lbs_deform(rig.mesh.vertices, gt, tf)
        total += float(np.linalg.norm(a - b, axis=1).mean())
    return total / len(poses)


def _reference_precision_recall(pred, gt, tau):
    hit = n_pred = n_gt = 0
    for i in range(len(pred)):
        p = {int(j) for j, w in zip(pred.indices[i], pred.values[i]) if w > tau}
        g = {int(j) for j, w in zip(gt.indices[i], gt.values[i]) if w > tau}
        hit += len(p & g)
        n_pred += len(p)
        n_gt += len(g)
    return (hit / n_pred if n_pred else 1.0), (hit / n_gt if n_gt else 1.0)


def _stack(poses):
    return Pose(np.stack([p.axes for p in poses]), np.stack([p.angles for p in poses]))


@st.composite
def _lbs_case(draw):
    """Vertices, weight rows and transforms for `lbs_deform`: sparse rows
    that list exact zeros and -0.0 weights, -0.0 and 0.0 coordinates, a
    bone that no vertex weights and one that a single vertex weights, and
    a single pose, a pose stack or a nested one, possibly a read-only
    broadcast of one pose."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, b = draw(st.integers(1, 80)), draw(st.integers(1, 6))
    # 198, 204 and 222 columns reach OpenBLAS's 4-wide edge kernel unpadded
    lead = draw(st.sampled_from([(), (1,), (3,), (2, 3), (66,), (68,), (2, 37)]))
    vertices = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-3, 4)
    vertices[rng.uniform(size=(n, 3)) < 0.1] = -0.0
    vertices[rng.uniform(size=(n, 3)) < 0.1] = 0.0
    listed = rng.uniform(size=(n, b)) < draw(st.sampled_from([0.3, 0.6, 1.0]))
    dense = rng.uniform(size=(n, b)) * (rng.uniform(size=(n, b)) < 0.7)
    dense[rng.uniform(size=(n, b)) < 0.1] = -0.0
    if b > 1 and draw(st.booleans()):
        listed[:, 0] = False  # no vertex weights bone 0
    if draw(st.booleans()):
        j = b - 1  # exactly one vertex weights the last bone
        dense[:, j] = 0.0
        listed[:, j] = False
        i = int(rng.integers(n))
        dense[i, j], listed[i, j] = rng.uniform(0.1, 1.0), True
    weights = WeightRows(tuple(np.flatnonzero(row) for row in listed),
                         tuple(d[row] for d, row in zip(dense, listed)), b)
    one = draw(st.booleans())  # one pose broadcast, read-only, to `lead`
    transforms = rng.normal(size=((1,) * len(lead) if one else lead) + (b, 4, 4))
    transforms[..., 3, :] = [0.0, 0.0, 0.0, 1.0]
    transforms[rng.uniform(size=transforms.shape) < 0.05] = -0.0
    if one:
        transforms = np.broadcast_to(transforms, lead + (b, 4, 4))
    return vertices, weights, transforms


def identity_pose(num_bones):
    return Pose.identity(num_bones)


def rot_matrix(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


class TestForwardKinematics:
    def test_identity_pose(self):
        skel = chain_skeleton([[0, 0, 0], [0, 1, 0], [0, 2, 0]])
        tf = skinlab.forward_kinematics(skel, identity_pose(len(skel.bones)))
        assert np.allclose(tf, np.broadcast_to(np.eye(4), tf.shape))

    def test_root_rotation_propagates(self):
        skel = chain_skeleton([[0, 0, 0], [0, 1, 0], [0, 2, 0]])
        b = len(skel.bones)
        axes = np.tile([0.0, 0.0, 1.0], (b, 1))
        angles = np.zeros(b)
        angles[0] = np.pi / 2
        tf = skinlab.forward_kinematics(skel, Pose(axes, angles))
        r = rot_matrix([0, 0, 1], np.pi / 2)
        for j in range(b):
            assert np.allclose(tf[j][:3, :3], r, atol=1e-12)
            # rotation about the root joint at the origin: no translation
            assert np.allclose(tf[j][:3, 3], 0, atol=1e-12)

    def test_two_bone_chain_composition(self):
        skel = chain_skeleton([[0, 0, 0], [0, 1, 0], [0, 2, 0]])
        b = len(skel.bones)
        axes = np.tile([0.0, 0.0, 1.0], (b, 1))
        angles = np.zeros(b)
        angles[0] = 0.3
        angles[1] = 0.5
        tf = skinlab.forward_kinematics(skel, Pose(axes, angles))

        def about(p, r):
            m = np.eye(4)
            m[:3, :3] = r
            m[:3, 3] = p - r @ p
            return m

        t0 = about(np.array([0.0, 0, 0]), rot_matrix([0, 0, 1], 0.3))
        t1 = t0 @ about(np.array([0.0, 1, 0]), rot_matrix([0, 0, 1], 0.5))
        assert np.allclose(tf[1], t1, atol=1e-12)
        # the helper bone at the leaf inherits the full chain transform
        assert np.allclose(tf[2], t1, atol=1e-12)

    # parents listed after their children; [1, 2, -1] lists a bone before
    # the bone it hangs from, so composing in bone order would read an
    # unfinished joint transform
    @pytest.mark.parametrize("parents", [[2, 0, -1], [1, 2, -1], [2, 4, 5, -1, 3, 3]])
    def test_joint_order_does_not_matter(self, parents):
        n = len(parents)
        positions = np.random.default_rng(n).normal(size=(n, 3))
        skel = chain_skeleton(positions, parents)
        # relabel the joints parent-first
        old_of_new = np.argsort(skel.depths, kind="stable")
        new_of_old = np.argsort(old_of_new)
        in_order = chain_skeleton(
            positions[old_of_new], [-1 if parents[o] < 0 else new_of_old[parents[o]] for o in old_of_new])
        assert np.all(in_order.parents < np.arange(n))
        # bone of in_order for each bone of skel, matched by relabelled end points
        pairs = [tuple(bone) for bone in in_order.bones.tolist()]
        match = [pairs.index((new_of_old[a], new_of_old[c])) for a, c in skel.bones]
        sampled = skinlab.sample_poses(skel, count=6, seed=n, fraction=1.0)
        poses = _stack(sampled)
        axes, angles = np.zeros_like(poses.axes), np.zeros_like(poses.angles)
        axes[:, match], angles[:, match] = poses.axes, poses.angles
        got = skinlab.forward_kinematics(skel, poses)
        assert np.array_equal(got, skinlab.forward_kinematics(in_order, Pose(axes, angles))[:, match])
        assert np.array_equal(got, np.stack([_reference_forward_kinematics(skel, p) for p in sampled]))


class TestLBS:
    def test_identity(self):
        rig = tube_rig()
        n = len(rig.mesh.vertices)
        w = WeightRows.from_pairs([[(0, 1.0)]] * n, num_bones=3)
        out = skinlab.lbs_deform(rig.mesh.vertices, w, np.broadcast_to(np.eye(4), (3, 4, 4)))
        assert np.allclose(out, rig.mesh.vertices)

    def test_translation(self):
        rig = tube_rig()
        n = len(rig.mesh.vertices)
        w = WeightRows.from_pairs([[(1, 1.0)]] * n, num_bones=3)
        tf = np.broadcast_to(np.eye(4), (3, 4, 4)).copy()
        tf[1, :3, 3] = [1.0, 2.0, 3.0]
        out = skinlab.lbs_deform(rig.mesh.vertices, w, tf)
        assert np.allclose(out, rig.mesh.vertices + [1, 2, 3])

    def test_rigid_equivariance(self):
        rig = tube_rig()
        n = len(rig.mesh.vertices)
        rng = np.random.default_rng(3)
        dense = rng.uniform(size=(n, 3))
        dense /= dense.sum(axis=1, keepdims=True)
        w = WeightRows.from_dense(dense)
        t = np.eye(4)
        t[:3, :3] = rot_matrix([1, 2, 3], 0.7)
        t[:3, 3] = [0.5, -1.0, 2.0]
        tf = np.tile(t, (3, 1, 1))
        out = skinlab.lbs_deform(rig.mesh.vertices, w, tf)
        expect = rig.mesh.vertices @ t[:3, :3].T + t[:3, 3]
        assert np.max(np.abs(out - expect)) < 1e-12

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(case=_lbs_case())
    def test_bytes_match_reference(self, case):
        vertices, weights, transforms = case
        lead = transforms.shape[:-3]
        want = np.zeros(lead + vertices.shape)
        for p in np.ndindex(lead):
            want[p] = _reference_lbs_deform(vertices, weights, transforms[p])
        got = skinlab.lbs_deform(vertices, weights, transforms)
        assert got.shape == want.shape and got.flags.c_contiguous
        # bytes, so that the sign of every zero is pinned too
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 1, 0, 3), (2, 0, 1, 1), (1, 2, 3, 3)])
    def test_non_finite_transform_rejected(self, bad, at):
        rig = tube_rig()
        w = WeightRows.from_pairs([[(0, 1.0)]] * len(rig.mesh.vertices), num_bones=3)
        tf = np.tile(np.eye(4), (3, 3, 1, 1))
        tf[at] = bad
        with pytest.raises(ValueError, match="transforms must be finite"):
            skinlab.lbs_deform(rig.mesh.vertices, w, tf)
        with pytest.raises(ValueError, match="transforms must be finite"):
            skinlab.lbs_deform(rig.mesh.vertices, w, tf[at[0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_rejected(self, bad):
        # a vertex that a bone does not weight is skipped, not multiplied by 0
        rig = tube_rig()
        vertices = rig.mesh.vertices.copy()
        vertices[5, 1] = bad
        w = WeightRows.from_pairs([[(0, 1.0)]] * len(vertices), num_bones=3)
        with pytest.raises(ValueError, match="vertices must be finite"):
            skinlab.lbs_deform(vertices, w, np.tile(np.eye(4), (3, 1, 1)))


class TestPose:
    @pytest.mark.parametrize("axis", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
                                      [0.0, 0.0, -np.inf], [1e200, 0.0, 0.0]])
    def test_axis_of_length_not_finite_rejected_at_rest(self, axis):
        axes = np.tile([1.0, 0.0, 0.0], (3, 1))
        axes[1] = axis
        with pytest.raises(ValueError, match="pose axes must have a finite length"):
            Pose(axes, np.zeros(3))
        with pytest.raises(ValueError, match="pose axes must have a finite length"):
            Pose(np.stack([np.tile([1.0, 0.0, 0.0], (3, 1)), axes]), np.zeros((2, 3)))

    def test_unit_length_only_for_rotated_bones(self):
        axes = np.tile([1.0, 0.0, 0.0], (3, 1))
        axes[1] = [0.0, 3.0, 4.0]
        pose = Pose(axes, np.array([0.2, 0.0, 0.0]))
        tf = skinlab.forward_kinematics(chain_skeleton(np.eye(3)), pose)
        assert np.all(np.isfinite(tf))
        with pytest.raises(ValueError, match="pose axes must be unit length"):
            Pose(axes, np.array([0.0, 0.2, 0.0]))


class TestSamplePoses:
    def test_bone_count_ceiling(self):
        skel = chain_skeleton(np.cumsum(np.ones((7, 3)), axis=0))
        poses = skinlab.sample_poses(skel, count=4, seed=0)
        b = len(skel.bones)  # 6 real + ... = depends; use ceil(0.3 B)
        import math

        expect = math.ceil(0.3 * b)
        for p in poses:
            assert np.count_nonzero(p.angles) <= expect
            assert np.count_nonzero((p.axes != 0).any(axis=1) & (p.angles != 0)) <= expect

    def test_deterministic(self):
        skel = chain_skeleton(np.cumsum(np.ones((5, 3)), axis=0))
        a = skinlab.sample_poses(skel, count=3, seed=9)
        b = skinlab.sample_poses(skel, count=3, seed=9)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.axes, pb.axes)
            assert np.array_equal(pa.angles, pb.angles)

    def test_angle_distribution(self):
        skel = chain_skeleton(np.cumsum(np.ones((30, 3)), axis=0))
        angles = []
        for seed in range(60):
            for p in skinlab.sample_poses(skel, count=10, seed=seed):
                angles.extend(p.angles[p.angles != 0.0])
        std_deg = np.degrees(np.std(angles))
        assert abs(std_deg - 25.0) / 25.0 < 0.05


class TestPrecisionRecall:
    def test_identical(self):
        w = WeightRows.from_pairs([[(0, 0.6), (1, 0.4)]], num_bones=3)
        assert skinlab.precision_recall(w, w) == (1.0, 1.0)

    def test_half_overlap(self):
        pred = WeightRows.from_pairs([[(0, 0.5), (1, 0.5)]], num_bones=4)
        gt = WeightRows.from_pairs([[(0, 0.5), (2, 0.5)]], num_bones=4)
        assert skinlab.precision_recall(pred, gt) == (0.5, 0.5)

    def test_matches_set_oracle(self):
        rng = np.random.default_rng(13)
        n, b = 40, 6
        def random_weights():
            dense = rng.uniform(size=(n, b)) * (rng.uniform(size=(n, b)) < 0.4)
            dense[:, 0] += 1e-3  # no empty rows
            dense /= dense.sum(axis=1, keepdims=True)
            return WeightRows.from_dense(dense)

        pred, gt = random_weights(), random_weights()
        p, r = skinlab.precision_recall(pred, gt, tau=1e-4)
        pd, gd = pred.to_dense(), gt.to_dense()
        tp = fp = fn = 0
        for i in range(n):
            ps = {j for j in range(b) if pd[i, j] > 1e-4}
            gs = {j for j in range(b) if gd[i, j] > 1e-4}
            tp += len(ps & gs)
            fp += len(ps - gs)
            fn += len(gs - ps)
        assert p == pytest.approx(tp / (tp + fp))
        assert r == pytest.approx(tp / (tp + fn))

    def test_empty_denominator_convention(self):
        pred = WeightRows.from_pairs([[(0, 1.0)]], num_bones=2)
        gt = WeightRows.from_pairs([[(0, 1.0)]], num_bones=2)
        # a prediction threshold above every weight empties both sets
        assert skinlab.precision_recall(pred, gt, tau=2.0) == (1.0, 1.0)

    @pytest.mark.parametrize("tau", [0.0, -1e-4, np.nan, np.inf, -np.inf])
    def test_threshold_must_be_finite_and_positive(self, tau):
        w = WeightRows.from_pairs([[(0, 0.5), (1, 0.5)]], num_bones=2)
        with pytest.raises(ValueError, match="influence threshold must be a finite number > 0"):
            skinlab.precision_recall(w, w, tau=tau)


class TestL1Norm:
    def test_identical_zero(self):
        w = WeightRows.from_pairs([[(0, 1.0)], [(1, 1.0)]], num_bones=2)
        assert skinlab.l1_norm(w, w) == 0.0

    def test_disjoint_maximal(self):
        pred = WeightRows.from_pairs([[(0, 1.0)]], num_bones=2)
        gt = WeightRows.from_pairs([[(1, 1.0)]], num_bones=2)
        assert skinlab.l1_norm(pred, gt) == 2.0

    def test_matches_dense(self):
        rng = np.random.default_rng(17)
        n, b = 25, 5
        pd = rng.uniform(size=(n, b))
        pd /= pd.sum(axis=1, keepdims=True)
        gd = rng.uniform(size=(n, b))
        gd /= gd.sum(axis=1, keepdims=True)
        got = skinlab.l1_norm(WeightRows.from_dense(pd), WeightRows.from_dense(gd))
        assert 0.0 <= got <= 2.0
        assert got == pytest.approx(np.abs(pd - gd).sum(axis=1).mean(), rel=1e-12)


class TestDistanceError:
    def _rig_with_weights(self):
        rig = tube_rig()
        n = len(rig.mesh.vertices)
        y = rig.mesh.vertices[:, 1]
        w0 = np.clip(1.0 - y, 0.0, 1.0)
        dense = np.stack([w0, 1.0 - w0, np.zeros(n)], axis=1)
        return Rig(
            mesh=rig.mesh,
            skeleton=rig.skeleton,
            weights=WeightRows.from_dense(dense),
            name="tube",
        )

    def test_zero_at_ground_truth(self):
        rig = self._rig_with_weights()
        poses = skinlab.sample_poses(rig.skeleton, count=4, seed=0)
        assert skinlab.distance_error(rig, rig.weights, rig.weights, poses) == 0.0

    def test_identity_pose_zero(self):
        rig = self._rig_with_weights()
        other = WeightRows.from_pairs(
            [[(0, 1.0)]] * len(rig.mesh.vertices), num_bones=3
        )
        poses = [Pose.identity(3)]
        assert skinlab.distance_error(rig, other, rig.weights, poses) == 0.0

    def test_one_fk_and_two_lbs_calls(self, monkeypatch):
        # looked up as module names, so wrappers around them see every call
        rig = self._rig_with_weights()
        calls = []
        for name in ("forward_kinematics", "lbs_deform"):
            fn = getattr(skinlab, name)
            monkeypatch.setattr(skinlab, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        poses = skinlab.sample_poses(rig.skeleton, count=5, seed=2)
        skinlab.evaluate(rig, rig.weights, rig.weights, poses)
        assert calls == ["forward_kinematics", "lbs_deform", "lbs_deform"]

    def test_norm_sums_like_linalg_norm(self, monkeypatch):
        rig = self._rig_with_weights()
        poses = skinlab.sample_poses(rig.skeleton, count=6, seed=4)
        rng = np.random.default_rng(8)
        # components of very different sizes, so that the order of the sum shows
        a, b = (rng.normal(size=(6, rig.mesh.num_vertices, 3))
                * 10.0 ** rng.integers(-8, 8, size=(6, rig.mesh.num_vertices, 3))
                for _ in range(2))
        deformed = iter([a, b])
        monkeypatch.setattr(skinlab, "lbs_deform", lambda *args: next(deformed))
        total = 0.0
        for p in range(6):
            total += float(np.linalg.norm(a[p] - b[p], axis=1).mean())
        assert skinlab.distance_error(rig, rig.weights, rig.weights, poses) == total / 6

    def test_manual_two_bone_case(self):
        rig = self._rig_with_weights()
        gt = rig.weights
        perturbed = gt.to_dense().copy()
        perturbed[:, [0, 1]] = perturbed[:, [1, 0]]
        pred = WeightRows.from_dense(perturbed)
        b = len(rig.skeleton.bones)
        axes = np.zeros((b, 3))
        axes[:, 2] = 1.0
        angles = np.zeros(b)
        angles[1] = 0.4
        poses = [Pose(axes, angles)]
        got = skinlab.distance_error(rig, pred, gt, poses)
        tf = skinlab.forward_kinematics(rig.skeleton, poses[0])
        va = skinlab.lbs_deform(rig.mesh.vertices, pred, tf)
        vb = skinlab.lbs_deform(rig.mesh.vertices, gt, tf)
        expect = np.linalg.norm(va - vb, axis=1).mean()
        assert got == pytest.approx(expect, rel=1e-12)


class TestEvaluate:
    def test_report_fields(self):
        rig = tube_rig()
        n = len(rig.mesh.vertices)
        w = WeightRows.from_pairs([[(0, 1.0)]] * n, num_bones=3)
        rig = Rig(mesh=rig.mesh, skeleton=rig.skeleton, weights=w, name="t")
        poses = skinlab.sample_poses(rig.skeleton, count=2, seed=1)
        report = skinlab.evaluate(rig, w, w, poses)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.l1_norm == 0.0
        assert report.dist_err == 0.0
        d = report.as_dict()
        assert set(d) == {"precision", "recall", "l1_norm", "dist_err"}


class TestPoseStacks:
    """Pose stacks and single poses against the per-pose reference loops."""

    @pytest.fixture(scope="class", params=[(0.0, 3), (1.0, 4), (1.0, 7)],
                    ids=["closed", "props-4", "props-7"])
    def case(self, request):
        # prop and antenna probability, seed
        share, seed = request.param
        cfg = synthgen.SynthConfig(resolution=32, prop_probability=share,
                                   antenna_probability=share)
        rig = synthgen.gen_character(cfg, seed)
        rng = np.random.default_rng(seed)
        shape = (rig.mesh.num_vertices, rig.skeleton.num_bones)
        dense = rng.uniform(size=shape) * (rng.uniform(size=shape) < 0.3)
        dense[:, 0] += 1e-3  # no empty rows
        pred = WeightRows.from_dense(dense / dense.sum(axis=1, keepdims=True))
        return rig, pred, skinlab.sample_poses(rig.skeleton, count=24, seed=seed)

    def test_forward_kinematics(self, case):
        rig, _, poses = case
        want = np.stack([_reference_forward_kinematics(rig.skeleton, p) for p in poses])
        for p, w in zip(poses, want):
            assert np.array_equal(skinlab.forward_kinematics(rig.skeleton, p), w)
        stack = _stack(poses)
        assert np.array_equal(skinlab.forward_kinematics(rig.skeleton, stack), want)
        square = Pose(stack.axes.reshape(4, 6, -1, 3), stack.angles.reshape(4, 6, -1))
        assert np.array_equal(skinlab.forward_kinematics(rig.skeleton, square),
                              want.reshape(4, 6, *want.shape[1:]))

    def test_lbs_deform(self, case):
        rig, pred, poses = case
        tfs = np.stack([_reference_forward_kinematics(rig.skeleton, p) for p in poses])
        want = np.stack([_reference_lbs_deform(rig.mesh.vertices, pred, tf) for tf in tfs])
        for tf, w in zip(tfs, want):
            assert np.array_equal(skinlab.lbs_deform(rig.mesh.vertices, pred, tf), w)
        assert np.array_equal(skinlab.lbs_deform(rig.mesh.vertices, pred, tfs), want)

    def test_distance_error_and_precision_recall(self, case):
        rig, pred, poses = case
        for subset in (poses[:1], poses):
            assert (skinlab.distance_error(rig, pred, rig.weights, subset)
                    == _reference_distance_error(rig, pred, rig.weights, subset))
        for tau in (1e-4, 0.05, 0.5):
            assert (skinlab.precision_recall(pred, rig.weights, tau)
                    == _reference_precision_recall(pred, rig.weights, tau))


class TestTopkCoverage:
    def test_monotone_and_exhaustive(self):
        cfg = synthgen.SynthConfig(resolution=32)
        pairs = []
        for seed in (3, 4):
            rig = synthgen.gen_character(cfg, seed)
            from heterskin import model

            h = model.HyperParams(resolution=32)
            d = model.distance_matrix(rig, h)
            pairs.append((rig.weights, d))
        b = min(p[1].shape[1] for p in pairs)
        mass, infl = skinlab.topk_coverage(pairs, k_max=b)
        assert np.all(np.diff(mass) >= -1e-12)
        assert np.all(np.diff(infl) >= -1e-12)
        assert mass[2] == pytest.approx(1.0)  # ground truth lives on the top 3
        assert mass[-1] == pytest.approx(1.0)
        assert infl[-1] == pytest.approx(1.0)
