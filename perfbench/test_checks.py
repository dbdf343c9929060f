"""Each benchmark check accepts a correct output and rejects a corrupted one.

    python3 -m pytest perfbench
"""
import json
from pathlib import Path

import numpy as np
import pytest

import checks as ck
import layers
import run
from heterskin import hollowdist, rigcore, skinlab, voxelize

R = 20


def capped_tube(x0, length=1.0, radius=0.12, segments=10, rings=7):
    """Closed cylinder along +y at x = x0, with a cap vertex at each end."""
    verts, tris = [], []
    for iy in range(rings):
        y = length * iy / (rings - 1)
        for ia in range(segments):
            a = 2.0 * np.pi * ia / segments
            verts.append([x0 + radius * np.cos(a), y, radius * np.sin(a)])
    for iy in range(rings - 1):
        for ia in range(segments):
            a0 = iy * segments + ia
            a1 = iy * segments + (ia + 1) % segments
            tris += [[a0, a0 + segments, a1], [a1, a0 + segments, a1 + segments]]
    bottom, top = len(verts), len(verts) + 1
    verts += [[x0, -0.02, 0.0], [x0, length + 0.02, 0.0]]
    last = (rings - 1) * segments
    for ia in range(segments):
        tris.append([bottom, ia, (ia + 1) % segments])
        tris.append([top, last + (ia + 1) % segments, last + ia])
    return np.array(verts), np.array(tris)


@pytest.fixture(scope="module")
def detached():
    """A tube holding a three-joint chain, beside a second, empty tube: every
    field must restart to reach the second tube."""
    va, ta = capped_tube(0.0)
    vb, tb = capped_tube(0.6)
    mesh = rigcore.Mesh(np.concatenate([va, vb]), np.concatenate([ta, tb + len(va)]))
    skel = rigcore.Skeleton.build(["a", "b", "c"], [[0, 0.1, 0], [0, 0.5, 0], [0, 0.9, 0]],
                                  [-1, 0, 1])
    rig = rigcore.Rig(mesh, skel)
    grid = voxelize.voxelize_mesh(mesh, R)
    return rig, grid


def test_convex_rows_rejects_non_convex_row():
    idx = [np.array([0, 2]), np.array([1])]
    val = [np.array([0.25, 0.75]), np.array([1.0])]
    ck.check_convex_rows(idx, val, 2, 3)
    for bad_idx, bad_val in (
        (idx, [np.array([-0.25, 1.25]), val[1]]),  # negative weight
        (idx, [np.array([0.25, 0.80]), val[1]]),  # sums to 1.05
        ([np.array([2, 2]), idx[1]], val),  # repeated bone
        ([np.array([0, 3]), idx[1]], val),  # bone out of range
        (idx[:1], val[:1]),  # a vertex without a row
    ):
        with pytest.raises(ck.CheckFailed):
            ck.check_convex_rows(bad_idx, bad_val, 2, 3)


def test_seam_rows_must_match():
    idx = [np.array([0, 1]), np.array([0, 1])]
    ck.check_same_rows(idx, [np.array([0.5, 0.5]), np.array([0.5, 0.5])], 0, 1)
    with pytest.raises(ck.CheckFailed):
        ck.check_same_rows(idx, [np.array([0.5, 0.5]), np.array([0.4, 0.6])], 0, 1)


def test_distance_bound_rejects_shrunk_distance(detached):
    rig, grid = detached
    d = hollowdist.compute_all(rig, grid)
    starts, ends = rig.skeleton.bone_segments()
    ck.check_distance_bound(d, rig.mesh.vertices, starts, ends, grid.cell_size)
    euclid = ck.segment_distances(rig.mesh.vertices, starts, ends)
    bad = d.copy()
    bad[5, 1] = euclid[5, 1] - 2.0 * grid.cell_size
    with pytest.raises(ck.CheckFailed):
        ck.check_distance_bound(bad, rig.mesh.vertices, starts, ends, grid.cell_size)
    bad = d.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ck.CheckFailed):
        ck.check_distance_bound(bad, rig.mesh.vertices, starts, ends, grid.cell_size)


def test_segment_distances_against_hand_values():
    starts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    ends = np.array([[0.0, 2.0, 0.0], [1.0, 1.0, 1.0]])  # second bone has zero length
    points = np.array([[3.0, 1.0, 0.0], [0.0, -4.0, 0.0]])
    expected = np.array([[3.0, np.sqrt(4 + 0 + 1)], [4.0, np.sqrt(1 + 25 + 1)]])
    assert np.allclose(ck.segment_distances(points, starts, ends), expected, rtol=0, atol=1e-15)


def test_mesh_labels_reject_flipped_label(detached):
    rig, grid = detached
    args = (grid.origin, grid.cell_size, rig.mesh.vertices, rig.mesh.triangles)
    ck.check_mesh_labels(grid.labels, *args)
    cell = np.clip(np.floor((rig.mesh.vertices[7] - grid.origin) / grid.cell_size).astype(int),
                   1, R - 2)
    flipped = grid.labels.copy()
    flipped[tuple(cell)] = ck.HOLLOW
    with pytest.raises(ck.CheckFailed):
        ck.check_mesh_labels(flipped, *args)


def test_reference_search_matches_and_rejects_perturbed_step(detached):
    rig, grid = detached
    cells = hollowdist.bone_cell_sets(rig, grid)[0]
    field = hollowdist.compute_cell_distances(grid, cells, 0)
    assert layers.restart_count(grid.labels, field.pred) > 0  # the restart rule is exercised
    ck.check_field_matches_reference(field.steps, field.pred, grid.labels, cells)
    reached = np.flatnonzero(field.steps.reshape(-1) > 0)
    steps = field.steps.copy()
    steps.reshape(-1)[reached[len(reached) // 2]] += 1
    with pytest.raises(ck.CheckFailed):
        ck.check_field_matches_reference(steps, field.pred, grid.labels, cells)
    pred = field.pred.copy()
    pred.reshape(-1)[reached[-1]] = -1
    with pytest.raises(ck.CheckFailed):
        ck.check_field_matches_reference(field.steps, pred, grid.labels, cells)


def test_rigid_rejects_scaled_or_mirrored_transform(detached):
    rig, _ = detached
    pose = skinlab.sample_poses(rig.skeleton, 1, seed=3, fraction=1.0)[0]
    tf = skinlab.forward_kinematics(rig.skeleton, pose)
    ck.check_rigid(tf)
    for scale in (np.diag([1.0, 1.0, 1.0 + 1e-9, 1.0]), np.diag([1.0, 1.0, -1.0, 1.0])):
        with pytest.raises(ck.CheckFailed):
            ck.check_rigid(tf @ scale)


def test_lbs_matches_dense_sum_and_rejects_perturbed(detached):
    rig, _ = detached
    n, b = rig.mesh.num_vertices, rig.skeleton.num_bones
    rng = np.random.default_rng(0)
    dense = rng.random((n, b))
    dense /= dense.sum(axis=1, keepdims=True)
    weights = rigcore.WeightRows.from_dense(dense)
    tf = skinlab.forward_kinematics(rig.skeleton, skinlab.sample_poses(rig.skeleton, 1, seed=1)[0])
    out = skinlab.lbs_deform(rig.mesh.vertices, weights, tf)
    wd = ck.dense_weights(weights.indices, weights.values, b)
    ck.check_lbs(out, rig.mesh.vertices, wd, tf)
    out[3, 1] += 1e-9
    with pytest.raises(ck.CheckFailed):
        ck.check_lbs(out, rig.mesh.vertices, wd, tf)


def test_identity_report_rejects_imperfect_scores():
    ck.check_identity_report({"precision": 1.0, "recall": 1.0, "l1_norm": 0.0, "dist_err": 0.0})
    for key, value in (("recall", 0.99), ("l1_norm", 1e-17), ("dist_err", 1e-17)):
        report = {"precision": 1.0, "recall": 1.0, "l1_norm": 0.0, "dist_err": 0.0, key: value}
        with pytest.raises(ck.CheckFailed):
            ck.check_identity_report(report)


def test_same_params_rejects_one_flipped_bit():
    a = {"w": np.linspace(0, 1, 7).reshape(7, 1)}
    ck.check_same_params(a, {"w": a["w"].copy()})
    b = a["w"].copy()
    b.view(np.uint64)[3, 0] ^= 1
    with pytest.raises(ck.CheckFailed):
        ck.check_same_params(a, {"w": b})


def test_training_rejects_rising_or_non_finite_loss():
    ck.check_training([2.0, 1.5, 1.2])
    ck.check_training([2.0])
    for history in ([1.0, 1.2], [1.0, float("nan"), 0.5]):
        with pytest.raises(ck.CheckFailed):
            ck.check_training(history)


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_host_probe_scales_by_the_mean_probe_time_and_drops_its_own_time(monkeypatch):
    probe = run.HostProbe(np)
    readings = iter([2 * probe.REF_S, 4 * probe.REF_S, 6 * probe.REF_S])
    monkeypatch.setattr(probe, "_measure", lambda: next(readings))
    probe.last = (0.0, float("-inf"))  # too old to stand for the host's speed now
    probe.begin()
    probe.samples.append(next(readings))  # as the alarm handler does during the operation
    probe.spent = 0.5
    # 2.5 s of wall time, 0.5 s of it probing, at a mean probe time of 4 x REF_S
    assert probe.end(2.5) == pytest.approx(0.5)
    assert probe.last[0] == 6 * probe.REF_S
