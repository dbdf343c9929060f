import dataclasses
import json

import numpy as np
import pytest

import heterskin.autodiff as ad
from heterskin import cli, model, synthgen
from heterskin.autodiff import Tensor
from heterskin.rigcore import RigError, WeightRows, save_rig

from oracles import finite_difference, max_relative_error


def micro_hyper():
    return model.HyperParams(
        vertex_local=6,
        vertex_global=5,
        bone_local=4,
        bone_global=5,
        final_dims=(8, 6),
        local_stages=1,
        resolution=16,
    )


def micro_sample():
    cfg = synthgen.SynthConfig(
        bones_min=6, bones_max=6, radial_segments=3, rings_per_bone=2, resolution=16,
        prop_probability=0.0, antenna_probability=0.0,
    )
    rig = synthgen.gen_character(cfg, 5)
    return model.prepare_sample(rig, micro_hyper())


class TestHyperParams:
    def test_paper_defaults(self):
        h = model.HyperParams()
        assert (h.k, h.vertex_local, h.vertex_global) == (3, 256, 512)
        assert (h.bone_local, h.bone_global) == (128, 512)
        assert h.final_dims == (1024, 512)
        assert (h.lambda_smooth, h.edge_dropout, h.final_dropout) == (0.4, 0.85, 0.5)
        assert (h.leaky_alpha, h.var_scale, h.local_stages) == (0.2, 0.1, 3)
        assert h.resolution == 88

    def test_validation(self):
        with pytest.raises(ValueError):
            model.HyperParams(edge_dropout=1.0)
        with pytest.raises(ValueError):
            model.HyperParams(lambda_smooth=-0.1)
        with pytest.raises(ValueError):
            model.HyperParams(distance_mode="manhattan")


class TestSkeletonConv:
    def test_isolated_bone_self_loop(self):
        f = Tensor(np.array([[1.0, 2.0]]))
        w = Tensor(np.vstack([np.eye(2), np.zeros((2, 2))]), name="w")
        out = model.skeleton_conv(f, np.empty((0, 2), int), w, alpha=0.2)
        assert np.allclose(out.value, f.value)

    def test_identical_neighbors_difference_vanishes(self):
        f = Tensor(np.array([[1.0, 2.0], [1.0, 2.0]]))
        w = Tensor(np.vstack([np.zeros((2, 2)), np.eye(2)]), name="w")
        out = model.skeleton_conv(f, np.array([[0, 1]]), w, alpha=0.2)
        assert np.allclose(out.value, 0.0)

    def test_neighbor_permutation_invariant(self):
        rng = np.random.default_rng(3)
        f = Tensor(rng.standard_normal((5, 3)))
        w = Tensor(rng.standard_normal((6, 3)), name="w")
        edges = np.array([[0, 1], [0, 2], [1, 3], [2, 4], [3, 4]])
        out1 = model.skeleton_conv(f, edges, w, alpha=0.2)
        out2 = model.skeleton_conv(f, edges[::-1].copy(), w, alpha=0.2)
        assert np.array_equal(out1.value, out2.value)


class TestVertexToBone:
    def test_singleton_statistics(self):
        rng = np.random.default_rng(5)
        fv = Tensor(rng.standard_normal((1, 3)))
        fb = Tensor(rng.standard_normal((2, 2)))
        w = Tensor(rng.standard_normal((2 + 9, 2)), name="w")
        topk = np.array([[0]])
        out = model.vertex_to_bone(fv, fb, topk, 2, w, alpha=0.2, var_scale=0.1)
        # bone 1 has no influence set: its statistics are all zero
        manual = np.concatenate([fb.value[1], np.zeros(9)])
        lin = manual @ w.value
        expect = np.where(lin > 0, lin, 0.2 * lin)
        assert np.allclose(out.value[1], expect)

    def test_statistics_match_reference(self):
        rng = np.random.default_rng(7)
        n, k, b = 12, 2, 4
        fv = Tensor(rng.standard_normal((n, 3)))
        fb = Tensor(rng.standard_normal((b, 2)))
        topk = np.stack([rng.choice(b, size=k, replace=False) for _ in range(n)])
        w = Tensor(np.eye(2 + 9, 2), name="w")
        out = model.vertex_to_bone(fv, fb, topk, b, w, alpha=0.2, var_scale=0.1)
        for j in range(b):
            members = np.flatnonzero((topk == j).any(axis=1))
            if members.size == 0:
                stats = np.zeros(9)
            else:
                x = fv.value[members]
                stats = np.concatenate([x.max(0), x.mean(0), 0.1 * x.var(0)])
            feat = np.concatenate([fb.value[j], stats])
            lin = (feat @ np.eye(2 + 9, 2))
            expect = np.where(lin > 0, lin, 0.2 * lin)
            assert np.allclose(out.value[j], expect, atol=1e-12)


class TestBoneToVertex:
    def test_topk_order_is_semantic(self):
        rng = np.random.default_rng(9)
        fv = Tensor(rng.standard_normal((1, 3)))
        fb = Tensor(rng.standard_normal((4, 2)))
        w = Tensor(rng.standard_normal((3 + 4, 3)), name="w")
        a = model.bone_to_vertex(fv, fb, np.array([[0, 1]]), w, alpha=0.2)
        b = model.bone_to_vertex(fv, fb, np.array([[1, 0]]), w, alpha=0.2)
        assert not np.allclose(a.value, b.value)

    def test_identical_vertices_identical_outputs(self):
        rng = np.random.default_rng(11)
        row = rng.standard_normal(3)
        fv = Tensor(np.vstack([row, row]))
        fb = Tensor(rng.standard_normal((3, 2)))
        w = Tensor(rng.standard_normal((3 + 4, 3)), name="w")
        topk = np.array([[0, 2], [0, 2]])
        out = model.bone_to_vertex(fv, fb, topk, w, alpha=0.2)
        assert np.array_equal(out.value[0], out.value[1])


class TestGlobalBranch:
    def test_single_node(self):
        rng = np.random.default_rng(13)
        f = Tensor(rng.standard_normal((1, 3)))
        w = Tensor(rng.standard_normal((3, 4)), name="w")
        out = model.global_branch(f, w, alpha=0.2)
        lin = f.value[0] @ w.value
        assert np.allclose(out.value[0], np.where(lin > 0, lin, 0.2 * lin))

    def test_duplication_invariant(self):
        rng = np.random.default_rng(15)
        f = rng.standard_normal((4, 3))
        w = Tensor(rng.standard_normal((3, 4)), name="w")
        a = model.global_branch(Tensor(f), w, alpha=0.2)
        b = model.global_branch(Tensor(np.vstack([f, f])), w, alpha=0.2)
        assert np.array_equal(a.value, b.value)


class TestForward:
    def test_rows_convex(self):
        s = micro_sample()
        h = micro_hyper()
        params = model.init_params(h, seed=1)
        out = model.forward(s.graph, params, h).value
        assert np.all(out > 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_eval_mode_deterministic(self):
        s = micro_sample()
        h = micro_hyper()
        params = model.init_params(h, seed=1)
        a = model.forward(s.graph, params, h).value
        b = model.forward(s.graph, params, h).value
        assert np.array_equal(a, b)

    def test_full_model_gradient(self):
        s = micro_sample()
        h = micro_hyper()
        params = model.init_params(h, seed=2)
        # move off the zero logit layer so the check exercises it
        logit = f"final.{len(h.final_dims)}"
        rng = np.random.default_rng(0)
        params[logit] = Tensor(
            0.05 * rng.standard_normal(params[logit].value.shape), name=logit
        )

        def run(p):
            pred = model.forward(s.graph, p, h)
            return model.loss(pred, s.gt_topk, s.graph.topk, s.graph.laplacian, h.lambda_smooth)

        grads = ad.backward(run(params), params)
        for name in ("final.0", logit, "inter0.b2v", "stage0.skel.conv", "global.vertex"):
            base = params[name].value

            def scalar(v, name=name):
                trial = dict(params)
                trial[name] = Tensor(v, name=name)
                return float(run(trial).value)

            numeric = finite_difference(scalar, base, h=1e-5)
            assert max_relative_error(grads[name], numeric) < 1e-4


class TestLoss:
    def test_kl_zero_at_ground_truth(self):
        s = micro_sample()
        pred = Tensor(s.gt_topk.copy())
        val = model.loss(pred, s.gt_topk, s.graph.topk, s.graph.laplacian, 0.0)
        assert float(val.value) == pytest.approx(0.0, abs=1e-9)

    def test_matches_double_loop_reference(self):
        s = micro_sample()
        rng = np.random.default_rng(17)
        raw = rng.uniform(0.05, 1.0, size=s.gt_topk.shape)
        pred_np = raw / raw.sum(axis=1, keepdims=True)
        val = float(
            model.loss(Tensor(pred_np), s.gt_topk, s.graph.topk, s.graph.laplacian, 0.4).value
        )
        n, k = pred_np.shape
        kl = 0.0
        for i in range(n):
            for j in range(k):
                kl += pred_np[i, j] * (
                    np.log(pred_np[i, j]) - np.log(max(s.gt_topk[i, j], 1e-8))
                )
        full = np.zeros((n, s.graph.num_bones))
        for i in range(n):
            for j in range(k):
                full[i, s.graph.topk[i, j]] = pred_np[i, j]
        smooth = 0.0
        for col in range(s.graph.num_bones):
            u = full[:, col]
            smooth += u @ (s.graph.laplacian @ u)
        expect = kl / n + 0.4 * smooth / n
        assert val == pytest.approx(expect, rel=1e-12)

    def test_lambda_monotone(self):
        s = micro_sample()
        rng = np.random.default_rng(19)
        raw = rng.uniform(0.05, 1.0, size=s.gt_topk.shape)
        pred = Tensor(raw / raw.sum(axis=1, keepdims=True))
        v1 = float(model.loss(pred, s.gt_topk, s.graph.topk, s.graph.laplacian, 0.4).value)
        v2 = float(model.loss(pred, s.gt_topk, s.graph.topk, s.graph.laplacian, 0.8).value)
        assert v2 > v1

    def test_non_convex_pred_rejected(self):
        s = micro_sample()
        bad = np.full_like(s.gt_topk, 0.5)
        with pytest.raises(ValueError):
            model.loss(Tensor(bad), s.gt_topk, s.graph.topk, s.graph.laplacian, 0.4)


class TestProjectGroundTruth:
    def test_renormalized_on_support(self):
        gt = WeightRows.from_pairs([[(0, 0.5), (1, 0.3), (2, 0.2)]], num_bones=4)
        topk = np.array([[0, 1, 3]])
        out = model.project_ground_truth(gt, topk)
        assert np.allclose(out, [[0.625, 0.375, 0.0]])

    def test_uniform_fallback_off_support(self):
        gt = WeightRows.from_pairs([[(3, 1.0)]], num_bones=4)
        topk = np.array([[0, 1, 2]])
        out = model.project_ground_truth(gt, topk)
        assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]])


class TestTraining:
    def test_zero_epochs_returns_init(self):
        s = micro_sample()
        h = micro_hyper()
        params, hist = model.train([s], h, epochs=0, seed=3)
        expect = model.init_params(h, seed=3)
        assert hist == []
        for name in expect:
            assert np.array_equal(params[name].value, expect[name].value)

    def test_same_seed_same_history(self):
        s = micro_sample()
        h = micro_hyper()
        _, h1 = model.train([s], h, epochs=5, seed=4, lr=1e-3)
        _, h2 = model.train([s], h, epochs=5, seed=4, lr=1e-3)
        assert h1 == h2

    def test_loss_decreases(self):
        s = micro_sample()
        h = micro_hyper()
        _, hist = model.train([s], h, epochs=40, seed=5, lr=1e-3)
        assert hist[-1] < hist[0]


class TestPredict:
    def test_support_and_convexity(self, small_rig, tiny_hyper):
        params, _ = model.train(
            [model.prepare_sample(small_rig, tiny_hyper)], tiny_hyper, epochs=2, seed=0
        )
        pred = model.predict(small_rig, params, tiny_hyper)
        assert pred.num_bones == len(small_rig.skeleton.bones)
        for idx, val in zip(pred.indices, pred.values):
            assert len(idx) <= 3
            assert val.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(val >= 0)

    def test_deterministic(self, small_rig, tiny_hyper):
        params = model.init_params(tiny_hyper, seed=6)
        a = model.predict(small_rig, params, tiny_hyper)
        b = model.predict(small_rig, params, tiny_hyper)
        for x, y in zip(a.values, b.values):
            assert np.array_equal(x, y)

    def test_distance_mode_changes_output(self, tiny_hyper):
        cfg = synthgen.SynthConfig(resolution=32, antenna_probability=1.0)
        rig = synthgen.gen_character(cfg, 11)
        params = model.init_params(tiny_hyper, seed=7)
        # make the logit layer non-zero so attribute differences reach the output
        logit = f"final.{len(tiny_hyper.final_dims)}"
        rng = np.random.default_rng(1)
        params[logit] = Tensor(0.01 * rng.standard_normal(params[logit].value.shape), name=logit)
        he = dataclasses.replace(tiny_hyper, distance_mode="euclidean")
        a = model.predict(rig, params, tiny_hyper).to_dense()
        b = model.predict(rig, params, he).to_dense()
        assert not np.allclose(a, b)


class TestCheckpoint:
    @staticmethod
    def _saved(tmp_path, h):
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(model.init_params(h, seed=8), h, path)
        return path

    def test_round_trip(self, tmp_path, tiny_hyper):
        params = model.init_params(tiny_hyper, seed=8)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(params, tiny_hyper, path)
        loaded_params, loaded_hyper = model.load_checkpoint(path)
        assert loaded_hyper == tiny_hyper
        for name in params:
            assert np.array_equal(loaded_params[name].value, params[name].value)

    def test_same_params_same_bytes(self, tmp_path, tiny_hyper):
        params = model.init_params(tiny_hyper, seed=8)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save_checkpoint(params, tiny_hyper, a)
        model.save_checkpoint(params, tiny_hyper, b)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_arrays_train(self, tmp_path, small_sample, tiny_hyper):
        params, h = model.load_checkpoint(self._saved(tmp_path, tiny_hyper))
        for t in params.values():
            assert t.value.dtype == np.float64
            assert t.value.flags.c_contiguous and t.value.flags.writeable
        before = {name: t.value.copy() for name, t in params.items()}
        pred = model.forward(small_sample.graph, params, h)
        step_loss = model.loss(pred, small_sample.gt_topk, small_sample.graph.topk,
                               small_sample.graph.laplacian, h.lambda_smooth)
        ad.adam_step(params, ad.backward(step_loss, params), ad.AdamState(), lr=1e-3)
        assert any(not np.array_equal(before[name], t.value) for name, t in params.items())

    def test_truncated_file_rejected(self, tmp_path, tiny_hyper):
        path = self._saved(tmp_path, tiny_hyper)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(RigError, match="ends inside"):
            model.load_checkpoint(path)

    def test_trailing_byte_rejected(self, tmp_path, tiny_hyper):
        path = self._saved(tmp_path, tiny_hyper)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(RigError, match="trailing"):
            model.load_checkpoint(path)

    def test_json_checkpoint_rejected(self, tmp_path, tiny_hyper):
        params = model.init_params(tiny_hyper, seed=8)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "hyper": dataclasses.asdict(tiny_hyper),
            "params": {name: {"shape": list(t.value.shape),
                              "data": t.value.reshape(-1).tolist()}
                       for name, t in params.items()},
        }) + "\n")
        with pytest.raises(RigError, match="magic"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("old, new, match", [
        # a shape that disagrees with the hyperparameters
        (b'["mesh0.ring", [48, 24]]', b'["mesh0.ring", [48, 25]]', "mesh0.ring"),
        # a hyperparameter that disagrees with the listed shapes
        (b'"local_stages": 2', b'"local_stages": 1', "stage1"),
        # hyperparameters HyperParams rejects
        (b'"distance_mode": "hollow"', b'"distance_mode": "manhattan"', "header"),
    ])
    def test_header_disagreeing_with_hyper_rejected(self, tmp_path, tiny_hyper,
                                                    old, new, match):
        path = self._saved(tmp_path, tiny_hyper)
        magic, header, body = path.read_bytes().split(b"\n", 2)
        assert old in header
        path.write_bytes(magic + b"\n" + header.replace(old, new) + b"\n" + body)
        with pytest.raises(RigError, match=match):
            model.load_checkpoint(path)

    def test_cli_predict_bad_model_exits_1(self, tmp_path, small_rig, tiny_hyper):
        rig = tmp_path / "rig.json"
        save_rig(small_rig, rig)
        path = self._saved(tmp_path, tiny_hyper)
        path.write_bytes(path.read_bytes()[:-8])
        assert cli.main(["predict", "--model", str(path), "--rig", str(rig),
                         "--out", str(tmp_path / "w.json")]) == 1
