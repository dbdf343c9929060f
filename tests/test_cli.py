import inspect
import json
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heterskin
from heterskin import cli, hollowdist, model, rigcore, skinlab, synthgen, voxelize


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    assert run(
        ["synth", "--count", "3", "--seed", "0", "--out", str(d), "--resolution", "32"]
    ) == 0
    return d


@pytest.fixture(scope="module")
def dist_file(data_dir, tmp_path_factory):
    """`heterskin hollowdist` output for rig_00000 at R=32."""
    out = tmp_path_factory.mktemp("dist") / "dist.json"
    assert run(["hollowdist", "--rig", str(data_dir / "rig_00000.json"), "--resolution", "32",
                "--out", str(out)]) == 0
    return out


FAST_TRAIN = [
    "--resolution", "32", "--vertex-local", "16", "--bone-local", "8",
    "--global-dim", "16", "--final-dims", "32,16", "--stages", "1",
]


class TestSynth:
    def test_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run(["synth", "--count", "1", "--seed", "7", "--out", str(d),
                        "--resolution", "32"]) == 0
        assert (d1 / "rig_00007.json").read_bytes() == (d2 / "rig_00007.json").read_bytes()


class TestVoxelizeGraph:
    def test_voxelize(self, data_dir, tmp_path):
        rig = str(data_dir / "rig_00000.json")
        out = tmp_path / "grid.json"
        assert run(["voxelize", "--rig", rig, "--resolution", "32", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["resolution"] == 32

    def test_hollowdist_and_graph(self, data_dir, tmp_path):
        rig = str(data_dir / "rig_00000.json")
        dist = tmp_path / "dist.txt"
        assert run(["hollowdist", "--rig", rig, "--resolution", "32", "--out", str(dist)]) == 0
        doc = json.loads(dist.read_text())
        merged, _ = rigcore.merge_rig(rigcore.load_rig(rig))
        grid = voxelize.voxelize_mesh(merged.mesh, 32)
        assert np.array_equal(np.array(doc["distances"]), hollowdist.compute_all(merged, grid))
        assert [f["bone"] for f in doc["bone_fields"]] == list(range(merged.skeleton.num_bones))
        gout = tmp_path / "graph.json"
        assert run(["graph", "--rig", rig, "--dist", str(dist), "--k", "3",
                    "--out", str(gout)]) == 0
        doc = json.loads(gout.read_text())
        assert doc["vertices"] > 0
        assert doc["bones"] > 0

    def test_graph_is_the_training_graph(self, data_dir, dist_file, tmp_path):
        # `graph` reads the resolution `hollowdist` wrote, so it clamps the
        # inverse distances as training and prediction do
        rig = data_dir / "rig_00000.json"
        assert json.loads(dist_file.read_text())["resolution"] == 32
        gout = tmp_path / "graph.json"
        assert run(["graph", "--rig", str(rig), "--dist", str(dist_file), "--k", "3",
                    "--out", str(gout)]) == 0
        doc = json.loads(gout.read_text())
        want = model.prepare_sample(rigcore.load_rig(rig), model.HyperParams(resolution=32)).graph
        for key, array in (("vertex_attr_crc32", want.vertex_attr),
                           ("bone_attr_crc32", want.bone_attr), ("topk_crc32", want.topk)):
            assert doc[key] == zlib.crc32(array.tobytes()), key


class TestPipeline:
    def test_train_predict_eval_deform(self, data_dir, tmp_path):
        model_path = tmp_path / "model.ckpt"
        assert run(["train", "--data", str(data_dir), "--epochs", "2", "--lr", "1e-3",
                    "--seed", "0", "--out", str(model_path), *FAST_TRAIN]) == 0

        rig = str(data_dir / "rig_00000.json")
        weights = tmp_path / "weights.json"
        assert run(["predict", "--model", str(model_path), "--rig", rig,
                    "--out", str(weights)]) == 0
        wdoc = json.loads(weights.read_text())
        assert all(len(row) <= 3 for row in wdoc["rows"])

        report = tmp_path / "report.json"
        assert run(["eval", "--pred", str(weights), "--gt", rig, "--rig", rig,
                    "--poses", "2", "--seed", "0", "--report", str(report)]) == 0
        rep = json.loads(report.read_text())
        assert set(rep) >= {"precision", "recall", "l1_norm", "dist_err"}

        pose = tmp_path / "pose.json"
        pose.write_text(json.dumps([{"bone": 0, "axis": [0, 0, 1], "angle": 0.3}]))
        obj = tmp_path / "posed.obj"
        assert run(["deform", "--rig", rig, "--weights", str(weights),
                    "--pose", str(pose), "--out", str(obj)]) == 0
        assert obj.read_text().startswith("v ")

    def test_eval_identity_metrics(self, data_dir, tmp_path):
        rig = str(data_dir / "rig_00001.json")
        gt = rigcore.load_rig(rig).weights
        weights = tmp_path / "gt_weights.json"
        cli._write_weights(gt, weights)
        report = tmp_path / "report.json"
        assert run(["eval", "--pred", str(weights), "--gt", rig, "--rig", rig,
                    "--poses", "2", "--seed", "1", "--report", str(report)]) == 0
        rep = json.loads(report.read_text())
        assert rep["precision"] == 1.0
        assert rep["recall"] == 1.0
        assert rep["l1_norm"] == 0.0
        assert rep["dist_err"] == 0.0

    def test_stats_topk(self, data_dir, tmp_path):
        out = tmp_path / "topk.csv"
        assert run(["stats", "topk", "--data", str(data_dir), "--kmax", "4",
                    "--out", str(out), "--resolution", "32"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,weight_mass_ratio,influential_ratio"
        rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
        assert rows.shape == (4, 3)  # one row per K
        assert rows[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]
        curves = rows[:, 1:]
        assert np.all((curves >= 0.0) & (curves <= 1.0))
        assert np.all(np.diff(curves, axis=0) >= 0.0)


class TestErrors:
    def test_missing_rig_file(self, tmp_path):
        code = run(["voxelize", "--rig", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "g.json")])
        assert code == 1

    def test_missing_model_file(self, data_dir, tmp_path, capsys):
        code = run(["predict", "--model", str(tmp_path / "nope.ckpt"),
                    "--rig", str(data_dir / "rig_00000.json"),
                    "--out", str(tmp_path / "w.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.ckpt" in err

    def test_missing_data_dir(self, tmp_path, capsys):
        code = run(["train", "--data", str(tmp_path / "nope"), "--epochs", "1",
                    "--out", str(tmp_path / "m.ckpt"), *FAST_TRAIN])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope" in err

    @pytest.mark.parametrize("option", ["--rig", "--out"])
    def test_directory_path_exits_1(self, data_dir, tmp_path, capsys, option):
        args = ["voxelize", "--rig", str(data_dir / "rig_00000.json"), "--resolution", "32",
                "--out", str(tmp_path / "g.json")]
        args[args.index(option) + 1] = str(tmp_path)
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_malformed_rig_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "bad",
            "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
            "triangles": [[0, 1, 9]],
            "joints": [{"name": "r", "position": [0, 0, 0], "parent": -1}],
        }))
        code = run(["voxelize", "--rig", str(bad), "--out", str(tmp_path / "g.json")])
        assert code == 1

    @pytest.mark.parametrize("kmax", ["0", "-1"])
    def test_stats_topk_kmax_below_one(self, data_dir, tmp_path, capsys, kmax):
        out = tmp_path / "topk.csv"
        assert run(["stats", "topk", "--data", str(data_dir), "--kmax", kmax,
                    "--out", str(out), "--resolution", "32"]) == 1
        assert capsys.readouterr().err.startswith(f"error: --kmax must be at least 1, got {kmax}")
        assert not out.exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--epochs", "0", "--epochs must be at least 1, got 0"),
        ("--epochs", "-2", "--epochs must be at least 1, got -2"),
        ("--global-dim", "0", "feature dimensions and K must be >= 1"),
        ("--final-dims", "0", "feature dimensions and K must be >= 1"),
        ("--final-dims", "32,-16", "feature dimensions and K must be >= 1"),
        ("--stages", "-1", "local_stages must be >= 0, got -1"),
    ])
    def test_bad_training_shape(self, data_dir, tmp_path, capsys, option, value, message):
        args = ["train", "--data", str(data_dir), "--epochs", "1",
                "--out", str(tmp_path / "m.ckpt"), *FAST_TRAIN]
        i = args.index(option)
        args[i + 1] = value
        assert run(args) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--lr", "nan", "lr must be a finite number >= 0, got nan"),
        ("--lr", "-0.001", "lr must be a finite number >= 0, got -0.001"),
        ("--wd", "inf", "wd must be a finite number >= 0, got inf"),
        ("--wd", "-1", "wd must be a finite number >= 0, got -1.0"),
        ("--geo-threshold", "nan", "geo_threshold must be a finite number >= 0, got nan"),
        ("--geo-threshold", "-0.1", "geo_threshold must be a finite number >= 0, got -0.1"),
        ("--lambda-s", "nan", "lambda_smooth must be a finite number >= 0, got nan"),
        ("--resolution", "3", "resolution must be >= 4, got 3"),
    ])
    def test_bad_training_value_rejected_before_rigs(self, tmp_path, capsys, monkeypatch,
                                                     option, value, message):
        def no_rigs(*args):
            raise AssertionError("train read its rigs before checking its options")

        monkeypatch.setattr(synthgen, "load_manifest", no_rigs)
        args = ["train", "--data", str(tmp_path), "--epochs", "1",
                "--out", str(tmp_path / "m.ckpt"), *FAST_TRAIN]
        if option in args:
            args[args.index(option) + 1] = value
        else:
            args += [option, value]
        assert run(args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("vertices", [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [0, 2]],
         "vertices must be an (n, 3) array, got shape (6, 2)"),
        ("triangles", [[0, 1, 2, 3]] * 3, "triangles must be an (n, 3) array, got shape (3, 4)"),
    ])
    def test_mesh_of_wrong_shape_exits_1(self, tmp_path, capsys, field, value, message):
        doc = {
            "name": "bad",
            "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
            "triangles": [[0, 1, 2]],
            "joints": [{"name": "r", "position": [0, 0, 0], "parent": -1}],
        }
        doc[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["voxelize", "--rig", str(bad), "--out", str(tmp_path / "g.json")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("field, value, message", [
        ("triangles", [[0, 1, 2.7]], "triangle 0: vertex index 2.7 is not an integer"),
        ("triangles", [[0, True, 2]], "triangle 0: vertex index True is not an integer"),
        ("parent", 0.7, "joint 1: parent 0.7 is not an integer"),
        ("parent", -1.5, "joint 1: parent -1.5 is not an integer"),
        ("position", [float("nan"), 0, 0], "joint 1: position [nan, 0.0, 0.0] is not finite"),
        ("position", [0, float("inf"), 0], "joint 1: position [0.0, inf, 0.0] is not finite"),
    ])
    def test_non_integer_index_or_non_finite_joint_exits_1(self, tmp_path, capsys,
                                                            field, value, message):
        doc = {
            "name": "bad",
            "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
            "triangles": [[0, 1, 2]],
            "joints": [{"name": "r", "position": [0, 0, 0], "parent": -1},
                       {"name": "j", "position": [0.5, 0.2, 0], "parent": 0}],
        }
        if field == "triangles":
            doc["triangles"] = value
        else:
            doc["joints"][1][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "d.json"
        assert run(["hollowdist", "--rig", str(bad), "--resolution", "8", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("joint, message", [
        ({"name": "j2", "position": [0, 0, 0]}, "joint 2 is missing field 'parent'"),
        (7, "joint 2 is not an object"),
        ({"name": "j2", "position": [0, True, 0], "parent": 1},
         "joint positions must be an (n, 3) array of numbers"),
    ])
    def test_malformed_joint_validation_error(self, data_dir, tmp_path, capsys,
                                              joint, message):
        doc = json.loads((data_dir / "rig_00000.json").read_text())
        doc["joints"][2] = joint
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["voxelize", "--rig", str(bad), "--out", str(tmp_path / "g.json")])
        assert code == 1
        assert message in capsys.readouterr().err

    # a str is the whole file; a dict replaces fields of a valid bundle, ... drops the field
    @pytest.mark.parametrize("edit, message", [
        ("5", "{path}: a rig bundle must be an object"),
        ("null", "{path}: a rig bundle must be an object"),
        ('{"vertices": [', "{path}: not a valid rig bundle: "),
        ({"joints": 5}, '{path}: "joints" must be an array'),
        ({"joints": None}, '{path}: "joints" must be an array'),
        ({"weights": 5}, '{path}: "weights" must be an array'),
        ({"vertices": ...}, '{path}: a rig bundle needs "vertices" and "triangles" and "joints"'),
    ])
    def test_malformed_bundle_exits_1(self, data_dir, tmp_path, capsys, edit, message):
        bad = tmp_path / "bad.json"
        if isinstance(edit, str):
            bad.write_text(edit)
        else:
            doc = {**json.loads((data_dir / "rig_00000.json").read_text()), **edit}
            bad.write_text(json.dumps({k: v for k, v in doc.items() if v is not ...}))
        assert run(["voxelize", "--rig", str(bad), "--out", str(tmp_path / "g.json")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message.format(path=bad)}")

    # a str is the whole file
    @pytest.mark.parametrize("doc, message", [
        ({"num_bones": 2, "rows": [[[0, 1.0, 0.5]]]}, "entries must be [bone, weight] pairs"),
        ({"num_bones": 2, "rows": [[[0, 0.5], [0, 0.5]]]}, "bone 0 is listed twice"),
        ({"num_bones": 2}, 'needs "rows" and "num_bones"'),
        ({"num_bones": 2, "rows": [[[0, 1.0]], [["1", 1.0]]]},
         "weight row 1: bone index '1' is not an integer"),
        ({"num_bones": "15", "rows": [[[0, 1.0]]]}, "num_bones '15' is not an integer >= 1"),
        ({"num_bones": None, "rows": [[[0, 1.0]]]}, "num_bones None is not an integer >= 1"),
        ({"num_bones": 15.5, "rows": [[[0, 1.0]]]}, "num_bones 15.5 is not an integer >= 1"),
        ({"num_bones": True, "rows": [[[0, 1.0]]]}, "num_bones True is not an integer >= 1"),
        ({"num_bones": 0, "rows": []}, "num_bones 0 is not an integer >= 1"),
        ({"num_bones": 2, "rows": [[[0, float("nan")]]]},
         "weight row 0: weights must be non-negative numbers; entry [0] is nan"),
        ({"num_bones": 2, "rows": 5}, '{path}: "rows" must be an array'),
        ({"num_bones": 2, "rows": None}, '{path}: "rows" must be an array'),
        ([], "{path}: a weights file must be an object"),
        ('{"num_bones": 2, "rows": [', "{path}: not a valid weights file: "),
        ({"num_bones": 2, "rows": [[[0, "0.5"], [1, "0.5"]]]},
         "weight row 0: entries must be [bone, weight] pairs"),
        ({"num_bones": 2, "rows": [[[0, True]]]}, "weight row 0: entries must be [bone, weight] pairs"),
    ])
    def test_malformed_weights_file(self, data_dir, tmp_path, capsys, doc, message):
        weights = tmp_path / "w.json"
        weights.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        pose = tmp_path / "pose.json"
        pose.write_text("[]")
        code = run(["deform", "--rig", str(data_dir / "rig_00000.json"), "--weights", str(weights),
                    "--pose", str(pose), "--out", str(tmp_path / "posed.obj")])
        assert code == 1
        assert message.format(path=weights) in capsys.readouterr().err


    # each update replaces fields of a valid distances file; ... drops the field;
    # a str is the whole file
    @pytest.mark.parametrize("update, message", [
        ({"distances": ...}, 'needs "distances" and "resolution"'),
        ({"resolution": ...}, 'needs "distances" and "resolution"'),
        ({"distances": [[1.0]]}, "distances have shape (1, 1), but the merged rig has"),
        ({"distances": 2.0}, "distances have shape (), but the merged rig has"),
        ({"distances": [[1.0, "far"]]}, "distances must be a matrix of numbers"),
        ({"distances": [[1.0, 2.0], [1.0]]}, "distances must be a matrix of numbers"),
        ({"resolution": "32"}, "resolution '32' is not an integer >= 4"),
        ({"resolution": 3}, "resolution 3 is not an integer >= 4"),
        ({"resolution": 32.0}, "resolution 32.0 is not an integer >= 4"),
        ({"resolution": True}, "resolution True is not an integer >= 4"),
        ({"resolution": None}, "resolution None is not an integer >= 4"),
        ({"distances": "one negative"}, "distances must be non-negative numbers"),
        ({"distances": "one infinite"},
         "{path}: distances must be non-negative numbers; entry [3, 1] is inf"),
        ("[]", "{path}: a distances file must be an object"),
        ('{"resolution": 32, "distances": [[1.0', "{path}: not a valid distances file: "),
        ({"distances": True}, "{path}: distances must be a matrix of numbers"),
    ])
    def test_malformed_distances_file(self, data_dir, dist_file, tmp_path, capsys,
                                      update, message):
        good = json.loads(dist_file.read_text())
        bad = tmp_path / "dist.json"
        if isinstance(update, str):
            bad.write_text(update)
        else:
            doc = {**good, **update}
            if doc["distances"] in ("one negative", "one infinite"):
                doc["distances"] = good["distances"]
                doc["distances"][3][1] = -0.5 if update["distances"] == "one negative" else np.inf
            bad.write_text(json.dumps({k: v for k, v in doc.items() if v is not ...}))
        code = run(["graph", "--rig", str(data_dir / "rig_00000.json"), "--dist", str(bad),
                    "--out", str(tmp_path / "graph.json")])
        assert code == 1
        assert message.format(path=bad) in capsys.readouterr().err

    # each update replaces fields of a valid second entry; ... drops the field
    @pytest.mark.parametrize("update, message", [
        ({"bone": -1}, "pose entry 1: bone -1 is not an integer in [0, {b})"),
        ({"bone": "past the end"}, "pose entry 1: bone {bone} is not an integer in [0, {b})"),
        ({"bone": 1.0}, "pose entry 1: bone 1.0 is not an integer in [0, {b})"),
        ({"axis": ...}, 'pose entry 1 needs "bone", "axis" and "angle"'),
        ({"angle": None}, "pose entry 1: axis must be 3 numbers and angle a number"),
        ({"axis": [None, 0, 1]}, "pose entry 1: axis must be 3 numbers and angle a number"),
        ({"angle": float("nan")}, "pose angles must be finite"),
        # at rest, only the unit-length rule is waived
        ({"axis": [float("nan"), 0, 0], "angle": 0}, "pose axes must have a finite length"),
        ({"axis": [0, 1e200, 0], "angle": 0.0}, "pose axes must have a finite length"),
        # a str is the whole file
        ('[{"bone": 0', "{path}: not a valid pose file: "),
        ('{"bone": 0}', "{path}: a pose file must be an array"),
        # axes and angles that used to broadcast or convert
        ({"axis": 0.5773502691896258}, "pose entry 1: axis must be 3 numbers and angle a number"),
        ({"axis": ["1", 0, 0]}, "pose entry 1: axis must be 3 numbers and angle a number"),
        ({"angle": "0.3"}, "pose entry 1: axis must be 3 numbers and angle a number"),
        ({"angle": True}, "pose entry 1: axis must be 3 numbers and angle a number"),
    ])
    def test_malformed_pose_file(self, data_dir, tmp_path, capsys, update, message):
        rig = rigcore.load_rig(data_dir / "rig_00000.json")
        b = rig.skeleton.num_bones
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps(
            {"num_bones": b, "rows": rig.weights.to_pairs()}))
        pose, entry = tmp_path / "pose.json", {}
        if isinstance(update, str):
            pose.write_text(update)
        else:
            entry = {"bone": 1, "axis": [0.0, 0.0, 1.0], "angle": 0.3, **update}
            if entry["bone"] == "past the end":
                entry["bone"] = b + 5
            entry = {k: v for k, v in entry.items() if v is not ...}
            pose.write_text(json.dumps([{"bone": 0, "axis": [1.0, 0.0, 0.0], "angle": 0.2}, entry]))
        code = run(["deform", "--rig", str(data_dir / "rig_00000.json"), "--weights", str(weights),
                    "--pose", str(pose), "--out", str(tmp_path / "posed.obj")])
        assert code == 1
        assert message.format(b=b, bone=entry.get("bone"), path=pose) in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_eval_non_finite_tau_exits_1(self, data_dir, tmp_path, capsys, tau):
        rig = str(data_dir / "rig_00000.json")
        b = rigcore.load_rig(rig).skeleton.num_bones
        uniform = tmp_path / "uniform.json"
        uniform.write_text(json.dumps({"num_bones": b, "rows": [
            [[j, 1.0 / b] for j in range(b)]] * rigcore.load_rig(rig).mesh.num_vertices}))
        report = tmp_path / "report.json"
        base = ["eval", "--pred", str(uniform), "--gt", rig, "--rig", rig, "--poses", "1",
                "--report", str(report)]
        # the default threshold tells this prediction from the ground truth
        assert run(base) == 0
        assert json.loads(report.read_text())["precision"] < 1.0
        report.unlink()
        capsys.readouterr()
        assert run([*base, "--tau", tau]) == 1
        assert capsys.readouterr().err == (
            f"error: influence threshold must be a finite number > 0, got {tau}\n")
        assert not report.exists()


# any JSON value: NaN, infinities and integers beyond 64 bits included
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)

# a valid document for each reader: a tetrahedron rigged to a two-joint
# chain, whose bones are (0, 1) and the helper (1, 1)
_TETRA = {"name": "t", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
          "triangles": [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]],
          "joints": [{"name": "a", "position": [0.2, 0.2, 0.1], "parent": -1},
                     {"name": "b", "position": [0.2, 0.2, 0.4], "parent": 0}],
          "weights": [[[0, 0.5], [1, 0.5]], [[0, 1.0]], [[0, 1.0]], [[1, 1.0]]]}
_VALID = {
    "bundle": _TETRA,
    "weights": {"num_bones": 2, "rows": _TETRA["weights"]},
    "distances": {"resolution": 8, "distances": [[0.1, 0.2]] * 4},
    "pose": [{"bone": 0, "axis": [0.0, 0.0, 1.0], "angle": 0.3},
             {"bone": 1, "axis": [1.0, 0.0, 0.0], "angle": 0.0}],
}


# the path to every number of each valid document that is read as a float:
# coordinates, positions, weights, distances, axis components and angles
_WEIGHT_LEAVES = [(i, p, 1) for i, row in enumerate(_TETRA["weights"]) for p in range(len(row))]
_NUMBER_LEAVES = {
    "bundle": [("vertices", i, k) for i in range(4) for k in range(3)]
              + [("joints", j, "position", k) for j in range(2) for k in range(3)]
              + [("weights", *leaf) for leaf in _WEIGHT_LEAVES],
    "weights": [("rows", *leaf) for leaf in _WEIGHT_LEAVES],
    "distances": [("distances", i, k) for i in range(4) for k in range(2)],
    "pose": [(e, "axis", k) for e in range(2) for k in range(3)] + [(0, "angle"), (1, "angle")],
}
# JSON values that are not numbers, numeric strings such as "0.5" included
_NOT_NUMBERS = st.none() | st.booleans() | st.text(max_size=3) | st.floats().map(repr)


@st.composite
def _replaced(draw, doc):
    """``doc`` with one of its nodes, the whole document included, replaced
    by any JSON value; each level is descended into three times in four."""
    if isinstance(doc, (dict, list)) and doc and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(doc) if isinstance(doc, dict) else range(len(doc))))
        copy = dict(doc) if isinstance(doc, dict) else list(doc)
        copy[key] = draw(_replaced(doc[key]))
        return copy
    return draw(_JSON)


class TestOutsideInput:
    """Any JSON value, whether a whole file or one node of a valid one, is
    either read or rejected with `RigError`, never another exception."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        return tmp_path_factory.mktemp("inputs")

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_file_readers_raise_only_rig_error(self, inputs, data):
        kind = data.draw(st.sampled_from(sorted(_VALID)))
        try:
            self._read(inputs, kind, data.draw(_replaced(_VALID[kind])))
        except rigcore.RigError:
            pass

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_non_number_in_place_of_a_number_rejected(self, inputs, data):
        kind = data.draw(st.sampled_from(sorted(_VALID)))
        *keys, last = data.draw(st.sampled_from(_NUMBER_LEAVES[kind]))
        doc = json.loads(json.dumps(_VALID[kind]))
        node = doc
        for key in keys:
            node = node[key]
        node[last] = data.draw(_NOT_NUMBERS)
        with pytest.raises(rigcore.RigError):
            self._read(inputs, kind, doc)

    @staticmethod
    def _read(inputs, kind, doc):
        """Write ``doc`` as a ``kind`` file and read it as the CLI does."""
        path = inputs / f"{kind}.json"
        path.write_text(json.dumps(doc))
        tetra = inputs / "tetra.json"
        tetra.write_text(json.dumps(_TETRA))
        read = {"bundle": rigcore.load_rig, "weights": cli._read_weights,
                "distances": lambda p: cli._read_distances(p, rigcore.load_rig(tetra)),
                "pose": lambda p: cli._read_pose(p, 2)}[kind]
        return read(path)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(rows=_replaced(_TETRA["weights"]), num_bones=st.integers(1, 3) | _JSON)
    def test_weight_rows_raise_only_rig_error(self, rows, num_bones):
        try:
            rigcore.WeightRows.from_pairs(rows, num_bones)
        except rigcore.RigError:
            pass


class TestDefaults:
    def test_defaults_are_the_library_defaults(self):
        parser = cli.build_parser()
        h, c = model.HyperParams(), synthgen.SynthConfig()

        def parse(*argv):
            return parser.parse_args(list(argv))

        # the one --global-dim flag sets both global widths
        assert h.vertex_global == h.bone_global
        synth = parse("synth", "--count", "1", "--out", "o")
        assert (synth.prop_prob, synth.antenna_prob, synth.resolution) == (
            c.prop_probability, c.antenna_probability, c.resolution)
        for command in ("voxelize", "hollowdist"):
            assert parse(command, "--rig", "r", "--out", "o").resolution == h.resolution
        graph = parse("graph", "--rig", "r", "--dist", "d", "--out", "o")
        assert (graph.k, graph.geo_threshold) == (h.k, h.geo_threshold)
        train = parse("train", "--data", "d", "--epochs", "1", "--out", "o")
        assert cli._hyper_from_args(train) == h
        defaults = inspect.signature(model.train).parameters
        assert (train.lr, train.wd) == (defaults["lr"].default, defaults["wd"].default)
        parse("predict", "--model", "m", "--rig", "r", "--out", "o")
        evaluation = parse("eval", "--pred", "p", "--gt", "g", "--rig", "r", "--report", "o")
        assert evaluation.tau == skinlab.INFLUENCE_TAU
        parse("deform", "--rig", "r", "--weights", "w", "--pose", "p", "--out", "o")
        parse("stats", "topk", "--data", "d", "--out", "o")

    def test_distance_choices_are_the_modes_hyperparams_accepts(self, capsys):
        parser = cli.build_parser()
        for mode in model.DISTANCE_MODES:
            args = parser.parse_args(["train", "--data", "d", "--epochs", "1", "--out", "o",
                                      "--distance", mode])
            assert cli._hyper_from_args(args).distance_mode == mode
        with pytest.raises(SystemExit):
            parser.parse_args(["train", "--data", "d", "--epochs", "1", "--out", "o",
                               "--distance", "geodesic"])
        with pytest.raises(ValueError, match="unknown distance mode"):
            model.HyperParams(distance_mode="geodesic")


class TestThreads:
    def test_thread_count_sets_blas(self, monkeypatch):
        # the option holds while the command runs and is undone after it
        get, _ = cli._bundled_openblas()
        before = get()
        seen = []

        def spy(args):
            seen.append(get())
            return 0

        monkeypatch.setattr(cli, "cmd_synth", spy)
        for n in (1, 2):
            assert run(["--threads", str(n), "synth", "--count", "1", "--out", "x"]) == 0
        assert seen == [1, 2]
        assert get() == before

    def test_nonpositive_thread_count_rejected(self, capsys):
        assert run(["--threads", "0", "synth", "--count", "1", "--out", "x"]) == 1
        assert "--threads must be at least 1" in capsys.readouterr().err

    def test_identical_bytes_across_environment_thread_counts(self, tmp_path):
        # default dims: matrix products with long inner dimensions, whose
        # last bits depend on the BLAS thread count, run in training
        data = tmp_path / "data"
        data.mkdir()
        rig = data / "rig_00000.json"
        rigcore.save_rig(synthgen.gen_character(synthgen.SynthConfig(resolution=32), 0), rig)
        src = os.path.dirname(os.path.dirname(os.path.abspath(heterskin.__file__)))
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            out = tmp_path / threads
            out.mkdir()
            for argv in (
                ["train", "--data", str(data), "--epochs", "1", "--resolution", "32",
                 "--out", str(out / "model.ckpt")],
                ["predict", "--model", str(out / "model.ckpt"), "--rig", str(rig),
                 "--out", str(out / "weights.json")],
            ):
                subprocess.run([sys.executable, "-m", "heterskin.cli", "--threads", "1", *argv],
                               env=env, check=True, capture_output=True)
            outputs.append([(out / name).read_bytes() for name in ("model.ckpt", "weights.json")])
        assert outputs[0] == outputs[1]
