import json

import pytest

from heterskin import cli


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    assert run(
        ["synth", "--count", "3", "--seed", "0", "--out", str(d), "--resolution", "32"]
    ) == 0
    return d


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
        text = dist.read_text()
        assert "bone" in text
        gout = tmp_path / "graph.json"
        assert run(["graph", "--rig", rig, "--dist", str(dist), "--k", "3",
                    "--out", str(gout)]) == 0
        doc = json.loads(gout.read_text())
        assert doc["vertices"] > 0
        assert doc["bones"] > 0


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
        from heterskin import rigcore

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
        assert len(lines) == 5  # header + one row per K
        assert lines[0].split(",")[0] == "k"


class TestErrors:
    def test_missing_rig_file(self, tmp_path):
        code = run(["voxelize", "--rig", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "g.json")])
        assert code != 0

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

    @pytest.mark.parametrize("joint, message", [
        ({"name": "j2", "position": [0, 0, 0]}, "joint 2 is missing field 'parent'"),
        (7, "joint 2 is not an object"),
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
