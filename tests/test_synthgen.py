import hashlib

import numpy as np
import pytest

from heterskin import hollowdist, synthgen, voxelize
from heterskin.rigcore import RigError


CFG = synthgen.SynthConfig(resolution=32)


def _digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class TestGenCharacter:
    def test_deterministic(self, tmp_path):
        from heterskin import rigcore

        a = synthgen.gen_character(CFG, 3)
        b = synthgen.gen_character(CFG, 3)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        rigcore.save_rig(a, pa)
        rigcore.save_rig(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_weights_convex_top3(self):
        rig = synthgen.gen_character(CFG, 5)
        for idx, val in zip(rig.weights.indices, rig.weights.values):
            assert len(idx) <= 3
            assert np.all(val >= 0)
            assert val.sum() == pytest.approx(1.0, abs=1e-9)

    def test_height_normalized(self):
        rig = synthgen.gen_character(CFG, 7)
        height = rig.mesh.vertices[:, 1].max() - rig.mesh.vertices[:, 1].min()
        assert height == pytest.approx(1.0, abs=1e-9)

    def test_bone_count_in_range(self):
        for seed in range(5):
            rig = synthgen.gen_character(CFG, seed)
            real = sum(1 for a, b in rig.skeleton.bones if a != b)
            assert CFG.bones_min <= real <= CFG.bones_max

    def test_rig_invariants_and_finite_distances(self):
        cfg = synthgen.SynthConfig(
            resolution=32, prop_probability=1.0, antenna_probability=1.0
        )
        rig = synthgen.gen_character(cfg, 2)
        grid = voxelize.voxelize_mesh(rig.mesh, resolution=32)
        d = hollowdist.compute_all(rig, grid)
        assert np.all(np.isfinite(d))
        assert np.all(d >= 0)

    def test_detached_prop_disconnected(self):
        cfg = synthgen.SynthConfig(resolution=32, prop_probability=1.0)
        rig = synthgen.gen_character(cfg, 4)
        # union-find over triangle edges: at least two components
        n = len(rig.mesh.vertices)
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for tri in rig.mesh.triangles:
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2])):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        components = len({find(i) for i in range(n)})
        assert components >= 2

    def test_antenna_bone_outside_mesh(self):
        cfg = synthgen.SynthConfig(resolution=32, antenna_probability=1.0)
        rig = synthgen.gen_character(cfg, 6)
        grid = voxelize.voxelize_mesh(rig.mesh, resolution=32)
        starts, ends = rig.skeleton.bone_segments()
        outside = []
        for s, e in zip(starts, ends):
            cells = voxelize.rasterize_bone(s, e, grid)
            hollow = not grid.labels[cells[:, 0], cells[:, 1], cells[:, 2]].any()
            outside.append(hollow)
        assert any(outside)

    def test_invalid_config_rejected(self):
        with pytest.raises((RigError, ValueError)):
            synthgen.SynthConfig(prop_probability=1.5)


class TestGenDataset:
    def test_single_bundle_and_manifest(self, tmp_path):
        files = synthgen.gen_dataset(1, CFG, seed=0, out_dir=tmp_path)
        assert len(files) == 1
        manifest = synthgen.load_manifest(tmp_path)
        assert len(manifest) == 1

    def test_distinct_bundles(self, tmp_path):
        files = synthgen.gen_dataset(6, CFG, seed=10, out_dir=tmp_path)
        digests = {_digest(f) for f in files}
        assert len(digests) == 6

    def test_regeneration_identical(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        f1 = synthgen.gen_dataset(2, CFG, seed=1, out_dir=d1)
        f2 = synthgen.gen_dataset(2, CFG, seed=1, out_dir=d2)
        for a, b in zip(f1, f2):
            assert _digest(a) == _digest(b)
