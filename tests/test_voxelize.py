from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heterskin import synthgen, voxelize
from heterskin.rigcore import Mesh, RigError


def _tri_box_overlap(centers: np.ndarray, half: float, tri: np.ndarray) -> np.ndarray:
    """Closed-box SAT test of one triangle against many boxes.

    centers: (C, 3) box centers, half: half side, tri: (3, 3).
    Returns a (C,) bool mask; touching counts as overlap.
    """
    v = tri[None, :, :] - centers[:, None, :]  # (C, 3, 3)
    slack = half * 1e-9
    # box face axes
    lo = v.min(axis=1)
    hi = v.max(axis=1)
    ok = np.all((hi >= -half - slack) & (lo <= half + slack), axis=1)
    if not ok.any():
        return ok
    e = np.array([tri[1] - tri[0], tri[2] - tri[1], tri[0] - tri[2]])
    # triangle plane
    n = np.cross(e[0], e[1])
    d = v[:, 0, :] @ n
    r = half * np.abs(n).sum()
    ok &= np.abs(d) <= r + slack * np.abs(n).sum()
    if not ok.any():
        return ok
    # 9 edge cross-product axes
    for i in range(3):
        for j in range(3):
            axis = np.zeros(3)
            axis[j] = 1.0
            a = np.cross(e[i], axis)
            if not a.any():
                continue
            p = v @ a  # (C, 3)
            ra = (half + slack) * np.abs(a).sum()
            ok &= (p.min(axis=1) <= ra) & (p.max(axis=1) >= -ra)
    return ok


def _reference_voxelize_surface(mesh: Mesh, grid: voxelize.VoxelGrid) -> np.ndarray:
    """Oracle: the SAT test run triangle by triangle over each triangle's
    clipped bounding box of cells."""
    r = grid.resolution
    labels = np.zeros((r,) * 3, dtype=np.uint8)
    half = grid.cell_size / 2
    for tri_idx in mesh.triangles:
        tri = mesh.vertices[tri_idx]
        lo = np.floor((tri.min(axis=0) - grid.origin) / grid.cell_size).astype(np.int64)
        hi = np.floor((tri.max(axis=0) - grid.origin) / grid.cell_size).astype(np.int64)
        lo = np.clip(lo, 1, r - 2)
        hi = np.clip(hi, 1, r - 2)
        xs, ys, zs = [np.arange(lo[a], hi[a] + 1) for a in range(3)]
        cells = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)
        mask = _tri_box_overlap(grid.center_of(cells), half, tri)
        hit = cells[mask]
        labels[hit[:, 0], hit[:, 1], hit[:, 2]] = voxelize.MESH
    return labels


def _unit_cube_mesh():
    v = np.array(
        [
            [0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ]
    )
    f = np.array(
        [
            [0, 1, 2], [0, 2, 3], [4, 6, 5], [4, 7, 6],
            [0, 4, 5], [0, 5, 1], [3, 2, 6], [3, 6, 7],
            [0, 3, 7], [0, 7, 4], [1, 5, 6], [1, 6, 2],
        ]
    )
    return Mesh(v, f)


class TestBuildGrid:
    def test_unit_cube_cell_size(self):
        grid = voxelize.build_grid(_unit_cube_mesh(), resolution=88)
        assert grid.cell_size == pytest.approx(1.0 / 86)
        assert grid.resolution == 88

    def test_small_resolution_flat_mesh(self):
        mesh = Mesh(
            np.array([[0.0, 0, 0], [1, 0, 0], [1, 0.01, 0]]), np.array([[0, 1, 2]])
        )
        grid = voxelize.build_grid(mesh, resolution=4)
        assert grid.cell_size == pytest.approx(0.5)

    def test_vertices_inside_inner_region(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            verts = rng.uniform(-3, 3, size=(20, 3))
            tris = np.array([[i, i + 1, i + 2] for i in range(0, 18, 3)])
            grid = voxelize.build_grid(Mesh(verts, tris), resolution=16)
            s = grid.cell_size
            lo = grid.origin + s
            hi = grid.origin + (grid.resolution - 1) * s
            assert np.all(verts >= lo - 1e-12)
            assert np.all(verts <= hi + 1e-12)
            cells = grid.inner_cell_of(verts)
            assert np.all(cells >= 1)
            assert np.all(cells <= grid.resolution - 2)

    def test_degenerate_mesh_rejected(self):
        mesh = Mesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
        with pytest.raises((RigError, ValueError)):
            voxelize.build_grid(mesh, 88)


class TestVoxelizeSurface:
    def test_triangle_inside_one_cell(self):
        mesh = Mesh(
            np.array([[2.2, 3.2, 4.2], [2.8, 3.2, 4.2], [2.2, 3.8, 4.8]]),
            np.array([[0, 1, 2]]),
        )
        grid = voxelize.VoxelGrid(
            origin=np.zeros(3),
            cell_size=1.0,
            resolution=8,
            labels=np.zeros((8, 8, 8), dtype=np.uint8),
        )
        labels = voxelize.voxelize_surface(mesh, grid)
        assert labels.astype(bool).sum() == 1
        assert labels[2, 3, 4]

    def test_conservative_against_point_sampling(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            verts = rng.uniform(0, 1, size=(9, 3))
            tris = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
            mesh = Mesh(verts, tris)
            grid = voxelize.build_grid(mesh, resolution=20)
            labels = voxelize.voxelize_surface(mesh, grid)
            u = rng.uniform(0, 1, size=(10000, 2))
            u1 = 1 - np.sqrt(u[:, 0])
            u2 = np.sqrt(u[:, 0]) * (1 - u[:, 1])
            u3 = np.sqrt(u[:, 0]) * u[:, 1]
            for t in tris:
                pts = (
                    u1[:, None] * verts[t[0]]
                    + u2[:, None] * verts[t[1]]
                    + u3[:, None] * verts[t[2]]
                )
                cells = grid.cell_of(pts)
                assert labels[cells[:, 0], cells[:, 1], cells[:, 2]].all()

    def test_border_padding_empty(self):
        rng = np.random.default_rng(6)
        verts = rng.uniform(0, 1, size=(9, 3))
        mesh = Mesh(verts, np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]]))
        grid = voxelize.voxelize_mesh(mesh, resolution=16)
        labels = grid.labels
        assert not labels[0].any() and not labels[-1].any()
        assert not labels[:, 0].any() and not labels[:, -1].any()
        assert not labels[:, :, 0].any() and not labels[:, :, -1].any()

    def test_triangle_order_independent(self):
        rng = np.random.default_rng(8)
        verts = rng.uniform(0, 1, size=(12, 3))
        tris = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]])
        mesh_a = Mesh(verts, tris)
        mesh_b = Mesh(verts, tris[::-1].copy())
        grid = voxelize.build_grid(mesh_a, resolution=12)
        la = voxelize.voxelize_surface(mesh_a, grid)
        lb = voxelize.voxelize_surface(mesh_b, grid)
        assert np.array_equal(la, lb)


def _grid(r, cell_size=1.0, origin=(0.0, 0.0, 0.0)):
    return voxelize.VoxelGrid(
        origin=np.asarray(origin, dtype=np.float64),
        cell_size=cell_size,
        resolution=r,
        labels=np.zeros((r, r, r), dtype=np.uint8),
    )


def _soup(tris) -> Mesh:
    """Mesh with three distinct vertex indices per triangle, so triangles
    with repeated vertex positions are accepted."""
    tris = np.asarray(tris, dtype=np.float64).reshape(-1, 3, 3)
    return Mesh(tris.reshape(-1, 3), np.arange(3 * len(tris)).reshape(-1, 3))


_R = 8


@st.composite
def _triangle(draw):
    """One triangle in cell units: free or face-snapped coordinates that
    reach into and past the padding border, in one of several degenerate
    or axis-aligned shapes."""
    coord = st.one_of(
        st.floats(min_value=-1.5, max_value=_R + 1.5, allow_nan=False),
        st.integers(min_value=-1, max_value=_R + 1).map(float),
    )
    point = st.tuples(coord, coord, coord).map(np.array)
    a, b, c = draw(point), draw(point), draw(point)
    kind = draw(st.sampled_from(["random", "collinear", "repeated", "point", "axis"]))
    if kind == "collinear":
        c = a + draw(st.floats(min_value=-2, max_value=2)) * (b - a)
    elif kind == "repeated":
        c = a.copy()
    elif kind == "point":
        b, c = a.copy(), a.copy()
    elif kind == "axis":
        k = draw(st.integers(min_value=0, max_value=2))
        b[k] = c[k] = a[k]
    return np.stack([a, b, c])


class TestBatchedEquivalence:
    """voxelize_surface against the triangle-by-triangle oracle."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        tris=st.lists(_triangle(), min_size=1, max_size=6),
        cell_size=st.sampled_from([1.0, 0.37, 1 / 86]),
        shift=st.sampled_from([0.0, -2.25, 10.1]),
        chunk=st.sampled_from([1, 3, 7, voxelize.CHUNK_PAIRS]),
    )
    def test_matches_reference(self, tris, cell_size, shift, chunk):
        origin = np.full(3, shift)
        mesh = _soup(origin + np.asarray(tris) * cell_size)
        grid = _grid(_R, cell_size, origin)
        with mock.patch.object(voxelize, "CHUNK_PAIRS", chunk):
            got = voxelize.voxelize_surface(mesh, grid)
        want = _reference_voxelize_surface(mesh, grid)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_chunks_split_and_join_triangles(self):
        # the first triangle's 4x4x4 candidate cells span 16 chunks of 4
        # pairs; the two one-cell triangles after it share one chunk
        tris = [
            [[1.5, 1.5, 1.5], [4.5, 1.5, 4.5], [1.5, 4.5, 3.0]],
            [[5.2, 5.2, 5.2], [5.8, 5.2, 5.2], [5.2, 5.8, 5.2]],
            [[2.2, 6.2, 2.2], [2.8, 6.2, 2.2], [2.2, 6.8, 2.8]],
        ]
        mesh = _soup(tris)
        grid = _grid(_R)
        with mock.patch.object(voxelize, "CHUNK_PAIRS", 4):
            got = voxelize.voxelize_surface(mesh, grid)
        assert got.tobytes() == _reference_voxelize_surface(mesh, grid).tobytes()
        assert got[5, 5, 5] and got[2, 6, 2]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_synthetic_rig_matches_reference(self, seed):
        rig = synthgen.gen_character(synthgen.SynthConfig(resolution=32), seed)
        grid = voxelize.build_grid(rig.mesh, 32)
        got = voxelize.voxelize_surface(rig.mesh, grid)
        assert got.tobytes() == _reference_voxelize_surface(rig.mesh, grid).tobytes()

    def test_no_triangles_all_hollow(self):
        mesh = Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        grid = _grid(_R)
        labels = voxelize.voxelize_surface(mesh, grid)
        assert labels.shape == (_R,) * 3 and labels.dtype == np.uint8
        assert not labels.any()
        assert grid.labels is labels


class TestRasterizeBone:
    def _grid(self, r=8, s=1.0):
        labels = np.zeros((r, r, r), dtype=bool)
        return voxelize.VoxelGrid(
            origin=np.zeros(3), cell_size=s, resolution=r, labels=labels
        )

    def test_axis_aligned_walk(self):
        grid = self._grid()
        cells = voxelize.rasterize_bone((0.5, 0.5, 0.5), (2.5, 0.5, 0.5), grid)
        assert cells.tolist() == [[0, 0, 0], [1, 0, 0], [2, 0, 0]]

    def test_zero_length_bone(self):
        grid = self._grid()
        cells = voxelize.rasterize_bone((1.5, 1.5, 1.5), (1.5, 1.5, 1.5), grid)
        assert cells.tolist() == [[1, 1, 1]]

    def test_endpoint_outside_grid_rejected(self):
        grid = self._grid()
        with pytest.raises((RigError, ValueError)):
            voxelize.rasterize_bone((0.5, 0.5, 0.5), (99.0, 0.5, 0.5), grid)

    def test_dense_sampling_subset_and_connected(self):
        rng = np.random.default_rng(11)
        grid = self._grid(r=16, s=0.5)
        for _ in range(10):
            a = rng.uniform(0.5, 7.5, size=3)
            b = rng.uniform(0.5, 7.5, size=3)
            cells = voxelize.rasterize_bone(a, b, grid)
            marked = set(map(tuple, cells))
            t = np.linspace(0, 1, 10000)[:, None]
            pts = a * (1 - t) + b * t
            hit = set(map(tuple, grid.cell_of(pts)))
            assert hit <= marked
            # consecutive cells in the walk touch (26-neighborhood chain)
            diffs = np.abs(np.diff(cells, axis=0))
            assert diffs.max(initial=0) <= 1


class TestGridGeometry:
    def test_center_of_inverts_cell_of(self):
        grid = voxelize.build_grid(_unit_cube_mesh(), resolution=16)
        cells = np.array([[1, 2, 3], [8, 8, 8], [14, 14, 14]])
        centers = grid.center_of(cells)
        assert np.array_equal(grid.cell_of(centers), cells)

    def test_translation_invariance(self):
        rng = np.random.default_rng(13)
        verts = rng.uniform(0, 1, size=(9, 3))
        tris = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        g1 = voxelize.voxelize_mesh(Mesh(verts, tris), resolution=12)
        shift = np.array([10.0, -4.0, 2.5])
        g2 = voxelize.voxelize_mesh(Mesh(verts + shift, tris), resolution=12)
        assert np.array_equal(g1.labels, g2.labels)

    def test_export_round_trip_metadata(self, tmp_path):
        grid = voxelize.voxelize_mesh(_unit_cube_mesh(), resolution=8)
        path = tmp_path / "grid.json"
        voxelize.export_grid(grid, path)
        import json

        doc = json.loads(path.read_text())
        assert doc["resolution"] == 8
        total = sum(run[1] for run in doc["rle_labels"])
        assert total == 8**3
