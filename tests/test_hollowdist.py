import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from heterskin import hollowdist, synthgen, voxelize
from heterskin.rigcore import Mesh, Rig

from handbuilt import chain_skeleton, tube_rig
from oracles import reference_bfs


def open_grid(r=8, s=1.0):
    return voxelize.VoxelGrid(
        origin=np.zeros(3), cell_size=s, resolution=r, labels=np.zeros((r, r, r), bool)
    )


def random_grid(rng, r, wall_prob=0.2):
    labels = rng.uniform(size=(r, r, r)) < wall_prob
    # keep the border hollow like real grids
    labels[0] = labels[-1] = False
    labels[:, 0] = labels[:, -1] = False
    labels[:, :, 0] = labels[:, :, -1] = False
    return voxelize.VoxelGrid(
        origin=np.zeros(3), cell_size=1.0, resolution=r, labels=labels
    )


def assert_matches_reference(grid, seeds):
    field = hollowdist.compute_cell_distances(grid, seeds)
    ref_steps, ref_pred = reference_bfs(grid.labels.astype(bool), seeds)
    assert np.array_equal(field.steps, ref_steps)
    assert np.array_equal(field.pred, ref_pred)


@st.composite
def _border_case(draw):
    """A grid with mesh cells anywhere, border faces, edges and corners
    included, optionally a one-cell-thick closed box (which forces
    restarts), and seeds biased towards the border."""
    r = draw(st.integers(min_value=1, max_value=9))
    density = draw(st.sampled_from([0.0, 0.15, 0.4, 0.8]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    labels = rng.uniform(size=(r, r, r)) < density
    if r >= 3 and draw(st.booleans()):
        lo = draw(st.integers(min_value=0, max_value=r - 3))
        hi = draw(st.integers(min_value=lo + 3, max_value=r))
        labels[lo:hi, lo:hi, lo:hi] = True
        labels[lo + 1:hi - 1, lo + 1:hi - 1, lo + 1:hi - 1] = False
    coord = st.one_of(st.sampled_from([0, r - 1]), st.integers(min_value=0, max_value=r - 1))
    seeds = draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=4))
    return labels, np.array(seeds)


@st.composite
def _shell_case(draw):
    """Detached nests of closed shells, seeds on border cells.

    A nest is one-cell-thick closed boxes, each two cells inside the one
    around it, down to one or two cells.  The nests sit side by side
    along x with at least one hollow cell between them, and the hollow
    gap inside each outer shell is reachable only through a restart, so
    a grid forces at least one restart per nest.  Border seeds lie
    outside every nest or on an outer wall."""
    sizes = draw(st.lists(st.integers(min_value=5, max_value=7), min_size=1, max_size=3))
    gaps = draw(st.lists(st.integers(min_value=0, max_value=1),
                         min_size=len(sizes) + 1, max_size=len(sizes) + 1))
    r = sum(sizes) + len(sizes) - 1 + sum(gaps)
    labels = np.zeros((r, r, r), bool)
    x = gaps[0]
    for size, gap in zip(sizes, gaps[1:]):
        lo = np.array([x, *draw(st.tuples(*[st.integers(0, r - size)] * 2))])
        hi = lo + size
        x += size + 1 + gap
        while (hi > lo).all():
            labels[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
            labels[tuple(slice(a + 1, b - 1) for a, b in zip(lo, hi))] = False
            lo, hi = lo + 2, hi - 2
    border = st.sampled_from([0, r - 1])
    free = st.integers(min_value=0, max_value=r - 1)
    seed = st.permutations([border, free, free]).flatmap(lambda c: st.tuples(*c))
    seeds = draw(st.lists(seed, min_size=1, max_size=4))
    return labels, np.array(seeds), len(sizes)


def _restarts(field, labels):
    """Hollow cells whose predecessor is a mesh cell, that is, restart
    frontier cells: at least one per restart."""
    pred = field.pred.reshape(-1)
    mesh = labels.reshape(-1)
    return int(np.count_nonzero((pred >= 0) & ~mesh & mesh[np.maximum(pred, 0)]))


class TestGridGraph:
    def test_scipy_claims_children_in_column_order(self):
        # the search relies on this: breadth_first_order claims a row's
        # children in CSR column order (not sorted), skips a repeated or
        # already claimed column, and expands in FIFO order
        rows = {5: [2, 0, 2], 2: [4, 1, 2], 0: [3, 1], 3: [1]}
        indptr = np.zeros(7, dtype=np.int32)
        for node, cols in rows.items():
            indptr[node + 1] = len(cols)
        indptr = np.cumsum(indptr, dtype=np.int32)
        indices = np.array([c for node in range(6) for c in rows.get(node, [])], dtype=np.int32)
        graph = csr_matrix((np.broadcast_to(1.0, indices.shape), indices, indptr), shape=(6, 6))
        order, pred = breadth_first_order(graph, 5, directed=True, return_predecessors=True)
        assert order.tolist() == [5, 2, 0, 4, 1, 3]
        assert pred.tolist() == [5, 2, 5, 0, 2, -9999]

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(case=_shell_case())
    def test_matches_reference_on_nested_and_detached_shells(self, case):
        labels, seeds, nests = case
        r = labels.shape[0]
        grid = voxelize.VoxelGrid(origin=np.zeros(3), cell_size=1.0, resolution=r,
                                  labels=labels)
        ref_steps, ref_pred = reference_bfs(labels, seeds)
        graph = hollowdist.GridGraph(grid)
        for field in (hollowdist.compute_cell_distances(grid, seeds),
                      hollowdist.compute_cell_distances(grid, seeds, 0, graph)):
            assert np.array_equal(field.steps, ref_steps)
            assert np.array_equal(field.pred, ref_pred)
            assert _restarts(field, labels) >= nests

    def test_one_graph_serves_every_bone(self):
        rng = np.random.default_rng(41)
        grid = random_grid(rng, 10, wall_prob=0.3)
        graph = hollowdist.GridGraph(grid)
        for _ in range(5):
            seeds = rng.integers(0, 10, size=(int(rng.integers(1, 40)), 3))
            a = hollowdist.compute_cell_distances(grid, seeds)
            b = hollowdist.compute_cell_distances(grid, seeds, 0, graph)
            assert np.array_equal(a.steps, b.steps) and np.array_equal(a.pred, b.pred)

    def test_graph_of_another_grid_rejected(self):
        rng = np.random.default_rng(43)
        grid, other = random_grid(rng, 8), random_grid(rng, 8)
        graph = hollowdist.GridGraph(grid)
        with pytest.raises(ValueError, match="different grid"):
            hollowdist.compute_cell_distances(other, np.array([[1, 1, 1]]), 0, graph)


class TestCellDistances:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(case=_border_case())
    def test_matches_reference_on_border_cells(self, case):
        labels, seeds = case
        r = labels.shape[0]
        grid = voxelize.VoxelGrid(origin=np.zeros(3), cell_size=1.0, resolution=r,
                                  labels=labels)
        assert_matches_reference(grid, seeds)


    def test_open_grid_manhattan(self):
        grid = open_grid()
        field = hollowdist.compute_cell_distances(grid, np.array([[0, 0, 0]]))
        x, y, z = np.meshgrid(*[np.arange(8)] * 3, indexing="ij")
        assert np.array_equal(field.dist, (x + y + z).astype(float))

    def test_seed_cell_zero_no_pred(self):
        grid = open_grid()
        field = hollowdist.compute_cell_distances(grid, np.array([[2, 3, 4]]))
        assert field.steps[2, 3, 4] == 0
        assert field.pred[2, 3, 4] == -1

    def test_empty_seed_set_rejected(self):
        with pytest.raises(ValueError):
            hollowdist.compute_cell_distances(open_grid(), np.empty((0, 3), int))

    @pytest.mark.parametrize("cell", [[-1, 2, 2], [2, 8, 2], [2, 2, 9]])
    def test_seed_off_the_grid_rejected(self, cell):
        # flat indices would wrap or land on another cell
        with pytest.raises(ValueError, match=f"bone cell \\{cell}\\ lies outside the 8\\^3 grid"):
            hollowdist.compute_cell_distances(open_grid(), np.array([[2, 2, 2], cell]))

    def test_matches_reference_on_random_grids(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            r = int(rng.integers(4, 13))
            grid = random_grid(rng, r, wall_prob=float(rng.uniform(0.05, 0.35)))
            seeds = rng.integers(0, r, size=(int(rng.integers(1, 4)), 3))
            assert_matches_reference(grid, seeds)

    def test_walled_off_box_restart(self):
        # a closed 1-cell-thick box around the center; seed outside
        r = 9
        labels = np.zeros((r, r, r), bool)
        labels[2:7, 2:7, 2:7] = True
        labels[3:6, 3:6, 3:6] = False
        grid = voxelize.VoxelGrid(
            origin=np.zeros(3), cell_size=1.0, resolution=r, labels=labels
        )
        seeds = np.array([[0, 0, 0]])
        assert_matches_reference(grid, seeds)
        field = hollowdist.compute_cell_distances(grid, seeds)
        # the search must reach every wall cell (crawling along the shell)
        assert np.all(field.steps[labels] >= 0)
        # but never pass through the wall: the sealed interior stays
        # untraversed because the loop ends once all mesh cells are done
        assert field.steps[4, 4, 4] == -1

    def test_monotone_pred_chain(self):
        rng = np.random.default_rng(23)
        grid = random_grid(rng, 10)
        field = hollowdist.compute_cell_distances(grid, np.array([[5, 5, 5]]))
        steps = field.steps.reshape(-1)
        pred = field.pred.reshape(-1)
        for f in np.flatnonzero(steps > 0):
            hops = 0
            cur = f
            while pred[cur] >= 0:
                cur = pred[cur]
                hops += 1
                assert hops <= steps[f]
            assert steps[cur] == 0
            assert hops == steps[f]

    def test_determinism(self):
        rng = np.random.default_rng(29)
        grid = random_grid(rng, 12)
        seeds = np.array([[1, 1, 1], [10, 10, 10]])
        f1 = hollowdist.compute_cell_distances(grid, seeds)
        f2 = hollowdist.compute_cell_distances(grid, seeds)
        assert np.array_equal(f1.steps, f2.steps)
        assert np.array_equal(f1.pred, f2.pred)

    def test_dist_multiples_of_cell_size(self):
        rng = np.random.default_rng(31)
        grid = random_grid(rng, 8)
        grid = voxelize.VoxelGrid(
            origin=grid.origin, cell_size=0.25, resolution=8, labels=grid.labels
        )
        field = hollowdist.compute_cell_distances(grid, np.array([[4, 4, 4]]))
        d = field.dist[np.isfinite(field.dist)]
        assert np.all(d / 0.25 == np.round(d / 0.25))


class TestVertexDistance:
    def test_seed_cell_vertex_zero(self):
        grid = open_grid()
        field = hollowdist.compute_cell_distances(grid, np.array([[1, 1, 1]]))
        p = np.array([1.5, 1.5, 1.5])
        assert hollowdist.vertex_distances(field, p[None], grid)[0] == 0.0

    def test_two_step_arithmetic(self):
        grid = open_grid()
        field = hollowdist.compute_cell_distances(grid, np.array([[1, 1, 1]]))
        # cell (3,1,1) has pred (2,1,1) at dist 1; center (2.5, 1.5, 1.5)
        p = np.array([3.5, 1.5, 1.5])
        d = hollowdist.vertex_distances(field, p[None], grid)[0]
        assert d == pytest.approx(1.0 + 1.0)

    def test_recompute_from_stored_pred(self):
        rng = np.random.default_rng(37)
        grid = random_grid(rng, 10)
        field = hollowdist.compute_cell_distances(grid, np.array([[5, 5, 5]]))
        for _ in range(50):
            p = rng.uniform(1.0, 9.0, size=3)
            c = grid.inner_cell_of(p[None, :])[0]
            if field.steps[tuple(c)] < 0:
                continue
            got = hollowdist.vertex_distances(field, p[None], grid)[0]
            if field.steps[tuple(c)] == 0:
                assert got == 0.0
                continue
            pf = field.pred[tuple(c)]
            pc = np.array([pf // 100, (pf // 10) % 10, pf % 10])
            expect = field.dist[tuple(pc)] + np.linalg.norm(grid.center_of(pc[None, :])[0] - p)
            assert got == pytest.approx(expect, rel=1e-12)


class TestComputeAll:
    def test_one_bone_rig_zero_inside(self):
        rig = tube_rig()
        grid = voxelize.voxelize_mesh(rig.mesh, resolution=24)
        d = hollowdist.compute_all(rig, grid)
        assert d.shape == (len(rig.mesh.vertices), len(rig.skeleton.bones))
        assert np.all(np.isfinite(d))
        assert np.all(d >= 0)

    def test_detached_prop_all_finite(self):
        cfg = synthgen.SynthConfig(resolution=32, prop_probability=1.0)
        rig = synthgen.gen_character(cfg, 1)
        grid = voxelize.voxelize_mesh(rig.mesh, resolution=32)
        d = hollowdist.compute_all(rig, grid)
        assert np.all(np.isfinite(d))

    def test_mirror_symmetry_within_cell(self):
        # barbell: two blobs joined, skeleton symmetric about x=0
        rig = tube_rig()
        verts = rig.mesh.vertices - np.array([0.0, 0.5, 0.0])
        mesh = Mesh(verts, rig.mesh.triangles)
        skel = chain_skeleton([[0, -0.5, 0], [0, 0.0, 0], [0, 0.5, 0]])
        rig_a = Rig(mesh=mesh, skeleton=skel)
        mirrored = Mesh(verts * np.array([1.0, -1.0, 1.0]), rig.mesh.triangles[:, ::-1].copy())
        rig_b = Rig(mesh=mirrored, skeleton=skel)
        ga = voxelize.voxelize_mesh(rig_a.mesh, resolution=24)
        gb = voxelize.voxelize_mesh(rig_b.mesh, resolution=24)
        da = hollowdist.compute_all(rig_a, ga)
        db = hollowdist.compute_all(rig_b, gb)
        # the two real bones swap under the mirror (the helper bone at the
        # leaf has no mirrored twin and stays out of the comparison)
        swap = np.max(np.abs(da[:, [0, 1]] - db[:, [1, 0]]))
        assert swap <= 2 * ga.cell_size + 1e-9


class TestEuclidean:
    def test_point_to_segment(self):
        rig = tube_rig()
        d = hollowdist.euclidean_all(rig)
        assert d.shape == (len(rig.mesh.vertices), len(rig.skeleton.bones))
        # first vertex is at (radius, 0, 0); bone 0 spans y in [0, 0.5]
        assert d[0, 0] == pytest.approx(0.1)
        assert np.all(np.isfinite(d))
