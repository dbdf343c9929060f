import numpy as np
import pytest

from heterskin import hgraph
from heterskin.rigcore import Mesh

from handbuilt import chain_skeleton, tube_rig


class TestTopkBones:
    def test_full_sort_when_k_equals_b(self):
        d = np.array([[3.0, 1.0, 2.0]])
        assert hgraph.topk_bones(d, 3).tolist() == [[1, 2, 0]]

    def test_k2(self):
        d = np.array([[3.0, 1.0, 2.0]])
        assert hgraph.topk_bones(d, 2).tolist() == [[1, 2]]

    def test_ties_by_bone_index(self):
        d = np.array([[2.0, 1.0, 1.0, 2.0]])
        assert hgraph.topk_bones(d, 3).tolist() == [[1, 2, 0]]

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            hgraph.topk_bones(np.ones((2, 3)), 4)

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(41)
        d = rng.uniform(size=(50, 9))
        topk = hgraph.topk_bones(d, 4)
        for i in range(50):
            order = sorted(range(9), key=lambda j: (d[i, j], j))
            assert topk[i].tolist() == order[:4]

    def test_scale_invariant(self):
        rng = np.random.default_rng(43)
        d = rng.uniform(size=(20, 6))
        assert np.array_equal(hgraph.topk_bones(d, 3), hgraph.topk_bones(d * 17.5, 3))


class TestVertexAttributes:
    def test_inverse_distance_arithmetic(self):
        d = np.array([[1.0, 2.0, 4.0]])
        topk = np.array([[0, 1, 2]])
        attr = hgraph.vertex_attributes(np.zeros((1, 3)), d, topk, eps=1e-6)
        assert attr.tolist() == [[0, 0, 0, 1.0, 0.5, 0.25]]

    def test_zero_distance_clamped(self):
        d = np.array([[0.0, 1.0]])
        topk = np.array([[0, 1]])
        attr = hgraph.vertex_attributes(np.zeros((1, 3)), d, topk, eps=1e-6)
        assert attr[0, 3] == pytest.approx(1e6)
        assert np.all(np.isfinite(attr))

    def test_rows_non_increasing(self):
        rng = np.random.default_rng(47)
        d = rng.uniform(0.01, 2.0, size=(40, 7))
        topk = hgraph.topk_bones(d, 3)
        attr = hgraph.vertex_attributes(rng.standard_normal((40, 3)), d, topk, eps=1e-6)
        inv = attr[:, 3:]
        assert np.all(np.diff(inv, axis=1) <= 1e-12)
        assert np.all(np.isfinite(attr))


class TestBoneAttributes:
    def test_segment_row(self):
        skel = chain_skeleton([[0, 0, 0], [0, 1, 0]])
        attr = hgraph.bone_attributes(skel)
        assert attr[0].tolist() == [0, 0, 0, 0, 1, 0]

    def test_helper_row_identical_halves(self):
        skel = chain_skeleton([[0, 0, 0], [1, 2, 3]])
        attr = hgraph.bone_attributes(skel)
        assert attr[1].tolist() == [1, 2, 3, 1, 2, 3]

    def test_row_order_matches_bones(self):
        skel = chain_skeleton(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0]], parents=[-1, 0, 0]
        )
        attr = hgraph.bone_attributes(skel)
        assert attr.shape == (len(skel.bones), 6)
        starts, ends = skel.bone_segments()
        assert np.array_equal(attr[:, :3], starts)
        assert np.array_equal(attr[:, 3:], ends)


class TestSkeletonEdges:
    def test_chain_with_helper(self):
        skel = chain_skeleton([[0, 0, 0], [0, 1, 0], [0, 2, 0]])
        edges = set(map(tuple, hgraph.skeleton_edges(skel)))
        # bones: 0=(0,1), 1=(1,2), 2=helper at joint 2
        assert edges == {(0, 1), (1, 2)}

    def test_star_clique(self):
        skel = chain_skeleton(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], parents=[-1, 0, 0, 0]
        )
        edges = set(map(tuple, hgraph.skeleton_edges(skel)))
        # the three real bones share the root joint: pairwise adjacent
        assert {(0, 1), (0, 2), (1, 2)} <= edges

    def test_matches_shared_joint_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            parents = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
            skel = chain_skeleton(rng.standard_normal((n, 3)), parents=parents)
            edges = set(map(tuple, hgraph.skeleton_edges(skel)))
            bones = skel.bones
            expect = set()
            for a in range(len(bones)):
                for b in range(a + 1, len(bones)):
                    if set(bones[a]) & set(bones[b]):
                        expect.add((a, b))
            assert edges == expect


class TestGeodesicNeighbors:
    def _two_vertex_mesh(self, length):
        verts = np.array([[0.0, 0, 0], [length, 0, 0], [0, 5.0, 0]])
        tris = np.array([[0, 1, 2]])
        return Mesh(verts, tris)

    def test_short_edge_included(self):
        mesh = self._two_vertex_mesh(0.05)
        nbrs = hgraph.geodesic_neighbors(mesh, threshold=0.06, cap=hgraph.GEO_CAP)
        assert 1 in nbrs[0] and 0 in nbrs[1]

    def test_long_edge_excluded(self):
        mesh = self._two_vertex_mesh(0.07)
        nbrs = hgraph.geodesic_neighbors(mesh, threshold=0.06, cap=hgraph.GEO_CAP)
        assert 1 not in nbrs[0] and 0 not in nbrs[1]

    def test_matches_dijkstra_oracle(self):
        import scipy.sparse as sp
        import scipy.sparse.csgraph as csgraph

        rig = tube_rig(length=0.3, radius=0.05)
        mesh = rig.mesh
        nbrs = hgraph.geodesic_neighbors(mesh, threshold=0.06, cap=64)
        edges = mesh.edges()
        w = np.linalg.norm(mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1)
        n = len(mesh.vertices)
        adj = sp.coo_matrix(
            (np.r_[w, w], (np.r_[edges[:, 0], edges[:, 1]], np.r_[edges[:, 1], edges[:, 0]])),
            shape=(n, n),
        ).tocsr()
        dist = csgraph.dijkstra(adj)
        for i in range(n):
            expect = sorted(j for j in range(n) if j != i and dist[i, j] <= 0.06)
            assert nbrs[i].tolist() == expect

    def test_cap_keeps_nearest(self):
        rig = tube_rig(length=0.2, radius=0.04)
        capped = hgraph.geodesic_neighbors(rig.mesh, threshold=0.2, cap=5)
        full = hgraph.geodesic_neighbors(rig.mesh, threshold=0.2, cap=10**6)
        for i, (c, f) in enumerate(zip(capped, full)):
            assert len(c) <= 5
            assert set(c) <= set(f)


class TestLaplacian:
    def test_single_triangle(self):
        mesh = Mesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]), np.array([[0, 1, 2]]))
        lap = hgraph.mesh_laplacian(mesh).toarray()
        assert np.array_equal(lap, np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]))

    def test_constant_in_null_space(self):
        rig = tube_rig()
        lap = hgraph.mesh_laplacian(rig.mesh)
        u = np.ones(len(rig.mesh.vertices))
        assert np.allclose(lap @ u, 0)

    def test_energy_equals_edge_sum(self):
        rig = tube_rig()
        lap = hgraph.mesh_laplacian(rig.mesh)
        rng = np.random.default_rng(59)
        u = rng.standard_normal(len(rig.mesh.vertices))
        edges = rig.mesh.edges()
        expect = np.sum((u[edges[:, 0]] - u[edges[:, 1]]) ** 2)
        assert u @ (lap @ u) == pytest.approx(expect, rel=1e-12)

    def test_psd(self):
        rig = tube_rig()
        lap = hgraph.mesh_laplacian(rig.mesh)
        rng = np.random.default_rng(61)
        for _ in range(20):
            u = rng.standard_normal(len(rig.mesh.vertices))
            assert u @ (lap @ u) >= -1e-12


class TestRingAdjacency:
    def test_sums_neighbours_as_per_vertex_lists_do(self, small_rig):
        """One product adds each vertex's neighbours in ascending order from
        0.0, the bytes of ``np.add.at`` over per-vertex neighbour lists."""
        mesh = small_rig.mesh
        adj = hgraph.ring_adjacency(mesh)
        assert (adj != adj.T).nnz == 0
        neighbors = [[] for _ in range(mesh.num_vertices)]
        for a, b in mesh.edges():
            neighbors[a].append(b)
            neighbors[b].append(a)
        for i, nb in enumerate(neighbors):
            assert adj.indices[adj.indptr[i]:adj.indptr[i + 1]].tolist() == sorted(nb)
        src = np.concatenate([np.full(len(nb), i) for i, nb in enumerate(neighbors)])
        dst = np.concatenate([np.asarray(nb, dtype=np.int64) for nb in neighbors])
        x = np.random.default_rng(67).standard_normal((mesh.num_vertices, 5))
        want = np.zeros_like(x)
        np.add.at(want, src, x[dst])
        assert (adj @ x).tobytes() == want.tobytes()


class TestBuildGraph:
    def test_assembled_graph(self, small_rig, small_sample):
        g = small_sample.graph
        n = g.vertex_attr.shape[0]
        assert g.topk.shape == (n, 3)
        assert g.vertex_attr.shape == (n, 6)
        assert g.bone_attr.shape == (g.num_bones, 6)
        assert g.laplacian.shape == (n, n)
        assert np.all(np.isfinite(g.vertex_attr))
        assert np.all(np.isfinite(g.bone_attr))
        # K ones per vertex row in the binding matrix
        assert len(np.unique(g.topk[0])) == 3
