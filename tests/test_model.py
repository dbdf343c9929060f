import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heterskin.autodiff as ad
from heterskin import cli, hgraph, model, synthgen
from heterskin.autodiff import Tensor
from heterskin.rigcore import RigError, WeightRows, save_rig

from oracles import (concat_bone_to_vertex, concat_edge_conv, concat_final_head,
                     concat_mesh_conv, concat_vertex_to_bone, directed_edges, edge_rows_conv,
                     finite_difference, max_relative_error, neighbor_edges)


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
        assert (h.lambda_smooth, model.EDGE_DROPOUT, model.FINAL_DROPOUT) == (0.4, 0.85, 0.5)
        assert (model.LEAKY_ALPHA, model.VAR_SCALE, h.local_stages) == (0.2, 0.1, 3)
        assert h.resolution == 88

    def test_validation(self):
        with pytest.raises(ValueError):
            model.HyperParams(lambda_smooth=-0.1)
        with pytest.raises(ValueError):
            model.HyperParams(distance_mode="manhattan")

    @pytest.mark.parametrize("field, value", [
        ("vertex_global", 0), ("bone_global", 0), ("bone_global", -3), ("final_dims", (0,)),
        ("final_dims", (16, -1)), ("local_stages", -1),
    ])
    def test_empty_or_negative_layer_rejected(self, field, value):
        with pytest.raises(ValueError):
            model.HyperParams(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("geo_threshold", float("nan"), "geo_threshold must be a finite number >= 0, got nan"),
        ("geo_threshold", -0.01, "geo_threshold must be a finite number >= 0, got -0.01"),
        ("geo_threshold", float("inf"), "geo_threshold must be a finite number >= 0, got inf"),
        ("lambda_smooth", float("nan"), "lambda_smooth must be a finite number >= 0, got nan"),
        ("lambda_smooth", float("inf"), "lambda_smooth must be a finite number >= 0, got inf"),
        ("lambda_smooth", -0.1, "lambda_smooth must be a finite number >= 0, got -0.1"),
        ("resolution", 3, "resolution must be >= 4, got 3"),
        ("lambda_smooth", True, "lambda_smooth must be a finite number >= 0, got True"),
    ])
    def test_values_that_fail_late_rejected(self, field, value, message):
        with pytest.raises(ValueError) as info:
            model.HyperParams(**{field: value})
        assert str(info.value) == message

    def test_boundary_values_valid(self):
        h = model.HyperParams(geo_threshold=0.0, lambda_smooth=0.0, resolution=4)
        assert (h.geo_threshold, h.lambda_smooth, h.resolution) == (0.0, 0.0, 4)

    def test_no_hidden_final_layer_valid(self):
        h = dataclasses.replace(micro_hyper(), final_dims=(), local_stages=0)
        pred = model.forward(micro_sample().graph, model.init_params(h), h)
        assert np.allclose(pred.value.sum(axis=1), 1.0)


def skeleton_conv(f, pairs, w):
    """Edge convolution over both directions of undirected bone pairs."""
    return model.edge_conv(f, *hgraph.pair_layouts(pairs, f.value.shape[0]), w)


def topk_pair(topk, num_bones):
    """The (vertex_of_slot, bone_of_slot) layouts of an (N, K) Top-K table."""
    n, k = topk.shape
    return (ad.SegmentLayout(np.repeat(np.arange(n), k), n),
            ad.SegmentLayout(topk.reshape(-1), num_bones))


def topk_columns(topk, num_bones):
    """One layout over the bones per column of an (N, K) Top-K table."""
    return tuple(ad.SegmentLayout(col, num_bones) for col in topk.T)


class TestSkeletonConv:
    def test_isolated_bone_self_loop(self):
        f = Tensor(np.array([[1.0, 2.0]]))
        w = Tensor(np.vstack([np.eye(2), np.zeros((2, 2))]), name="w")
        out = skeleton_conv(f, np.empty((0, 2), int), w)
        assert np.allclose(out.value, f.value)

    def test_identical_neighbors_difference_vanishes(self):
        f = Tensor(np.array([[1.0, 2.0], [1.0, 2.0]]))
        w = Tensor(np.vstack([np.zeros((2, 2)), np.eye(2)]), name="w")
        out = skeleton_conv(f, np.array([[0, 1]]), w)
        assert np.allclose(out.value, 0.0)

    def test_neighbor_permutation_invariant(self):
        rng = np.random.default_rng(3)
        f = Tensor(rng.standard_normal((5, 3)))
        w = Tensor(rng.standard_normal((6, 3)), name="w")
        edges = np.array([[0, 1], [0, 2], [1, 3], [2, 4], [3, 4]])
        out1 = skeleton_conv(f, edges, w)
        out2 = skeleton_conv(f, edges[::-1].copy(), w)
        assert np.array_equal(out1.value, out2.value)


class TestEdgeLinear:
    # `edge_conv` against the per-edge concat form,
    # on the ring, geodesic and skeleton layouts of a rig graph.  The largest
    # difference relative to the largest entry of the output, the f gradient
    # and the w gradient, over the three relations, is 2.2e-16, 2.4e-16 and
    # 3.3e-16 (micro), 4.5e-16, 3.6e-16 and 1.3e-15 (TINY), 1.2e-15, 1.1e-15
    # and 1.1e-15 (default dims) here, at most 1.4e-15 over seeds 31-40.
    @pytest.mark.parametrize("dims", ["micro", "tiny", "default"])
    def test_matches_concat_form(self, dims, small_sample, tiny_hyper):
        h = {"micro": micro_hyper(), "tiny": tiny_hyper, "default": model.HyperParams()}[dims]
        graph = micro_sample().graph if dims == "micro" else small_sample.graph
        rng = np.random.default_rng(31)
        for layouts, width in ((graph.ring_layouts, h.vertex_local),
                               (graph.geo_layouts, h.vertex_local),
                               (graph.skel_layouts, h.bone_local)):
            f = Tensor(rng.standard_normal((layouts[0].num, width)), name="f")
            w = Tensor(ad.kaiming_normal((2 * width, width), 2 * width, rng), name="w")
            got = model.edge_conv(f, *layouts, w)
            want = concat_edge_conv(f, *layouts, w, alpha=0.2)
            g = Tensor(rng.standard_normal(got.shape))
            got_g = ad.backward(ad.tsum(ad.mul(got, g)), {"f": f, "w": w})
            want_g = ad.backward(ad.tsum(ad.mul(want, g)), {"f": f, "w": w})
            for a, b in ((got.value, want.value), (got_g["f"], want_g["f"]),
                         (got_g["w"], want_g["w"])):
                assert a.shape == b.shape
                assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()

    def test_rejects_mismatched_inputs(self):
        n = 4
        src, dst = hgraph.pair_layouts(np.array([[0, 1], [2, 3]]), n)
        f = Tensor(np.ones((n, 3)))
        with pytest.raises(ad.AutodiffError, match="weight"):
            ad.edge_max(f, src, dst, Tensor(np.ones((5, 2))))
        with pytest.raises(ad.AutodiffError, match="edge layouts"):
            ad.edge_max(Tensor(np.ones((n + 1, 3))), src, dst, Tensor(np.ones((6, 2))))
        with pytest.raises(ad.AutodiffError, match="edge layouts"):
            ad.edge_max(f, src, ad.SegmentLayout(dst.idx[1:], n), Tensor(np.ones((6, 2))))


def _check_edge_rows(f, layouts, w, g):
    """`edge_conv` against `segment_max(leaky_relu(edge_linear(...)))`:
    equal output bytes, and equal f and w gradient bytes for the upstream
    gradient g.  Returns the output and the gradients."""
    got = model.edge_conv(f, *layouts, w)
    want = edge_rows_conv(f, *layouts, w, model.LEAKY_ALPHA)
    got_g = ad.backward(ad.tsum(ad.mul(got, Tensor(g))), {"f": f, "w": w})
    want_g = ad.backward(ad.tsum(ad.mul(want, Tensor(g))), {"f": f, "w": w})
    assert got.value.tobytes() == want.value.tobytes()
    for name in ("f", "w"):
        assert got_g[name].tobytes() == want_g[name].tobytes(), name
    return got, got_g


class TestEdgeMax:
    @pytest.mark.parametrize("dims", ["micro", "tiny", "default"])
    def test_matches_edge_rows(self, dims, small_sample, tiny_hyper):
        h = {"micro": micro_hyper(), "tiny": tiny_hyper, "default": model.HyperParams()}[dims]
        graph = micro_sample().graph if dims == "micro" else small_sample.graph
        n = graph.num_vertices
        rng = np.random.default_rng(41)
        keep = rng.random(len(graph.mesh_edges)) >= model.EDGE_DROPOUT
        dropped = hgraph.pair_layouts(graph.mesh_edges[keep], n)
        for layouts, width in ((graph.ring_layouts, h.vertex_local), (dropped, h.vertex_local),
                               (graph.geo_layouts, h.vertex_local),
                               (graph.skel_layouts, h.bone_local)):
            f = Tensor(rng.standard_normal((layouts[0].num, width)), name="f")
            w = Tensor(ad.kaiming_normal((2 * width, width), 2 * width, rng), name="w")
            _check_edge_rows(f, layouts, w, rng.standard_normal((layouts[0].num, width)))

    def test_exact_ties_go_to_the_first_edge(self):
        # senders 1, 2 and 3 share one feature row, so every column of nodes
        # 0 and 4 ties; zero rows tie as well
        rng = np.random.default_rng(43)
        f = rng.standard_normal((6, 4))
        f[2] = f[3] = f[1]
        f[5] = 0.0
        src = [0, 0, 0, 4, 4, 4, 5, 5, 1, 2, 3]
        dst = [3, 1, 2, 2, 5, 3, 5, 1, 0, 0, 4]
        layouts = (ad.SegmentLayout(src, 6), ad.SegmentLayout(dst, 6))
        w = Tensor(rng.standard_normal((8, 3)), name="w")
        _check_edge_rows(Tensor(f, name="f"), layouts, w, rng.standard_normal((6, 3)))
        _check_edge_rows(Tensor(np.zeros((6, 4)), name="f"), layouts, w, rng.standard_normal((6, 3)))
        # a gradient on node 0 alone reaches sender 3, its first edge's, only
        g = np.zeros((6, 3))
        g[0] = rng.standard_normal(3)
        _, grads = _check_edge_rows(Tensor(f, name="f"), layouts, w, g)
        assert np.all(grads["f"][1:3] == 0.0) and np.all(grads["f"][3] != 0.0)

    def test_self_loop_only_node(self):
        # node 2 has only its self-loop: its row is p_2 exactly, and a gradient
        # on that row alone leaves w_bot untouched
        rng = np.random.default_rng(47)
        f = rng.standard_normal((3, 4))
        layouts = (ad.SegmentLayout([0, 1, 2], 3), ad.SegmentLayout([1, 0, 2], 3))
        w = Tensor(rng.standard_normal((8, 5)), name="w")
        g = np.zeros((3, 5))
        g[2] = rng.standard_normal(5)
        out = ad.edge_max(Tensor(f), *layouts, w)
        assert out.value[2].tobytes() == (f @ w.value[:4])[2].tobytes()
        _, grads = _check_edge_rows(Tensor(f, name="f"), layouts, w, g)
        assert np.all(grads["w"][4:] == 0.0) and np.any(grads["w"][:4] != 0.0)

    def test_empty_segment(self):
        # node 3 has no edges either way: row 0 and no gradient
        rng = np.random.default_rng(53)
        layouts = (ad.SegmentLayout([0, 1, 1, 2], 4), ad.SegmentLayout([1, 0, 2, 2], 4))
        f = Tensor(rng.standard_normal((4, 3)), name="f")
        w = Tensor(rng.standard_normal((6, 2)), name="w")
        out, grads = _check_edge_rows(f, layouts, w, rng.standard_normal((4, 2)))
        assert out.value[3].tolist() == [0.0, 0.0]
        assert grads["f"][3].tolist() == [0.0, 0.0, 0.0]

    def test_forward_tape_holds_no_edge_rows(self, small_sample, tiny_hyper):
        # no node of a forward pass, nor an array its backward keeps, has as
        # many rows as the directed ring edges
        graph = small_sample.graph
        edges = graph.ring_layouts[0].idx.size
        assert edges > 2 * graph.num_vertices
        params = model.init_params(tiny_hyper)
        stack = [model.forward(graph, params, tiny_hyper)]
        seen = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            cells = getattr(node.backward_fn, "__closure__", None) or ()
            for a in [node.value, *(c.cell_contents for c in cells)]:
                if isinstance(a, np.ndarray) and a.ndim:
                    assert a.shape[0] < edges
            stack.extend(node.parents)
        # the walk reached the bottom of the tape: every parameter is a leaf
        assert {id(p) for p in params.values()} <= seen

    def test_forward_peak_memory_is_node_sized(self):
        # E = 32 N: one (E, F) float array alone would be 32 N F 8 bytes
        n, width, fan = 2000, 64, 32
        rng = np.random.default_rng(59)
        edges = np.stack([np.repeat(np.arange(n), fan), rng.integers(0, n, n * fan)], axis=1)
        layouts = hgraph.edge_layouts(edges, n)
        f = Tensor(rng.standard_normal((n, width)))
        w = Tensor(ad.kaiming_normal((2 * width, width), 2 * width, rng))
        tracemalloc.start()
        try:
            model.edge_conv(f, *layouts, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * width * 8


def _loop_neighbor_edges(neighbors):
    src, dst = [], []
    for i, nb in enumerate(neighbors):
        if len(nb):
            src.append(np.full(len(nb), i, dtype=np.int64))
            dst.append(nb)
        else:
            src.append(np.asarray([i], dtype=np.int64))
            dst.append(np.asarray([i], dtype=np.int64))
    return np.concatenate(src), np.concatenate(dst)


def _senders(src, dst):
    """Each node's senders, in the order its incoming edges list them."""
    return [dst.idx[src.slots[i, :src.counts[i]]].tolist() for i in range(src.num)]


def _geo_rows(neighbors):
    """(E, 2) (vertex, neighbour) rows of per-vertex lists."""
    centers = np.repeat(np.arange(len(neighbors)), [len(nb) for nb in neighbors])
    return np.stack([centers, np.concatenate(neighbors)], axis=1)


class TestNeighborEdges:
    """`hgraph.edge_layouts` gives every node the senders of the loop over
    per-node lists, a self-loop for an empty list included, and appends
    the self-loops after the given edges.  The vectorized form of the
    loop that sat in the graph module is kept in `tests/oracles.py`."""

    @staticmethod
    def _check(neighbors):
        n = len(neighbors)
        rows = _geo_rows(neighbors)
        src, dst = hgraph.edge_layouts(rows, n)
        lonely = [i for i, nb in enumerate(neighbors) if len(nb) == 0]
        assert src.idx.tolist() == rows[:, 0].tolist() + lonely
        assert dst.idx.tolist() == rows[:, 1].tolist() + lonely
        want = _loop_neighbor_edges(neighbors)
        assert _senders(src, dst) == _senders(*(ad.SegmentLayout(a, n) for a in want))
        for g, w in zip(neighbor_edges(neighbors), want):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("lists", [
        [[1, 2], [], [0], [], [4, 0, 1], []],
        [[], [], []],
        [[3], [2, 0], [1], [0, 1, 2]],
    ])
    def test_matches_loop_with_self_loops(self, lists):
        self._check([np.asarray(nb, dtype=np.int64) for nb in lists])

    def test_matches_loop_on_rig_graph(self):
        graph = micro_sample().graph
        assert any(len(nb) == 0 for nb in graph.geo_neighbors)
        self._check(graph.geo_neighbors)
        want = _loop_neighbor_edges(graph.geo_neighbors)
        assert _senders(*graph.geo_layouts) == _senders(
            *(ad.SegmentLayout(a, graph.num_vertices) for a in want))

    @pytest.mark.parametrize("pairs, n", [
        ([[0, 1], [2, 3]], 5), ([], 3), ([[0, 2], [1, 2], [0, 1]], 3),
    ])
    def test_pairs_give_the_old_arrays(self, pairs, n):
        # both directions of undirected pairs: the arrays of the old builder
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        src, dst = hgraph.pair_layouts(pairs, n)
        want_src, want_dst = directed_edges(pairs, n)
        assert np.array_equal(src.idx, want_src) and np.array_equal(dst.idx, want_dst)


class TestEdgeLayoutBytes:
    # `edge_max` on the layouts of `hgraph.edge_layouts` against the same
    # edges laid out by the old builders of `tests/oracles.py`: equal
    # output, f gradient and w gradient bytes.  Only the geodesic layouts
    # differ in edge order (self-loops of empty lists come last); a
    # vertex with an empty list is no other vertex's neighbour, because
    # geodesic distance is symmetric.
    @pytest.mark.parametrize("dims", ["micro", "tiny"])
    def test_edge_max_bytes_match_old_layouts(self, dims, small_sample, tiny_hyper):
        h = {"micro": micro_hyper(), "tiny": tiny_hyper}[dims]
        graph = micro_sample().graph if dims == "micro" else small_sample.graph
        n, b = graph.num_vertices, graph.num_bones
        assert any(len(nb) == 0 for nb in graph.geo_neighbors)
        rng = np.random.default_rng(61)
        cases = [(graph.ring_layouts, directed_edges(graph.mesh_edges, n), h.vertex_local),
                 (graph.geo_layouts, neighbor_edges(graph.geo_neighbors), h.vertex_local),
                 (graph.skel_layouts, directed_edges(graph.skel_edges, b), h.bone_local)]
        for _ in range(3):
            pairs = graph.mesh_edges[rng.random(len(graph.mesh_edges)) >= model.EDGE_DROPOUT]
            cases.append((hgraph.pair_layouts(pairs, n), directed_edges(pairs, n),
                          h.vertex_local))
        for layouts, (src, dst), width in cases:
            count = layouts[0].num
            old = (ad.SegmentLayout(src, count), ad.SegmentLayout(dst, count))
            f = Tensor(rng.standard_normal((count, width)), name="f")
            w = Tensor(ad.kaiming_normal((2 * width, width), 2 * width, rng), name="w")
            g = Tensor(rng.standard_normal((count, width)))
            got, want = ad.edge_max(f, *layouts, w), ad.edge_max(f, *old, w)
            assert got.value.tobytes() == want.value.tobytes()
            got_g = ad.backward(ad.tsum(ad.mul(got, g)), {"f": f, "w": w})
            want_g = ad.backward(ad.tsum(ad.mul(want, g)), {"f": f, "w": w})
            for name in ("f", "w"):
                assert got_g[name].tobytes() == want_g[name].tobytes(), name


class TestVertexToBone:
    def test_singleton_statistics(self):
        rng = np.random.default_rng(5)
        fv = Tensor(rng.standard_normal((1, 3)))
        fb = Tensor(rng.standard_normal((2, 2)))
        w = Tensor(rng.standard_normal((2 + 9, 2)), name="w")
        topk = np.array([[0]])
        out = model.vertex_to_bone(fv, fb, topk_pair(topk, 2), w)
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
        out = model.vertex_to_bone(fv, fb, topk_pair(topk, b), w)
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
        a = model.bone_to_vertex(fv, fb, topk_columns(np.array([[0, 1]]), 4), w)
        b = model.bone_to_vertex(fv, fb, topk_columns(np.array([[1, 0]]), 4), w)
        assert not np.allclose(a.value, b.value)

    def test_identical_vertices_identical_outputs(self):
        rng = np.random.default_rng(11)
        row = rng.standard_normal(3)
        fv = Tensor(np.vstack([row, row]))
        fb = Tensor(rng.standard_normal((3, 2)))
        w = Tensor(rng.standard_normal((3 + 4, 3)), name="w")
        topk = np.array([[0, 2], [0, 2]])
        out = model.bone_to_vertex(fv, fb, topk_columns(topk, 3), w)
        assert np.array_equal(out.value[0], out.value[1])


def _column_bone_to_vertex(f_v, f_b, topk, w, alpha):
    """`bone_to_vertex` as K gathers, one per Top-K column, and a concat:
    the form the single slot gather replaced, kept as its reference."""
    columns = [ad.gather_rows(f_b, ad.SegmentLayout(col, f_b.value.shape[0]))
               for col in topk.T]
    return ad.leaky_relu(ad.matmul(ad.concat_cols([f_v] + columns), w), alpha)


class TestOneTopKGather:
    # The slot-gather form of `tests/oracles.py` against K column gathers:
    # the forward bytes match.  The f_b gradient sums a bone's K slots in
    # one pass instead of column by column; its largest difference, relative
    # to the largest gradient entry, is 2.7e-16 (micro), 6.9e-16 (TINY) and
    # 9.3e-16 (default dims) here, at most 1.4e-15 over seeds 31-40.
    @pytest.mark.parametrize("dims", ["micro", "tiny", "default"])
    def test_matches_column_gathers(self, dims, small_sample, tiny_hyper):
        h = {"micro": micro_hyper(), "tiny": tiny_hyper, "default": model.HyperParams()}[dims]
        graph = micro_sample().graph if dims == "micro" else small_sample.graph
        rng = np.random.default_rng(31)
        n, b, k = graph.num_vertices, graph.num_bones, graph.k
        f_v = Tensor(rng.standard_normal((n, h.vertex_local)))
        f_b = Tensor(rng.standard_normal((b, h.bone_local)), name="f_b")
        shape = (h.vertex_local + k * h.bone_local, h.vertex_local)
        w = Tensor(ad.kaiming_normal(shape, shape[0], rng), name="w")
        got = concat_bone_to_vertex(f_v, f_b, graph.topk_layouts, w, alpha=0.2)
        want = _column_bone_to_vertex(f_v, f_b, graph.topk, w, alpha=0.2)
        assert got.value.tobytes() == want.value.tobytes()

        g = Tensor(rng.standard_normal(got.shape))
        got_g = ad.backward(ad.tsum(ad.mul(got, g)), {"f_b": f_b})["f_b"]
        want_g = ad.backward(ad.tsum(ad.mul(want, g)), {"f_b": f_b})["f_b"]
        assert np.abs(got_g - want_g).max() <= 1e-14 * np.abs(want_g).max()


def _tape_arrays(out):
    """Every array of the tape that ends at ``out``: each node's value and
    what its backward closure keeps, inside lists and tuples too.  Returns
    the arrays and the number of nodes."""
    arrays, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        kept = [node.value, *(c.cell_contents for c in
                              getattr(node.backward_fn, "__closure__", None) or ())]
        while kept:
            a = kept.pop()
            if isinstance(a, np.ndarray):
                arrays.append(a)
            elif isinstance(a, (list, tuple)):
                kept.extend(a)
        stack.extend(node.parents)
    return arrays, len(seen)


class TestGatherMatmul:
    # `bone_to_vertex` and `final_head` against the concatenated-row forms
    # of `tests/oracles.py`, whose single products add in another order.
    # The largest difference, relative to the largest entry, over the output
    # and the f_v, f_b, g_v, g_b and w gradients of both layers is 4.4e-16
    # (micro), 1.5e-15 (TINY) and 1.8e-15 (default dims) here, at most
    # 2.1e-15 over seeds 31-40; the f_v gradients are equal.
    @pytest.mark.parametrize("dims", ["micro", "tiny", "default"])
    def test_matches_concat_forms(self, dims, small_sample, tiny_hyper):
        h = {"micro": micro_hyper(), "tiny": tiny_hyper, "default": model.HyperParams()}[dims]
        graph = micro_sample().graph if dims == "micro" else small_sample.graph
        rng = np.random.default_rng(37)
        n, b, k = graph.num_vertices, graph.num_bones, graph.k
        f_v = Tensor(rng.standard_normal((n, h.vertex_local)), name="f_v")
        f_b = Tensor(rng.standard_normal((b, h.bone_local)), name="f_b")
        g_v = Tensor(rng.standard_normal((1, h.vertex_global)), name="g_v")
        g_b = Tensor(rng.standard_normal((1, h.bone_global)), name="g_b")
        shapes = model._param_shapes(h)
        w_b2v = Tensor(ad.kaiming_normal(shapes["stage0.inter.b2v"], shapes["stage0.inter.b2v"][0],
                                         rng), name="w")
        w_head = Tensor(ad.kaiming_normal(shapes["final.0"], shapes["final.0"][0], rng), name="w")
        cases = [
            (model.bone_to_vertex(f_v, f_b, graph.topk_columns, w_b2v),
             concat_bone_to_vertex(f_v, f_b, graph.topk_layouts, w_b2v, model.LEAKY_ALPHA),
             {"f_v": f_v, "f_b": f_b, "w": w_b2v}),
            (model.final_head(f_v, f_b, g_v, g_b, graph.topk_columns, graph.pool_layouts[0],
                              w_head),
             concat_final_head(f_v, f_b, g_v, g_b, graph.topk_layouts, w_head),
             {"f_v": f_v, "f_b": f_b, "g_v": g_v, "g_b": g_b, "w": w_head}),
        ]
        for got, want, inputs in cases:
            g = Tensor(rng.standard_normal(got.shape))
            got_g = ad.backward(ad.tsum(ad.mul(got, g)), inputs)
            want_g = ad.backward(ad.tsum(ad.mul(want, g)), inputs)
            pairs = [(got.value, want.value)] + [(got_g[name], want_g[name]) for name in inputs]
            for a, b in pairs:
                assert a.shape == b.shape
                assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()

    def test_training_tape_holds_no_gathered_rows(self, small_sample):
        # at default dims, no node of a training pass nor an array its
        # backward keeps has a vertex's Top-K bone rows (K * bone_local
        # columns) or the whole final input (1,664 columns) on N rows
        h = model.HyperParams()
        graph = small_sample.graph
        n = graph.num_vertices
        wide = (h.k * h.bone_local, h.vertex_local + h.k * h.bone_local + h.vertex_global
                + h.bone_global)
        assert wide == (384, 1664) and n not in (384, 1664)
        arrays, nodes = _tape_arrays(model.forward(graph, model.init_params(h), h,
                                                   np.random.default_rng(0)))
        assert nodes > 100
        assert not [a.shape for a in arrays if a.ndim == 2 and a.shape[0] == n
                    and a.shape[1] in wide]


def _tape_ops(out):
    """How many nodes of each op the tape that ends at ``out`` holds, read
    from the qualified name of each node's backward closure."""
    ops, stack, seen = {}, [out], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.backward_fn is not None:
            op = node.backward_fn.__qualname__.split(".<locals>")[0]
            ops[op] = ops.get(op, 0) + 1
        stack.extend(node.parents)
    return ops


class TestSideBySideProducts:
    # `mesh_conv`'s merge and `vertex_to_bone`'s product go through
    # `gather_matmul`, one product per part, against the concat-then-matmul
    # forms of `tests/oracles.py`.  The largest difference, relative to the
    # largest entry, over the output and every input gradient of both
    # layers is 2.8e-16 (micro), 5.3e-16 (TINY) and 1.3e-15 (default dims)
    # here, at most 1.7e-15 over seeds 31-40.
    @pytest.mark.parametrize("dims", ["micro", "tiny", "default"])
    def test_matches_concat_forms(self, dims, small_sample, tiny_hyper):
        h = {"micro": micro_hyper(), "tiny": tiny_hyper, "default": model.HyperParams()}[dims]
        graph = micro_sample().graph if dims == "micro" else small_sample.graph
        rng = np.random.default_rng(71)
        n, b = graph.num_vertices, graph.num_bones
        shapes = model._param_shapes(h)
        w = {name: Tensor(ad.kaiming_normal(shapes[name], shapes[name][0], rng), name=name)
             for name in ("mesh0.ring", "mesh0.geo", "mesh0.merge", "inter0.v2b")}
        f_v = Tensor(rng.standard_normal((n, h.vertex_local)), name="f_v")
        f_b = Tensor(rng.standard_normal((b, 6)), name="f_b")
        mesh_w = [w["mesh0.ring"], w["mesh0.geo"], w["mesh0.merge"]]
        cases = [
            (model.mesh_conv(f_v, graph.ring_layouts, graph.geo_layouts, *mesh_w),
             concat_mesh_conv(f_v, graph.ring_layouts, graph.geo_layouts, *mesh_w,
                              model.LEAKY_ALPHA),
             {"f_v": f_v, **{t.name: t for t in mesh_w}}),
            (model.vertex_to_bone(f_v, f_b, graph.topk_layouts, w["inter0.v2b"]),
             concat_vertex_to_bone(f_v, f_b, graph.topk_layouts, w["inter0.v2b"],
                                   model.VAR_SCALE, model.LEAKY_ALPHA),
             {"f_v": f_v, "f_b": f_b, "w": w["inter0.v2b"]}),
        ]
        for got, want, inputs in cases:
            g = Tensor(rng.standard_normal(got.shape))
            got_g = ad.backward(ad.tsum(ad.mul(got, g)), inputs)
            want_g = ad.backward(ad.tsum(ad.mul(want, g)), inputs)
            pairs = [(got.value, want.value)] + [(got_g[name], want_g[name]) for name in inputs]
            for a, b in pairs:
                assert a.shape == b.shape
                assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()

    def test_training_tape_holds_no_concat(self, small_sample):
        # side-by-side inputs go through `gather_matmul`, never a concat
        h = model.HyperParams()
        ops = _tape_ops(model.forward(small_sample.graph, model.init_params(h), h,
                                      np.random.default_rng(0)))
        assert "concat_cols" not in ops
        # b2v, v2b and the merge of the first layers and of each local
        # stage, and final.0
        assert ops["gather_matmul"] == 3 * (h.local_stages + 1) + 1


class TestGlobalBranch:
    def test_single_node(self):
        rng = np.random.default_rng(13)
        f = Tensor(rng.standard_normal((1, 3)))
        w = Tensor(rng.standard_normal((3, 4)), name="w")
        out = model.global_branch(f, ad.SegmentLayout([0], 1), w)
        lin = f.value[0] @ w.value
        assert np.allclose(out.value[0], np.where(lin > 0, lin, 0.2 * lin))

    def test_duplication_invariant(self):
        rng = np.random.default_rng(15)
        f = rng.standard_normal((4, 3))
        w = Tensor(rng.standard_normal((3, 4)), name="w")
        a = model.global_branch(Tensor(f), ad.SegmentLayout([0] * 4, 1), w)
        b = model.global_branch(Tensor(np.vstack([f, f])), ad.SegmentLayout([0] * 8, 1), w)
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


def _spread_logits(params, h, seed):
    """Replace the zero-initialized logit layer so outputs are not uniform."""
    logit = f"final.{len(h.final_dims)}"
    rng = np.random.default_rng(seed)
    params[logit] = Tensor(0.05 * rng.standard_normal(params[logit].value.shape), name=logit)
    return params


class TestGraphLayouts:
    """Segment layouts cached on the graph give the same bytes as fresh
    ones, and dropped ring edges are rebuilt on every training pass (one
    given an rng) and on no other."""

    def test_cached_layouts_give_identical_bytes(self):
        h = micro_hyper()
        params = _spread_logits(model.init_params(h, seed=3), h, 4)
        cached = micro_sample().graph
        model.forward(cached, params, h)
        layouts = {name: cached.__dict__[name] for name in
                   ("ring_layouts", "geo_layouts", "skel_layouts", "topk_layouts", "topk_columns",
                   "pool_layouts")}
        for training in (False, True):
            fresh = micro_sample().graph
            assert "geo_layouts" not in fresh.__dict__
            want = model.forward(fresh, params, h, np.random.default_rng(5) if training else None)
            got = model.forward(cached, params, h, np.random.default_rng(5) if training else None)
            assert got.value.tobytes() == want.value.tobytes()
        # the second and third passes reused the first pass's layouts
        assert all(cached.__dict__[name] is lay for name, lay in layouts.items())

    @staticmethod
    def _spy_pair_layouts(monkeypatch) -> list:
        """Record each (pairs, layouts) that `forward` builds."""
        built = []

        def spy(pairs, count):
            built.append((pairs, hgraph.pair_layouts(pairs, count)))
            return built[-1][1]

        monkeypatch.setattr(model, "pair_layouts", spy)
        return built

    def test_train_mode_rebuilds_dropped_ring(self, monkeypatch):
        h = micro_hyper()
        params = model.init_params(h, seed=3)
        graph = micro_sample().graph
        n = graph.num_vertices
        built = self._spy_pair_layouts(monkeypatch)
        for seed in (1, 2):
            model.forward(graph, params, h, np.random.default_rng(seed))
        assert len(built) == 2
        for seed, (pairs, (src, dst)) in zip((1, 2), built):
            keep = np.random.default_rng(seed).random(len(graph.mesh_edges)) >= model.EDGE_DROPOUT
            assert np.array_equal(pairs, graph.mesh_edges[keep])
            want_src, want_dst = directed_edges(graph.mesh_edges[keep], n)
            assert np.array_equal(src.idx, want_src)
            assert np.array_equal(dst.idx, want_dst)
        assert not np.array_equal(built[0][1][0].idx, built[1][1][0].idx)
        assert "ring_layouts" not in graph.__dict__

    def test_inference_keeps_every_ring_edge(self, monkeypatch):
        h = micro_hyper()
        params = model.init_params(h, seed=3)
        graph = micro_sample().graph
        built = self._spy_pair_layouts(monkeypatch)
        for _ in range(2):
            model.forward(graph, params, h)
        assert built == []
        src, dst = graph.__dict__["ring_layouts"]
        want_src, want_dst = directed_edges(graph.mesh_edges, graph.num_vertices)
        assert np.array_equal(src.idx, want_src)
        assert np.array_equal(dst.idx, want_dst)

    def test_training_pass_without_ring_edges(self, monkeypatch):
        # a training pass over a mesh without edges: its ring is one self-loop
        # per vertex
        h = micro_hyper()
        params = model.init_params(h, seed=3)
        graph = dataclasses.replace(micro_sample().graph,
                                    mesh_edges=np.zeros((0, 2), dtype=np.int64))
        built = self._spy_pair_layouts(monkeypatch)
        pred = model.forward(graph, params, h, np.random.default_rng(1))
        assert np.allclose(pred.value.sum(axis=1), 1.0)
        [(pairs, (src, dst))] = built
        assert pairs.shape == (0, 2)
        everyone = np.arange(graph.num_vertices)
        assert np.array_equal(src.idx, everyone) and np.array_equal(dst.idx, everyone)

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(rig_seed=st.integers(0, 100_000), param_seed=st.integers(0, 1_000))
    def test_predict_rows_convex(self, tiny_hyper, rig_seed, param_seed):
        rig = synthgen.gen_character(synthgen.SynthConfig(resolution=32), rig_seed)
        params = _spread_logits(model.init_params(tiny_hyper, param_seed), tiny_hyper,
                                param_seed)
        rows = model.predict(rig, params, tiny_hyper)
        assert len(rows) == rig.mesh.num_vertices
        values = np.stack(rows.values)
        assert np.all(values >= 0)
        assert np.all(np.abs(values.sum(axis=1) - 1.0) <= 1e-6)


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

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            model.train([micro_sample()], micro_hyper(), epochs=-1)

    @pytest.mark.parametrize("rate", ["lr", "wd"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-4])
    def test_bad_rate_rejected(self, rate, value):
        with pytest.raises(ValueError, match=f"{rate} must be a finite number >= 0"):
            model.train([micro_sample()], micro_hyper(), epochs=1, **{rate: value})

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


class TestPrepareSample:
    def test_missing_weights_rejected_before_distances(self, small_rig, tiny_hyper,
                                                       monkeypatch):
        def no_search(*args):
            raise AssertionError("distance search ran for a rig without weights")

        monkeypatch.setattr(model, "distance_matrix", no_search)
        rig = dataclasses.replace(small_rig, weights=None)
        with pytest.raises(ValueError, match="no ground-truth weights"):
            model.prepare_sample(rig, tiny_hyper)


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
        ad.adam_step(params, ad.backward(step_loss, params), ad.AdamState(), lr=1e-3,
                     wd=1e-4)
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
        # a field HyperParams no longer has, as in checkpoints of earlier versions
        (b'"lambda_smooth": 0.4', b'"lambda_smooth": 0.4, "smoothing": true', "header"),
        # values that used to fail late or train silently
        (b'"geo_threshold": 0.06', b'"geo_threshold": NaN', "geo_threshold must be"),
        (b'"geo_threshold": 0.06', b'"geo_threshold": -0.5', "geo_threshold must be"),
        (b'"lambda_smooth": 0.4', b'"lambda_smooth": NaN', "lambda_smooth must be"),
        (b'"resolution": 32', b'"resolution": 3', "resolution must be >= 4"),
        # integer-valued floats, which used to fail with a TypeError or load
        (b'"resolution": 32', b'"resolution": 32.0', "header"),
        (b'"local_stages": 2', b'"local_stages": 2.0', "header"),
        (b'["mesh0.ring", [48, 24]]', b'["mesh0.ring", [48.0, 24]]', "header"),
        (b'"final_dims": [48, 24]', b'"final_dims": [48.0, 24]', "header"),
        (b'"lambda_smooth": 0.4', b'"lambda_smooth": true', "lambda_smooth must be"),
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

    def test_earlier_version_checkpoint_rejected(self, tmp_path, small_rig, tiny_hyper, capsys):
        """Checkpoints of earlier versions list six more hyperparameters, now
        constants; loading one must fail rather than run with other values."""
        path = self._saved(tmp_path, tiny_hyper)
        magic, header, body = path.read_bytes().split(b"\n", 2)
        doc = json.loads(header)
        doc["hyper"].update(edge_dropout=0.85, final_dropout=0.5, leaky_alpha=0.2,
                            var_scale=0.1, smoothing=True, geo_cap=32)
        path.write_bytes(magic + b"\n" + json.dumps(doc).encode() + b"\n" + body)
        with pytest.raises(RigError, match="header"):
            model.load_checkpoint(path)
        rig = tmp_path / "rig.json"
        save_rig(small_rig, rig)
        assert cli.main(["predict", "--model", str(path), "--rig", str(rig),
                         "--out", str(tmp_path / "w.json")]) == 1
        assert "bad checkpoint header" in capsys.readouterr().err
