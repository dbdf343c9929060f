import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heterskin import rigcore
from heterskin.rigcore import Mesh, Rig, RigError, Skeleton, WeightRows

from handbuilt import chain_skeleton
from oracles import brute_force_dedup, row_loop_to_dense, row_unique_edges


@st.composite
def _rigs(draw, near_duplicates=False):
    """Small rigs with a random joint tree and optional weights.

    Coordinates are any finite floats, or with `near_duplicates` floats
    within 1e6 (a span the k-d tree can square; see
    `test_overflowing_span_rejected`) where vertices repeat a few base
    points exactly or within 1e-7, so a merge at tol 1e-6 has groups."""
    if near_duplicates:
        coord = st.floats(min_value=-1e6, max_value=1e6)
        base = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=3, max_size=8)))
        picks = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.sampled_from([0.0, 1e-7])),
                              min_size=3, max_size=12))
        verts = np.array([base[i] + jitter for i, jitter in picks])
    else:
        coord = st.floats(allow_nan=False, allow_infinity=False)
        verts = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=3, max_size=12)))
    n = len(verts)
    corner = st.integers(0, n - 1)
    tris = draw(st.lists(st.tuples(corner, corner, corner).filter(lambda t: len(set(t)) == 3),
                         max_size=8))
    joints = draw(st.integers(1, 6))
    parents = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, joints)]
    names = draw(st.lists(st.text(max_size=6), min_size=joints, max_size=joints))
    positions = draw(st.lists(st.tuples(coord, coord, coord), min_size=joints, max_size=joints))
    skeleton = Skeleton.build(names, positions, parents)
    weights = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        dense = rng.uniform(size=(n, skeleton.num_bones)) * (rng.uniform(size=(n, skeleton.num_bones)) < 0.5)
        dense[np.arange(n), rng.integers(0, skeleton.num_bones, size=n)] += 0.5
        weights = WeightRows.from_dense(dense / dense.sum(axis=1, keepdims=True))
    return Rig(Mesh(verts, np.array(tris, dtype=np.int64).reshape(-1, 3)), skeleton, weights,
               draw(st.text(max_size=6)))


def _assert_same_rig(a: Rig, b: Rig):
    assert a.name == b.name
    assert a.mesh.vertices.tobytes() == b.mesh.vertices.tobytes()
    assert np.array_equal(a.mesh.triangles, b.mesh.triangles)
    assert a.skeleton.names == b.skeleton.names
    assert a.skeleton.positions.tobytes() == b.skeleton.positions.tobytes()
    assert np.array_equal(a.skeleton.parents, b.skeleton.parents)
    assert np.array_equal(a.skeleton.bones, b.skeleton.bones)
    assert (a.weights is None) == (b.weights is None)
    if a.weights is not None:
        assert a.weights.num_bones == b.weights.num_bones
        for x, y in zip(a.weights.indices + a.weights.values, b.weights.indices + b.weights.values):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _square_mesh():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(verts, tris)


class TestMesh:
    def test_triangle_index_out_of_range(self):
        with pytest.raises(RigError):
            Mesh(np.zeros((3, 3)), np.array([[0, 1, 7]]))

    def test_repeated_index_in_triangle(self):
        with pytest.raises(RigError):
            Mesh(np.zeros((3, 3)), np.array([[0, 1, 1]]))

    def test_non_finite_coordinate(self):
        verts = np.zeros((3, 3))
        verts[1, 2] = np.inf
        with pytest.raises(RigError):
            Mesh(verts, np.array([[0, 1, 2]]))

    @pytest.mark.parametrize("vertices, triangles, message", [
        (np.zeros((3, 2)), [], "vertices must be an (n, 3) array, got shape (3, 2)"),
        (np.zeros((4, 3)), np.zeros((3, 4), dtype=int),
         "triangles must be an (n, 3) array, got shape (3, 4)"),
        (np.zeros((2, 3, 3)), [], "vertices must be an (n, 3) array, got shape (2, 3, 3)"),
    ])
    def test_wrong_shape_rejected(self, vertices, triangles, message):
        with pytest.raises(RigError) as info:
            Mesh(vertices, triangles)
        assert str(info.value) == message

    @pytest.mark.parametrize("triangles, message", [
        ([[0, 1, 2.7]], "triangle 0: vertex index 2.7 is not an integer"),
        ([[0, 1, 2], [0, True, 2]], "triangle 1: vertex index True is not an integer"),
        ([[0, 1, 2.0]], "triangle 0: vertex index 2.0 is not an integer"),
        ([[0, 1, "2"]], "triangle 0: vertex index '2' is not an integer"),
        (np.array([[0.0, 1.0, 2.0]]), "triangle 0: vertex index 0.0 is not an integer"),
        (np.array([[True, False, True]]), "triangle 0: vertex index True is not an integer"),
    ])
    def test_non_integer_triangle_index_rejected(self, triangles, message):
        with pytest.raises(RigError) as info:
            Mesh(np.eye(3), triangles)
        assert str(info.value) == message

    @pytest.mark.parametrize("vertices, triangles, what", [
        ([[0, 0, 0], [1, 0, 0], [0, 10 ** 400, 0]], [[0, 1, 2]], "vertices"),
        (np.eye(3), [[0, 1, 2 ** 70]], "triangles"),
        (np.eye(3), [[0, 1, float("inf")]], "triangles"),
        ([[0, 0, 0], [1, 0, 0], [0, "1", 0]], [[0, 1, 2]], "vertices"),
        (np.eye(3, dtype=bool), [[0, 1, 2]], "vertices"),
    ])
    def test_number_beyond_float64_or_int64_rejected(self, vertices, triangles, what):
        with pytest.raises(RigError, match=rf"{what} must be an \(n, 3\) array of numbers"):
            Mesh(vertices, triangles)

    @pytest.mark.parametrize("triangles", [[[0, np.int32(1), 2]], np.array([[0, 1, 2]], np.uint8)])
    def test_numpy_integer_triangle_index_accepted(self, triangles):
        assert Mesh(np.eye(3), triangles).triangles.tolist() == [[0, 1, 2]]

    def test_edges_sorted_unique(self):
        mesh = _square_mesh()
        edges = mesh.edges()
        assert edges.shape[1] == 2
        assert np.all(edges[:, 0] < edges[:, 1])
        assert len(np.unique(edges, axis=0)) == len(edges)
        expected = {(0, 1), (1, 2), (0, 2), (2, 3), (0, 3)}
        assert set(map(tuple, edges)) == expected

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_edges_match_row_unique_oracle(self, data):
        """Bytes and dtype of the row-wise `np.unique`, over triangles that
        repeat, share edges and list them in either direction."""
        n = data.draw(st.integers(3, 40))
        corners = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
        triangles = data.draw(st.lists(corners, max_size=60))
        triangles += data.draw(st.lists(st.sampled_from(triangles), max_size=10)) if triangles else []
        mesh = Mesh(np.zeros((n, 3)), triangles)
        edges, want = mesh.edges(), row_unique_edges(mesh.triangles)
        assert (edges.dtype, edges.shape) == (want.dtype, want.shape)
        assert edges.tobytes() == want.tobytes()


class TestSkeleton:
    @pytest.mark.parametrize("name", [None, 7, b"b", ["b"]])
    def test_non_string_name_rejected(self, name):
        with pytest.raises(RigError, match=rf"joint 1: name {re.escape(repr(name))} is not a string"):
            Skeleton.build(["a", name], np.zeros((2, 3)), [-1, 0])

    def test_chain_bones(self):
        skel = chain_skeleton([[0, 0, 0], [0, 1, 0], [0, 2, 0]])
        # two real bones then one helper at the leaf
        assert skel.bones.tolist() == [[0, 1], [1, 2], [2, 2]]

    def test_single_joint(self):
        skel = chain_skeleton([[0, 0, 0]])
        assert skel.bones.tolist() == [[0, 0]]

    def test_star_bone_count(self):
        skel = chain_skeleton(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], parents=[-1, 0, 0, 0]
        )
        # 3 real + 3 helpers
        assert len(skel.bones) == 6
        assert sum(1 for a, b in skel.bones if a == b) == 3

    def test_helper_flags(self):
        skel = chain_skeleton([[0, 0, 0], [0, 1, 0]])
        helper = skel.bones[:, 0] == skel.bones[:, 1]
        assert not helper[0]
        assert helper[1]

    def test_cycle_rejected(self):
        with pytest.raises(RigError):
            Skeleton.build(["a", "b"], np.zeros((2, 3)), [1, 0])

    def test_positions_of_wrong_shape_rejected(self):
        with pytest.raises(RigError, match=r"joint positions must be an \(n, 3\) array"):
            Skeleton.build(["a", "b"], np.zeros((3, 2)), [-1, 0])

    @pytest.mark.parametrize("parents, message", [
        ([-1.5, 0.9], "joint 0: parent -1.5 is not an integer"),
        ([-1, 0.0], "joint 1: parent 0.0 is not an integer"),
        ([-1, True], "joint 1: parent True is not an integer"),
        ([-1, "0"], "joint 1: parent '0' is not an integer"),
        (np.array([-1.0, 0.0]), "joint 0: parent -1.0 is not an integer"),
    ])
    def test_non_integer_parent_rejected(self, parents, message):
        with pytest.raises(RigError) as info:
            Skeleton.build(["a", "b"], np.zeros((2, 3)), parents)
        assert str(info.value) == message

    def test_parent_beyond_int64_rejected(self):
        with pytest.raises(RigError, match="joint parent index out of range"):
            Skeleton.build(["a", "b"], np.zeros((2, 3)), [-1, 2 ** 70])

    def test_numpy_integer_parents_accepted(self):
        for parents in ([np.int64(-1), np.int32(0)], np.array([-1, 0], np.int16)):
            assert Skeleton.build(["a", "b"], np.zeros((2, 3)), parents).parents.tolist() == [-1, 0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_rejected(self, value):
        positions = np.zeros((3, 3))
        positions[1, 0] = value
        with pytest.raises(RigError) as info:
            Skeleton.build(["a", "b", "c"], positions, [-1, 0, 1])
        assert str(info.value) == f"joint 1: position {[value, 0.0, 0.0]} is not finite"

    def test_two_roots_rejected(self):
        with pytest.raises(RigError):
            Skeleton.build(["a", "b"], np.zeros((2, 3)), [-1, -1])

    def test_bone_count_formula_random_trees(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            parents = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
            skel = Skeleton.build(
                [f"j{i}" for i in range(n)], rng.standard_normal((n, 3)), parents
            )
            leaves = n - len(set(p for p in parents if p >= 0))
            assert len(skel.bones) == (n - 1) + leaves


class TestAddHelperBones:
    def test_chain(self):
        bones = rigcore.add_helper_bones([-1, 0, 1])
        assert bones.tolist() == [[0, 1], [1, 2], [2, 2]]

    def test_single_root(self):
        assert rigcore.add_helper_bones([-1]).tolist() == [[0, 0]]

    def test_root_with_three_leaves(self):
        bones = rigcore.add_helper_bones([-1, 0, 0, 0])
        assert bones.tolist() == [[0, 1], [0, 2], [0, 3], [1, 1], [2, 2], [3, 3]]


class TestWeightRows:
    def test_row_sum_enforced(self):
        with pytest.raises(RigError):
            WeightRows.from_pairs([[(0, 0.5), (1, 0.3)]], num_bones=2)

    def test_renormalize_within_tolerance(self):
        w = WeightRows.from_pairs([[(0, 0.50005), (1, 0.5)]], num_bones=2)
        assert abs(w.values[0].sum() - 1.0) < 1e-12

    def test_negative_weight_rejected(self):
        with pytest.raises(RigError):
            WeightRows.from_pairs([[(0, -0.1), (1, 1.1)]], num_bones=2)

    @pytest.mark.parametrize("row", [
        [(0, np.nan)],
        [(0, np.nan), (1, 1.0)],
        [(0, np.inf)],
        [(0, -np.inf), (1, 1.0)],
    ])
    def test_non_finite_weight_rejected(self, row):
        with pytest.raises(RigError, match=r"weight row 1: weights must be non-negative numbers"):
            WeightRows.from_pairs([[(1, 1.0)], row], num_bones=2)

    @pytest.mark.parametrize("row", [
        [(0, 1.0, 0.0)],
        [(0,)],
        [0.5],
        [(0, [1.0])],
        [(0, 10 ** 400)],
        [(0, "0.5"), (1, "0.5")],
        [(0, True)],
    ])
    def test_malformed_pair_rejected(self, row):
        with pytest.raises(RigError, match="pairs"):
            WeightRows.from_pairs([row], num_bones=2)

    @pytest.mark.parametrize("bone", [1.5, 1.0, "1", True, False, None, np.float64(1.0),
                                      np.bool_(True)])
    def test_non_integer_bone_rejected(self, bone):
        with pytest.raises(RigError, match="weight row 1: bone index .* is not an integer"):
            WeightRows.from_pairs([[(0, 1.0)], [(bone, 1.0)]], num_bones=2)

    @pytest.mark.parametrize("rows", [5, None, 1.5, "rows"])
    def test_rows_not_a_list_rejected(self, rows):
        with pytest.raises(RigError, match="weight rows must be a list"):
            WeightRows.from_pairs(rows, num_bones=2)

    def test_bone_count_beyond_int64_rejected(self):
        with pytest.raises(RigError, match="num_bones 18446744073709551616 does not fit in 64 bits"):
            WeightRows.from_pairs([[(2 ** 63, 1.0)]], num_bones=2 ** 64)

    @pytest.mark.parametrize("bone", [-1, 2, 2 ** 70])
    def test_bone_out_of_range_rejected(self, bone):
        with pytest.raises(RigError, match=r"weight row 0: bone index out of range \[0, 2\)"):
            WeightRows.from_pairs([[(bone, 1.0)]], num_bones=2)

    def test_integer_bone_types_accepted(self):
        w = WeightRows.from_pairs([[(1, 1.0)], [(np.int64(1), 1.0)], [(np.int32(0), 1.0)]],
                                  num_bones=2)
        assert [ji.tolist() for ji in w.indices] == [[1], [1], [0]]

    def test_repeated_bone_rejected(self):
        with pytest.raises(RigError, match="bone 0 is listed twice"):
            WeightRows.from_pairs([[(0, 0.5), (0, 0.5)]], num_bones=2)

    def test_dense_round_trip(self):
        dense = np.array([[0.25, 0.75, 0.0], [0.0, 0.5, 0.5]])
        w = WeightRows.from_dense(dense)
        assert np.array_equal(w.to_dense(), dense)

    @pytest.mark.parametrize("rows", [
        [],
        [[]],
        [[], [(2, 1.0)], []],
        [[(3, 0.25), (0, 0.75)], [], [(1, 0.5), (2, 0.5)], [(0, 1.0)]],
    ])
    def test_to_dense_matches_row_loop(self, rows):
        # from_pairs rejects a row with no entries, so build the rows directly
        w = WeightRows(tuple(np.array([j for j, _ in r], dtype=np.int64) for r in rows),
                       tuple(np.array([v for _, v in r], dtype=np.float64) for r in rows), 4)
        dense = w.to_dense()
        assert dense.shape == (len(rows), 4) and dense.dtype == np.float64
        assert dense.tobytes() == row_loop_to_dense(w).tobytes()

    def test_take_repeats_and_reorders_rows(self):
        w = WeightRows.from_pairs([[(0, 1.0)], [(1, 0.5), (2, 0.5)], [(2, 1.0)]], num_bones=3)
        picked = w.take(np.array([2, 0, 2, 1]))
        assert picked.num_bones == 3
        assert picked.to_pairs() == [w.to_pairs()[i] for i in (2, 0, 2, 1)]
        assert w.take([]).to_dense().shape == (0, 3)

    def test_from_arrays_copies_rows(self):
        rng = np.random.default_rng(6)
        indices = np.argsort(rng.uniform(size=(5, 4)), axis=1)[:, :3]
        values = rng.uniform(size=(5, 3))
        w = WeightRows.from_arrays(indices, values, 4)
        assert len(w) == 5 and w.num_bones == 4
        for i in range(5):
            assert w.indices[i].dtype == np.int64 and w.values[i].dtype == np.float64
            assert w.indices[i].tobytes() == indices[i].copy().tobytes()
            assert w.values[i].tobytes() == values[i].copy().tobytes()
            assert not np.shares_memory(w.indices[i], indices)
            assert not np.shares_memory(w.values[i], values)
        assert len(WeightRows.from_arrays(np.zeros((0, 3), np.int64), np.zeros((0, 3)), 4)) == 0


class TestMergeDuplicates:
    def test_identity_when_no_duplicates(self):
        mesh = _square_mesh()
        merged, mapping = rigcore.merge_duplicate_vertices(mesh)
        assert np.array_equal(mapping, np.arange(4))
        assert np.array_equal(merged.vertices, mesh.vertices)
        assert np.array_equal(merged.triangles, mesh.triangles)

    def test_exact_duplicate_pair(self):
        verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0]])
        tris = np.array([[0, 1, 2], [0, 3, 2]])
        merged, mapping = rigcore.merge_duplicate_vertices(Mesh(verts, tris))
        assert len(merged.vertices) == 3
        assert mapping[1] == mapping[3]

    def test_degenerate_triangles_dropped(self):
        verts = np.array([[0.0, 0, 0], [1, 0, 0], [1, 0, 0]])
        tris = np.array([[0, 1, 2]])
        merged, _ = rigcore.merge_duplicate_vertices(Mesh(verts, tris))
        assert len(merged.triangles) == 0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        cases = []
        for trial in range(10):
            base = rng.uniform(0, 1, size=(30, 3))
            dup_of = rng.integers(0, 30, size=8)
            cases.append(np.vstack([base, base[dup_of]]))
        # a transitive chain: neighbours 0.6 tol apart, ends 1.8 tol apart
        chain = np.zeros((36, 3))
        chain[:, 1] = np.arange(36)
        chain[[5, 17, 2, 30]] = [[0.0, -1, 0], [0.6e-6, -1, 0], [1.2e-6, -1, 0], [1.8e-6, -1, 0]]
        cases.append(chain)
        tris = np.array([[i, i + 1, i + 2] for i in range(0, 36, 3)])
        for tol in (0.0, 1e-6):
            for verts in cases:
                merged, mapping = rigcore.merge_duplicate_vertices(Mesh(verts, tris), tol=tol)
                groups = brute_force_dedup(verts, tol)
                # same partition: two old vertices merge iff the oracle groups them
                for i in range(len(verts)):
                    for j in range(i + 1, len(verts)):
                        assert (mapping[i] == mapping[j]) == (groups[i] == groups[j])
                assert len(merged.vertices) == len(np.unique(groups))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        verts = np.repeat(rng.uniform(0, 1, size=(10, 3)), 2, axis=0)
        tris = np.array([[0, 2, 4], [1, 3, 5], [6, 8, 10]])
        once, _ = rigcore.merge_duplicate_vertices(Mesh(verts, tris))
        twice, mapping = rigcore.merge_duplicate_vertices(once)
        assert np.array_equal(mapping, np.arange(len(once.vertices)))
        assert np.array_equal(once.vertices, twice.vertices)


class TestRigIO:
    def test_minimal_bundle(self, tmp_path):
        mesh = Mesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]), np.array([[0, 1, 2]]))
        skel = chain_skeleton([[0, 0, 0], [0, 1, 0]])
        rig = Rig(mesh=mesh, skeleton=skel)
        path = tmp_path / "rig.json"
        rigcore.save_rig(rig, path)
        loaded = rigcore.load_rig(path)
        assert len(loaded.mesh.vertices) == 3
        assert len(loaded.skeleton.bones) == 2

    def test_out_of_range_triangle_in_file(self, tmp_path):
        doc = {
            "name": "bad",
            "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
            "triangles": [[0, 1, 7]],
            "joints": [{"name": "r", "position": [0, 0, 0], "parent": -1}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(RigError):
            rigcore.load_rig(path)

    @pytest.mark.parametrize("field, value, message", [
        # 12 coordinates, which reshaping to rows of 3 read as 4 vertices
        ("vertices", [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [0, 2]],
         "vertices must be an (n, 3) array, got shape (6, 2)"),
        # 12 indices, which reshaping to rows of 3 read as 4 valid triangles
        ("triangles", [[0, 1, 2, 3]] * 3, "triangles must be an (n, 3) array, got shape (3, 4)"),
        ("triangles", [[0, 1, 2], [0, 1]], "triangles must be an (n, 3) array of numbers"),
        ("vertices", [0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0],
         "vertices must be an (n, 3) array, got shape (12,)"),
        ("joints", [{"name": f"j{i}", "position": [0, i], "parent": i - 1} for i in range(3)],
         "joint positions must be an (n, 3) array, got shape (3, 2)"),
    ])
    def test_field_of_wrong_shape_in_file(self, tmp_path, field, value, message):
        doc = {
            "name": "bad",
            "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
            "triangles": [[0, 1, 2]],
            "joints": [{"name": "r", "position": [0, 0, 0], "parent": -1}],
        }
        doc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(RigError) as info:
            rigcore.load_rig(path)
        assert str(info.value).startswith(message)

    def test_empty_lists_are_no_rows(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "vertices": [], "triangles": [],
            "joints": [{"name": "r", "position": [0, 0, 0], "parent": -1}],
        }))
        mesh = rigcore.load_rig(path).mesh
        assert mesh.vertices.shape == (0, 3) and mesh.triangles.shape == (0, 3)

    def test_bad_weight_row_sum_in_file(self, tmp_path):
        doc = {
            "name": "bad",
            "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
            "triangles": [[0, 1, 2]],
            "joints": [{"name": "r", "position": [0, 0, 0], "parent": -1}],
            "weights": [[[0, 0.5]], [[0, 1.0]], [[0, 1.0]]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(RigError):
            rigcore.load_rig(path)

    def test_round_trip_exact(self, tmp_path, small_rig):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        rigcore.save_rig(small_rig, p1)
        again = rigcore.load_rig(p1)
        rigcore.save_rig(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(again.mesh.vertices, small_rig.mesh.vertices)
        assert np.array_equal(again.skeleton.positions, small_rig.skeleton.positions)
        for a, b in zip(again.weights.values, small_rig.weights.values):
            assert np.array_equal(a, b)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(rig=_rigs())
    def test_round_trip_property(self, tmp_path_factory, rig):
        path = tmp_path_factory.mktemp("rig") / "rig.json"
        rigcore.save_rig(rig, path)
        _assert_same_rig(rigcore.load_rig(path), rig)


class TestMergeRig:
    def test_overflowing_span_rejected(self):
        # the k-d tree squares coordinate differences; a span near 1e154
        # overflows, and the merge says so
        mesh = Mesh(np.array([[0.0, 0, 0], [0, 0, 0], [0, 0, 1.4e154]]), np.empty((0, 3)))
        rig = Rig(mesh, chain_skeleton([[0, 0, 0]]))
        with pytest.raises(RigError, match="coordinate span is too large to merge"):
            rigcore.merge_rig(rig)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(rig=_rigs(near_duplicates=True), tol=st.sampled_from([0.0, 1e-6, 0.5]))
    def test_idempotent(self, rig, tol):
        once, _ = rigcore.merge_rig(rig, tol)
        twice, mapping = rigcore.merge_rig(once, tol)
        assert np.array_equal(mapping, np.arange(once.mesh.num_vertices))
        _assert_same_rig(once, twice)

    def test_weights_follow_surviving_vertex(self):
        verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0]])
        tris = np.array([[0, 1, 2], [0, 3, 2]])
        skel = chain_skeleton([[0, 0, 0], [0, 1, 0]])
        w = WeightRows.from_pairs(
            [[(0, 1.0)], [(1, 1.0)], [(0, 1.0)], [(0, 0.5), (1, 0.5)]], num_bones=2
        )
        rig = Rig(mesh=Mesh(verts, tris), skeleton=skel, weights=w)
        merged, mapping = rigcore.merge_rig(rig)
        assert len(merged.mesh.vertices) == 3
        # vertex 3 merged into vertex 1: the survivor's weights win
        survivor = mapping[3]
        assert merged.weights.values[survivor].tolist() == [1.0]
