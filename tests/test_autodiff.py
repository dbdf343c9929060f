import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heterskin.autodiff as ad
from heterskin import model
from heterskin.autodiff import AutodiffError, Tensor

from oracles import allocating_adam_step, finite_difference, max_relative_error, reshape


def param(value, name="p"):
    return Tensor(np.asarray(value, dtype=np.float64), name=name)


def check_gradient(build, x, tol=1e-4, h=1e-5):
    """build(tensor) -> scalar Tensor; compares backward against central
    finite differences."""
    p = param(x)
    loss = build(p)
    grads = ad.backward(loss, {"p": p})

    def scalar(v):
        return float(build(param(v)).value)

    numeric = finite_difference(scalar, np.asarray(x, dtype=np.float64), h=h)
    assert max_relative_error(grads["p"], numeric) < tol


class TestForwardValues:
    def test_softmax_uniform(self):
        out = ad.row_softmax(param([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.value, [[1 / 3, 1 / 3, 1 / 3]])

    def test_leaky_relu_negative(self):
        out = ad.leaky_relu(param([-1.0]), alpha=0.2)
        assert out.value[0] == pytest.approx(-0.2)

    def test_leaky_relu_gradient_negative_side(self):
        p = param([-1.0])
        loss = ad.tsum(ad.leaky_relu(p, alpha=0.2))
        grads = ad.backward(loss, {"p": p})
        assert grads["p"][0] == pytest.approx(0.2)

    def test_leaky_relu_slope_sums_to_one(self):
        alphas = np.random.default_rng(23).uniform(0.0, 1.0, 100_000)
        alphas[:3] = 0.0, 5e-324, 1.0
        assert np.all((1.0 - alphas) + alphas == 1.0)

    @pytest.mark.parametrize("alpha", [0.0, 5e-324, 0.2, 0.3, 0.5, 0.7, 1.0])
    def test_leaky_relu_matches_where_forms(self, alpha):
        # max(a, alpha * a) and g * slope against where(a >= 0, a, alpha * a)
        # and where(a >= 0, g, alpha * g), byte for byte, signed zeros and
        # subnormals included
        rng = np.random.default_rng(19)
        a = rng.standard_normal((40, 9))
        a[::3, 1] = 0.0
        a[1::3, 2] = -0.0
        a[::4, 3] = 5e-324
        a[1::4, 4] = -5e-324
        g = rng.standard_normal(a.shape)
        g[::2, 1:3] = -0.0
        p = param(a)
        out = ad.leaky_relu(p, alpha)
        grad = ad.backward(ad.tsum(ad.mul(out, Tensor(g))), {"p": p})["p"]
        assert out.value.tobytes() == np.where(a >= 0, a, alpha * a).tobytes()
        assert grad.tobytes() == np.where(a >= 0, g, alpha * g).tobytes()

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
    def test_leaky_relu_slope_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(AutodiffError, match="slope"):
            ad.leaky_relu(param([1.0, -1.0]), alpha)

    def test_segment_statistics(self):
        x = param([[1.0], [5.0], [3.0]])
        lay = ad.SegmentLayout([0, 0, 1], 2)
        assert ad.segment_max(x, lay).value.tolist() == [[5.0], [3.0]]
        assert ad.segment_mean(x, lay).value.tolist() == [[3.0], [3.0]]
        assert ad.segment_var(x, lay).value.tolist() == [[4.0], [0.0]]

    def test_empty_segment_zeros(self):
        x = param([[2.0]])
        lay = ad.SegmentLayout([1], 2)
        assert ad.segment_max(x, lay).value.tolist() == [[0.0], [2.0]]
        assert ad.segment_mean(x, lay).value.tolist() == [[0.0], [2.0]]
        assert ad.segment_var(x, lay).value.tolist() == [[0.0], [0.0]]

    def test_dropout_scaling(self):
        rng = np.random.default_rng(0)
        x = param(np.ones((200, 4)))
        out = ad.dropout(x, 0.5, rng)
        kept = out.value[out.value != 0]
        assert np.allclose(kept, 2.0)

    def test_non_finite_trips_error(self):
        with pytest.raises(AutodiffError):
            ad.log(param([0.0]))

    def test_shape_mismatch_trips_error(self):
        with pytest.raises(AutodiffError):
            ad.add(param(np.ones((2, 2))), param(np.ones((3, 2))))


class TestBackward:
    def test_linear_case(self):
        w = param(np.arange(6.0).reshape(2, 3), name="w")
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        loss = ad.tsum(ad.matmul(x, w))
        grads = ad.backward(loss, {"w": w})
        expect = x.value.T @ np.ones((2, 3))
        assert np.array_equal(grads["w"], expect)

    def test_unreached_param_zero_grad(self):
        a = param([1.0], name="a")
        b = param([2.0], name="b")
        loss = ad.tsum(a)
        grads = ad.backward(loss, {"a": a, "b": b})
        assert grads["b"].tolist() == [0.0]

    def test_two_layer_mlp(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3))

        def build(p):
            h = ad.leaky_relu(ad.matmul(Tensor(x), p), alpha=0.2)
            return ad.tsum(ad.mul(h, h))

        check_gradient(build, rng.standard_normal((3, 5)))


class TestPrimitiveGradients:
    def test_matmul(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 4))
        check_gradient(lambda p: ad.tsum(ad.matmul(Tensor(a), p)), rng.standard_normal((4, 2)))
        b = rng.standard_normal((4, 2))
        check_gradient(lambda p: ad.tsum(ad.matmul(p, Tensor(b))), rng.standard_normal((3, 4)))

    def test_add_sub_mul_scale(self):
        rng = np.random.default_rng(7)
        other = rng.standard_normal((3, 3))
        for op in (ad.add, ad.sub, ad.mul):
            check_gradient(lambda p, op=op: ad.tsum(ad.mul(op(p, Tensor(other)), op(p, Tensor(other)))), rng.standard_normal((3, 3)))
        check_gradient(lambda p: ad.tsum(ad.scale(p, -2.5)), rng.standard_normal((3, 3)))

    def test_log(self):
        rng = np.random.default_rng(9)
        check_gradient(lambda p: ad.tsum(ad.log(p)), rng.uniform(0.5, 2.0, (4, 3)))

    def test_leaky_relu(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 4)) + 0.05  # keep clear of the kink
        check_gradient(lambda p: ad.tsum(ad.mul(ad.leaky_relu(p, 0.2), ad.leaky_relu(p, 0.2))), x)

    def test_concat_gather_broadcast(self):
        rng = np.random.default_rng(13)
        other = rng.standard_normal((4, 2))
        check_gradient(lambda p: ad.tsum(ad.mul(ad.concat_cols([p, Tensor(other)]), ad.concat_cols([p, Tensor(other)]))), rng.standard_normal((4, 3)))
        idx = ad.SegmentLayout([2, 0, 1, 2], 3)
        check_gradient(lambda p: ad.tsum(ad.mul(ad.gather_rows(p, idx), ad.gather_rows(p, idx))), rng.standard_normal((3, 2)))
        check_gradient(lambda p: ad.tsum(ad.mul(ad.broadcast_rows(p, 5), ad.broadcast_rows(p, 5))), rng.standard_normal((1, 3)))

    def test_segment_reductions(self):
        rng = np.random.default_rng(15)
        idx = ad.SegmentLayout([0, 1, 0, 2, 1], 3)
        x = rng.standard_normal((5, 3))
        # keep argmax unique so the subgradient choice is differentiable
        x[2] += 3.0
        for op in (ad.segment_max, ad.segment_mean, ad.segment_var):
            check_gradient(lambda p, op=op: ad.tsum(ad.mul(op(p, idx), op(p, idx))), x)

    def test_reshape(self):
        rng = np.random.default_rng(16)
        weights = rng.standard_normal((2, 6))
        check_gradient(lambda p: ad.tsum(ad.mul(reshape(p, (2, -1)), Tensor(weights))),
                       rng.standard_normal((4, 3)))
        check_gradient(lambda p: ad.tsum(ad.mul(reshape(p, (6, 2)), reshape(p, (6, 2)))),
                       rng.standard_normal((3, 4)))

    def test_gather_matmul(self):
        # rows of their own, a part read twice through two layouts and a
        # one-row part read by every row
        rng = np.random.default_rng(20)
        first, second = ad.SegmentLayout([2, 0, 1, 2, 2], 3), ad.SegmentLayout([1, 1, 0, 2, 0], 3)
        pool = ad.SegmentLayout([0] * 5, 1)
        own, one = rng.standard_normal((5, 2)), rng.standard_normal((1, 3))
        x, w = rng.standard_normal((3, 4)), rng.standard_normal((2 + 4 + 4 + 3, 3))

        def gm(x, w):
            out = ad.gather_matmul([(Tensor(own), None), (x, first), (x, second),
                                    (Tensor(one), pool)], w)
            return ad.tsum(ad.mul(out, out))

        check_gradient(lambda p: gm(p, Tensor(w)), x)
        check_gradient(lambda p: gm(Tensor(x), p), w)

    def test_edge_max(self):
        rng = np.random.default_rng(18)
        src, dst = ad.SegmentLayout([0, 0, 1, 2, 3, 3], 4), ad.SegmentLayout([1, 3, 0, 2, 0, 1], 4)
        f, w = rng.standard_normal((4, 3)), rng.standard_normal((6, 2))
        check_gradient(lambda p: ad.tsum(ad.mul(ad.edge_max(p, src, dst, Tensor(w)),
                                                ad.edge_max(p, src, dst, Tensor(w)))), f)
        check_gradient(lambda p: ad.tsum(ad.mul(ad.edge_max(Tensor(f), src, dst, p),
                                                ad.edge_max(Tensor(f), src, dst, p))), w)

    def test_row_softmax(self):
        rng = np.random.default_rng(17)
        weights = rng.standard_normal((4, 3))
        check_gradient(lambda p: ad.tsum(ad.mul(ad.row_softmax(p), Tensor(weights))), rng.standard_normal((4, 3)))

    def test_scatter_cols(self):
        rng = np.random.default_rng(19)
        idx = np.array([[0, 2], [1, 3], [3, 0]])
        check_gradient(lambda p: ad.tsum(ad.mul(ad.scatter_cols(p, idx, 4), ad.scatter_cols(p, idx, 4))), rng.standard_normal((3, 2)))

    def test_spmm(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(21)
        mat = sp.random(4, 4, density=0.5, random_state=3, format="csr")
        check_gradient(lambda p: ad.tsum(ad.mul(ad.spmm(mat, p), ad.spmm(mat, p))), rng.standard_normal((4, 2)))

    def test_dropout_gradient_routes_kept_entries(self):
        x = param(np.ones((50, 4)))
        rng = np.random.default_rng(23)
        out = ad.dropout(x, 0.5, rng)
        mask = out.value != 0
        grads = ad.backward(ad.tsum(out), {"p": x})
        assert np.array_equal(grads["p"] != 0, mask)
        assert np.allclose(grads["p"][mask], 2.0)


class TestGatherMatmul:
    def test_products_before_the_gather(self):
        # each part's product on its own rows, read per output row and added
        # in part order, byte for byte
        rng = np.random.default_rng(25)
        lay = ad.SegmentLayout([3, 0, 0, 2, 1, 3], 4)
        own, x = rng.standard_normal((6, 5)), rng.standard_normal((4, 3))
        w = rng.standard_normal((8, 7))
        out = ad.gather_matmul([(Tensor(own), None), (Tensor(x), lay)], Tensor(w))
        assert out.value.tobytes() == (own @ w[:5] + (x @ w[5:])[lay.idx]).tobytes()
        concat = np.concatenate([own, x[lay.idx]], axis=1) @ w
        assert np.abs(out.value - concat).max() <= 1e-14 * np.abs(concat).max()

    def test_gradients_sum_rows_through_the_incidence(self):
        rng = np.random.default_rng(27)
        lay = ad.SegmentLayout([1, 1, 0, 1], 3)  # row 2 of x is read by no row
        x = Tensor(rng.standard_normal((3, 2)), name="x")
        w = Tensor(rng.standard_normal((2, 4)), name="w")
        g = rng.standard_normal((4, 4))
        out = ad.gather_matmul([(x, lay)], w)
        grads = ad.backward(ad.tsum(ad.mul(out, Tensor(g))), {"x": x, "w": w})
        rows = lay.incidence @ g
        assert grads["x"].tobytes() == (rows @ w.value.T).tobytes()
        assert grads["w"].tobytes() == (x.value.T @ rows).tobytes()
        assert grads["x"][2].tolist() == [0.0, 0.0]

    def test_rejects_mismatched_parts(self):
        lay = ad.SegmentLayout([0, 1, 1], 2)
        own, x = Tensor(np.ones((3, 2))), Tensor(np.ones((2, 4)))
        with pytest.raises(AutodiffError, match="at least one part"):
            ad.gather_matmul([], Tensor(np.ones((1, 1))))
        with pytest.raises(AutodiffError, match="widths"):
            ad.gather_matmul([(own, None), (x, lay)], Tensor(np.ones((5, 3))))
        with pytest.raises(AutodiffError, match="read"):
            ad.gather_matmul([(Tensor(np.ones((4, 2))), None), (x, lay)], Tensor(np.ones((6, 3))))
        with pytest.raises(AutodiffError, match="2 segments used for 3"):
            ad.gather_matmul([(own, None), (Tensor(np.ones((3, 4))), lay)], Tensor(np.ones((6, 3))))


class TestAdam:
    def test_zero_gradient_no_motion(self):
        p = {"w": param(np.ones((2, 2)), name="w")}
        state = ad.AdamState()
        ad.adam_step(p, {"w": np.zeros((2, 2))}, state, lr=0.1, wd=0.0)
        assert np.array_equal(p["w"].value, np.ones((2, 2)))

    def test_first_step_identity(self):
        p = {"w": param([1.0], name="w")}
        state = ad.AdamState()
        ad.adam_step(p, {"w": np.array([1.0])}, state, lr=0.1, wd=0.0)
        assert p["w"].value[0] == pytest.approx(0.9, abs=1e-7)

    def test_scalar_convergence(self):
        p = {"x": param([0.0], name="x")}
        state = ad.AdamState()
        gaps = []
        for _ in range(100):
            g = 2.0 * (p["x"].value - 3.0)
            ad.adam_step(p, {"x": g}, state, lr=0.05, wd=0.0)
            gaps.append(abs(p["x"].value[0] - 3.0))
        assert gaps[-1] < 0.5
        # monotone after warmup
        assert all(b <= a + 1e-12 for a, b in zip(gaps[10:], gaps[11:]))

    def test_decoupled_weight_decay(self):
        p = {"w": param([2.0], name="w")}
        state = ad.AdamState()
        ad.adam_step(p, {"w": np.zeros(1)}, state, lr=0.1, wd=0.5)
        # zero gradient: only the decay term acts
        assert p["w"].value[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_non_finite_gradient_rejected(self):
        p = {"w": param([1.0], name="w")}
        with pytest.raises(AutodiffError):
            ad.adam_step(p, {"w": np.array([np.nan])}, ad.AdamState(), lr=0.1, wd=0.0)


def adam_case(h, seed=0):
    """The network's parameters under hyperparameters h, and three steps'
    standard normal gradients."""
    params = model.init_params(h, seed)
    rng = np.random.default_rng(seed + 1)
    grads = [{name: rng.standard_normal(t.value.shape) for name, t in params.items()}
             for _ in range(3)]
    return params, grads


class TestAdamInPlace:
    @pytest.mark.parametrize("dims", ["tiny", "default"])
    @pytest.mark.parametrize("wd", [0.0, 1e-2])
    def test_matches_allocating_step(self, dims, wd, tiny_hyper):
        params, grads = adam_case(tiny_hyper if dims == "tiny" else model.HyperParams())
        ref = {name: Tensor(t.value.copy(), name=name) for name, t in params.items()}
        before = {name: t.value for name, t in params.items()}
        copies = {name: v.copy() for name, v in before.items()}
        state, ref_state = ad.AdamState(), ad.AdamState()
        for g in grads:
            ad.adam_step(params, g, state, lr=1e-3, wd=wd)
            allocating_adam_step(ref, g, ref_state, lr=1e-3, wd=wd)
            for name, t in params.items():
                assert t.value.tobytes() == ref[name].value.tobytes(), name
                assert state.m[name].tobytes() == ref_state.m[name].tobytes(), name
                assert state.v[name].tobytes() == ref_state.v[name].tobytes(), name
        for name, v in before.items():
            assert params[name].value is not v
            assert v.tobytes() == copies[name].tobytes(), name

    def test_non_contiguous_value_updated(self):
        value = np.arange(12.0).reshape(3, 4).T  # a Fortran-order view
        p, ref = {"w": param(value, "w")}, {"w": param(value.copy(), "w")}
        g = {"w": np.linspace(-1.0, 1.0, 12).reshape(4, 3)}
        state, ref_state = ad.AdamState(), ad.AdamState()
        for _ in range(3):
            ad.adam_step(p, g, state, lr=0.1, wd=0.1)
            allocating_adam_step(ref, g, ref_state, lr=0.1, wd=0.1)
        assert p["w"].value.flags.c_contiguous
        assert np.array_equal(p["w"].value, ref["w"].value)
        assert np.array_equal(value, np.arange(12.0).reshape(3, 4).T)

    def test_rebound_value_copied_again(self):
        p = {"w": param(np.ones(3), "w")}
        state = ad.AdamState()
        ad.adam_step(p, {"w": np.ones(3)}, state, lr=0.1, wd=0.0)
        fresh = np.full(3, 5.0)
        p["w"].value = fresh
        ad.adam_step(p, {"w": np.ones(3)}, state, lr=0.1, wd=0.0)
        assert np.array_equal(fresh, np.full(3, 5.0))
        assert np.all(p["w"].value < 5.0)

    def test_non_finite_gradient_leaves_parameter_untouched(self):
        p = {"a": param(np.ones(4), "a"), "b": param(np.ones(4), "b")}
        state = ad.AdamState()
        ad.adam_step(p, {"a": np.ones(4), "b": np.ones(4)}, state, lr=0.1, wd=1e-4)
        b_before, m_before, v_before = (x.copy() for x in (p["b"].value, state.m["b"],
                                                          state.v["b"]))
        with pytest.raises(AutodiffError, match="'b'"):
            ad.adam_step(p, {"a": np.ones(4), "b": np.array([1.0, np.inf, 1.0, 1.0])},
                         state, lr=0.1, wd=1e-4)
        for now, then in ((p["b"].value, b_before), (state.m["b"], m_before),
                          (state.v["b"], v_before)):
            assert now.tobytes() == then.tobytes()

    def test_gradient_shape_mismatch_rejected(self):
        p = {"w": param(np.ones((2, 3)), "w")}
        with pytest.raises(AutodiffError, match="shape"):
            ad.adam_step(p, {"w": np.ones((3, 2))}, ad.AdamState(), lr=0.1, wd=0.0)


class TestKaiming:
    def test_std(self):
        rng = np.random.default_rng(0)
        w = ad.kaiming_normal((400, 400), fan_in=400, rng=rng)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 400), rel=0.05)

    def test_deterministic_per_seed(self):
        a = ad.kaiming_normal((5, 5), fan_in=5, rng=np.random.default_rng(4))
        b = ad.kaiming_normal((5, 5), fan_in=5, rng=np.random.default_rng(4))
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the scatter-based segment ops that `SegmentLayout` replaced, kept as the
# reference: each returns the forward value and the backward function


def _reference_gather_rows(a, idx):
    def bw(g):
        out = np.zeros_like(a)
        np.add.at(out, idx, g)
        return out

    return a[idx], bw


def _reference_segment_max(a, idx, num):
    counts = np.bincount(idx, minlength=num)
    f = a.shape[1]
    out = np.full((num, f), -np.inf)
    np.maximum.at(out, idx, a)
    out[counts == 0] = 0.0
    hit = a == out[idx]
    rows = np.broadcast_to(np.arange(len(idx))[:, None], hit.shape)
    winner = np.full((num, f), len(idx), dtype=np.int64)
    np.minimum.at(winner, idx, np.where(hit, rows, len(idx)))

    def bw(g):
        out_g = np.zeros_like(a)
        seg, col = np.nonzero(winner < len(idx))
        out_g[winner[seg, col], col] += g[seg, col]
        return out_g

    return out, bw


def _reference_segment_mean(a, idx, num):
    counts = np.bincount(idx, minlength=num)
    sums = np.zeros((num, a.shape[1]))
    np.add.at(sums, idx, a)
    denom = np.maximum(counts, 1).astype(np.float64)[:, None]
    return sums / denom, lambda g: g[idx] / denom[idx]


def _reference_segment_var(a, idx, num):
    counts = np.bincount(idx, minlength=num)
    f = a.shape[1]
    denom = np.maximum(counts, 1).astype(np.float64)[:, None]
    sums = np.zeros((num, f))
    np.add.at(sums, idx, a)
    mean = sums / denom
    sq = np.zeros((num, f))
    np.add.at(sq, idx, a ** 2)
    out = np.maximum(sq / denom - mean ** 2, 0.0)
    return out, lambda g: 2.0 * (a - mean[idx]) * g[idx] / denom[idx]


# signed zeros, exact ties and a few magnitudes; whole rows repeat too
_ENTRY = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0]),
                   st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))


@st.composite
def _segment_case(draw):
    """(idx, num, columns): random index arrays with empty segments, a single
    segment, one row per segment, and no rows at all."""
    kind = draw(st.sampled_from(["random", "single", "one_per_segment", "empty"]))
    num = draw(st.integers(min_value=0 if kind == "empty" else 1, max_value=6))
    if kind == "random":
        idx = draw(st.lists(st.integers(0, num - 1), min_size=1, max_size=60))
    elif kind == "single":
        num = 1
        idx = [0] * draw(st.integers(min_value=1, max_value=40))
    elif kind == "one_per_segment":
        idx = draw(st.permutations(range(num)))
    else:
        idx = []
    return np.asarray(idx, dtype=np.int64), num, draw(st.integers(min_value=1, max_value=4))


def _matrix(draw, rows, cols):
    """A (rows, cols) matrix whose rows come from a pool of at most three,
    so exactly tied rows are common, or whose entries are all signed zeros
    and ones."""
    if draw(st.booleans()):
        entries = draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0]),
                                min_size=rows * cols, max_size=rows * cols))
        return np.asarray(entries, dtype=np.float64).reshape(rows, cols)
    pool = draw(st.lists(st.lists(_ENTRY, min_size=cols, max_size=cols),
                         min_size=1, max_size=3))
    pick = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows, max_size=rows))
    return np.asarray([pool[i] for i in pick], dtype=np.float64).reshape(rows, cols)


class TestSegmentLayoutEquivalence:
    """Layout-based segment ops against the `ufunc.at` reference, forward
    values and backward gradients byte for byte."""

    @staticmethod
    def _check(got: Tensor, want, g):
        want_out, want_bw = want
        assert got.value.shape == want_out.shape
        assert got.value.tobytes() == want_out.tobytes()
        (got_g,) = got.backward_fn(g)
        want_g = want_bw(g)
        assert got_g.shape == want_g.shape
        assert got_g.tobytes() == want_g.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(case=_segment_case(), data=st.data())
    def test_segment_ops_match_reference(self, case, data):
        idx, num, f = case
        x = _matrix(data.draw, len(idx), f)
        g = _matrix(data.draw, num, f)
        seg = ad.SegmentLayout(idx, num)
        for op, ref in ((ad.segment_max, _reference_segment_max),
                        (ad.segment_mean, _reference_segment_mean),
                        (ad.segment_var, _reference_segment_var)):
            self._check(op(Tensor(x), seg), ref(x, idx, num), g)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(case=_segment_case(), data=st.data())
    def test_gather_rows_matches_reference(self, case, data):
        idx, num, f = case
        a = _matrix(data.draw, num, f)
        g = _matrix(data.draw, len(idx), f)
        rows = ad.SegmentLayout(idx, num)
        self._check(ad.gather_rows(Tensor(a), rows), _reference_gather_rows(a, idx), g)

    def test_zero_max_takes_last_zero_sign(self):
        # nine or more rows in one column is where numpy's max reduction
        # stops keeping the later of equal values
        for column in ([0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -0.0],
                       [-0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -1.0, -0.0, 0.0, -2.0]):
            x = np.asarray(column)[:, None]
            want, _ = _reference_segment_max(x, np.zeros(len(x), dtype=np.int64), 1)
            out = ad.segment_max(Tensor(x), ad.SegmentLayout(np.zeros(len(x), dtype=np.int64), 1))
            assert out.value.tobytes() == want.tobytes()

    def test_tie_routes_to_first_row(self):
        x = np.array([[1.0, -0.0], [3.0, 0.0], [3.0, 0.0], [3.0, -0.0]])
        out = ad.segment_max(Tensor(x), ad.SegmentLayout([1, 1, 1, 1], 2))
        assert out.value.tobytes() == np.array([[0.0, 0.0], [3.0, -0.0]]).tobytes()
        (grad,) = out.backward_fn(np.array([[5.0, 5.0], [7.0, 11.0]]))
        assert np.array_equal(grad, [[0.0, 11.0], [7.0, 0.0], [0.0, 0.0], [0.0, 0.0]])


class TestSegmentLayout:
    def test_incidence_and_slots_in_input_order(self):
        lay = ad.SegmentLayout([2, 0, 2, 2], 4)
        assert lay.counts.tolist() == [1, 0, 3, 0]
        assert lay.incidence.indices.tolist() == [1, 0, 2, 3]
        assert lay.slots.tolist() == [[1, 4, 4], [4, 4, 4], [0, 2, 3], [4, 4, 4]]
        assert lay.pos.tolist() == [0, 0, 1, 2]
        assert lay.by_count.tolist() == [2, 0, 1, 3]
        assert lay.live.tolist() == [2, 1, 1]

    def test_index_is_a_read_only_copy(self):
        idx = np.array([0, 1])
        lay = ad.SegmentLayout(idx, 2)
        idx[0] = 1
        assert lay.idx.tolist() == [0, 1]
        assert not lay.idx.flags.writeable

    @pytest.mark.parametrize("idx, num", [([0, 2], 2), ([-1], 3), ([[0]], 1)])
    def test_invalid_index_rejected(self, idx, num):
        with pytest.raises(AutodiffError):
            ad.SegmentLayout(idx, num)

    def test_layout_over_other_count_rejected(self):
        lay = ad.SegmentLayout([0, 1], 2)
        with pytest.raises(AutodiffError, match="2 rows used for an input of 3"):
            ad.segment_mean(Tensor(np.ones((3, 1))), lay)
        with pytest.raises(AutodiffError, match="2 segments used for 4"):
            ad.gather_rows(Tensor(np.ones((4, 1))), lay)

    @pytest.mark.parametrize("rows", [2, 5])
    def test_segment_ops_reject_other_row_count(self, rows):
        # a 3-row layout must not drop extra input rows or miss rows
        lay = ad.SegmentLayout([0, 1, 1], 2)
        x = Tensor(np.arange(float(rows))[:, None])
        for op in (ad.segment_max, ad.segment_mean, ad.segment_var):
            with pytest.raises(AutodiffError, match=f"3 rows used for an input of {rows}"):
                op(x, lay)
