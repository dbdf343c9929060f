"""Minimal dense-tensor reverse-mode differentiation and Adam.

Tensors are numpy float64 arrays; every primitive records its parents and
a backward closure, and `backward` replays the graph in reverse
topological order.  Only the primitives the network needs are provided.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class AutodiffError(RuntimeError):
    pass


def _check_finite(value: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(value)):
        raise AutodiffError(f"non-finite result in op {op!r}")
    return value


class Tensor:
    __slots__ = ("value", "grad", "parents", "backward_fn", "name")

    def __init__(self, value, parents=(), backward_fn=None, name=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        self.backward_fn = backward_fn
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.value.shape})"


def _make(value, parents, backward_fn, op) -> Tensor:
    return Tensor(_check_finite(np.asarray(value, dtype=np.float64), op),
                  parents, backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape[-1] != b.value.shape[0]:
        raise AutodiffError(f"matmul shape mismatch {a.shape} @ {b.shape}")
    out_val = a.value @ b.value

    def bw(g):
        return g @ b.value.T, a.value.T @ g

    return _make(out_val, (a, b), bw, "matmul")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise AutodiffError(f"add shape mismatch {a.shape} vs {b.shape}")
    return _make(a.value + b.value, (a, b), lambda g: (g, g), "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise AutodiffError(f"sub shape mismatch {a.shape} vs {b.shape}")
    return _make(a.value - b.value, (a, b), lambda g: (g, -g), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise AutodiffError(f"mul shape mismatch {a.shape} vs {b.shape}")
    return _make(a.value * b.value, (a, b),
                 lambda g: (g * b.value, g * a.value), "mul")


def scale(a: Tensor, s: float) -> Tensor:
    return _make(a.value * s, (a,), lambda g: (g * s,), "scale")


def log(a: Tensor) -> Tensor:
    if np.any(a.value <= 0):
        raise AutodiffError("log of non-positive value")
    return _make(np.log(a.value), (a,), lambda g: (g / a.value,), "log")


def leaky_relu(a: Tensor, alpha: float) -> Tensor:
    """``max(a, alpha * a)``, which is ``a`` where ``a >= 0`` and ``alpha * a``
    elsewhere, signed zeros included, for a slope in [0, 1].  The gradient
    is ``g`` times a slope of exactly 1.0 or ``alpha``: for alpha in [0, 1],
    ``(1 - alpha) + alpha`` rounds to 1.  Selecting with ``np.where``
    instead is several times slower on unpredictable signs."""
    if not 0.0 <= alpha <= 1.0:
        raise AutodiffError(f"leaky_relu slope {alpha} outside [0, 1]")

    def bw(g):
        slope = (a.value >= 0) * (1.0 - alpha)
        slope += alpha
        slope *= g
        return (slope,)

    return _make(np.maximum(a.value, alpha * a.value), (a,), bw, "leaky_relu")


def concat_cols(parts: list[Tensor]) -> Tensor:
    rows = {p.value.shape[0] for p in parts}
    if len(rows) != 1:
        raise AutodiffError(f"concat_cols row mismatch: {sorted(rows)}")
    widths = [p.value.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def bw(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _make(np.concatenate([p.value for p in parts], axis=1), tuple(parts), bw, "concat_cols")


class SegmentLayout:
    """Where each row of an (E, F) input goes: row i belongs to segment
    ``idx[i]`` of ``num``.

    Validated once and built once per index array, in the ``segment_csr``
    style of PyTorch Geometric, so a graph's fixed index arrays pay for
    their bookkeeping only once.  It holds:

    - ``counts``: rows per segment, and ``denom``, the counts floored at 1
      as a float column;
    - ``incidence``: the (num, E) CSR matrix of ones whose row s lists the
      rows of segment s in input order, so ``incidence @ x`` adds them in
      the order ``np.add.at`` does, starting from 0.0;
    - ``slots``: the (num, width) map of each segment's rows in input order,
      padded with E (one past the last row); width is the largest count,
      at least 1;
    - ``pos``: the slot of each row within its segment;
    - ``by_count``: the segments by descending count, ties in index order,
      and ``live``: ``live[k]`` segments have more than k rows, so slot k
      of ``slots[by_count]`` holds a row in exactly its first ``live[k]``
      entries.
    """

    __slots__ = ("idx", "num", "counts", "denom", "incidence", "slots", "pos",
                 "by_count", "live")

    def __init__(self, idx, num: int):
        idx = np.array(idx, dtype=np.int64)
        if idx.ndim != 1:
            raise AutodiffError(f"segment index must be 1-D, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= num):
            raise AutodiffError("segment index out of range")
        idx.setflags(write=False)
        e = idx.size
        counts = np.bincount(idx, minlength=num)
        order = np.argsort(idx, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(counts)])
        seg = idx[order]
        width = max(int(counts.max(initial=0)), 1)
        pos = np.empty(e, dtype=np.int64)
        pos[order] = np.arange(e) - indptr[seg]
        slots = np.full((num, width), e, dtype=np.int64)
        slots[idx, pos] = np.arange(e)
        self.idx = idx
        self.num = num
        self.counts = counts
        self.denom = np.maximum(counts, 1).astype(np.float64)[:, None]
        self.incidence = sp.csr_matrix((np.ones(e), order, indptr), shape=(num, e))
        self.slots = slots
        self.pos = pos
        self.by_count = np.argsort(-counts, kind="stable")
        self.live = num - np.cumsum(np.bincount(counts, minlength=width))[:width]


def _require_rows(a: Tensor, lay: SegmentLayout) -> None:
    if a.value.shape[0] != lay.idx.size:
        raise AutodiffError(f"segment layout over {lay.idx.size} rows used for an input "
                            f"of {a.value.shape[0]}")


def gather_rows(a: Tensor, lay: SegmentLayout) -> Tensor:
    """Rows ``a[lay.idx]``; ``lay`` is a layout over the rows of ``a``."""
    if lay.num != a.value.shape[0]:
        raise AutodiffError(f"segment layout over {lay.num} segments used for "
                            f"{a.value.shape[0]} rows")

    def bw(g):
        return (lay.incidence @ g,)

    return _make(a.value[lay.idx], (a,), bw, "gather_rows")


def edge_max(f: Tensor, src: SegmentLayout, dst: SegmentLayout, w: Tensor) -> Tensor:
    """Per node i, the column-wise max of ``[f_i || f_i - f_j] @ w`` over
    the directed edges (i, j) of an edge layout pair, without per-edge rows.

    With ``w = [w_top; w_bot]``, ``p = f @ w_top`` and ``q = f @ w_bot``,
    edge (i, j) has the row ``(q_i - q_j) + p_i``.  Rounded subtraction and
    addition never decrease, so the largest of these rows is, bit for bit,
    ``(q_i - m_i) + p_i`` for ``m_i`` the column-wise min of ``q`` over i's
    senders.  A node with no edges gets 0 and no gradient.

    The min is taken one slot at a time over the nodes with that many edges,
    so only (N, F) arrays are built.  The gradient goes to ``p_i`` and
    ``q_i``, and its negation to ``q`` of the first sender, in input order,
    that attains the min: on an exact tie, the edge `segment_max` over the
    per-edge rows would pick.  Each sender adds those negated terms in input
    order, as the per-edge form does.
    """
    n, width = f.value.shape
    if w.value.shape[0] != 2 * width:
        raise AutodiffError(f"edge_max weight {w.shape} for features {f.shape}")
    if src.num != n or dst.num != n or src.idx.size != dst.idx.size:
        raise AutodiffError(f"edge layouts over {src.num} and {dst.num} nodes, "
                            f"{src.idx.size} and {dst.idx.size} edges, used for {n} nodes")
    w_top, w_bot = w.value[:width], w.value[width:]
    q = f.value @ w_bot
    # the sender in slot k of each node, nodes by descending edge count; a
    # padding slot names node 0 and is never read
    senders = np.append(dst.idx, 0)[src.slots[src.by_count]]
    m = np.full_like(q, np.inf)  # rows by descending edge count
    for k, live in enumerate(src.live):
        # np.minimum returns its second argument of two equal values, so a
        # zero min takes the sign of the last zero sender, as segment_max
        # keeps the last zero row
        np.minimum(m[:live], q[senders[:live, k]], out=m[:live])
    out = np.empty_like(q)
    out[src.by_count] = m
    np.subtract(q, out, out=out)
    out += f.value @ w_top
    out[src.counts == 0] = 0.0

    def bw(g):
        # the first slot whose sender attains the min; a masked write of k
        # is many times slower than this arithmetic on unpredictable masks
        win = np.zeros(m.shape, dtype=np.min_scalar_type(src.slots.shape[1]))
        for k in range(len(src.live) - 1, -1, -1):
            live = src.live[k]
            hit = q[senders[:live, k]] == m[:live]
            win[:live] -= (win[:live] - k) * hit
        first = np.empty_like(win)
        first[src.by_count] = win
        ga = g + 0.0  # the per-edge form held 0.0 + g at the winning edge
        ga[src.counts == 0] = 0.0
        # per sender, the winning edges' gradients in input order, sender
        # rows by descending count of incoming edges
        into, pos = dst.slots[dst.by_count], src.pos.astype(first.dtype)
        back = np.zeros_like(ga)
        for k, live in enumerate(dst.live):
            edge = into[:live, k]
            node = src.idx[edge]
            term = ga[node]
            term *= first[node] == pos[edge][:, None]
            back[:live] += term
        gd = np.empty_like(ga)
        gd[dst.by_count] = back
        np.subtract(ga, gd, out=gd)
        return (ga @ w_top.T + gd @ w_bot.T,
                np.concatenate([f.value.T @ ga, f.value.T @ gd]))

    return _make(out, (f, w), bw, "edge_max")


def gather_matmul(parts: list[tuple[Tensor, SegmentLayout | None]], w: Tensor) -> Tensor:
    """``[x_0[i_0] || x_1[i_1] || ...] @ w`` without the gathered rows.

    Part p is a tensor ``x_p`` and a layout over its rows whose ``idx``
    names the row each output row reads, or None when the rows of ``x_p``
    are the output rows.  With ``w_p`` the row block of ``w`` for part p,
    and since ``x[idx] @ w_p = (x @ w_p)[idx]``, the product is
    ``sum_p (x_p @ w_p)[i_p]``: a part of B rows read by N output rows is
    multiplied on its B rows.  Parts add in order, each product rounded on
    its own, so the last bits differ from one product over the
    concatenated rows.  The backward collects each part's row gradient
    with one sparse product, ``G_p = incidence @ g`` (input order, from
    0.0), and returns ``G_p @ w_p.T`` and ``x_p.T @ G_p``.
    """
    if not parts:
        raise AutodiffError("gather_matmul needs at least one part")
    widths = [x.value.shape[1] for x, _ in parts]
    if sum(widths) != w.value.shape[0]:
        raise AutodiffError(f"gather_matmul parts of widths {widths} for weight {w.shape}")
    rows = {x.value.shape[0] if lay is None else lay.idx.size for x, lay in parts}
    if len(rows) != 1:
        raise AutodiffError(f"gather_matmul parts read {sorted(rows)} rows")
    for x, lay in parts:
        if lay is not None and lay.num != x.value.shape[0]:
            raise AutodiffError(f"segment layout over {lay.num} segments used for "
                                f"{x.value.shape[0]} rows")
    offsets = np.cumsum([0] + widths)
    blocks = [w.value[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
    out = None
    for (x, lay), wp in zip(parts, blocks):
        y = x.value @ wp if lay is None else (x.value @ wp)[lay.idx]
        out = y if out is None else np.add(out, y, out=out)

    def bw(g):
        row_grads = [g if lay is None else lay.incidence @ g for _, lay in parts]
        dw = np.empty(w.value.shape)
        for (x, _), gp, lo, hi in zip(parts, row_grads, offsets[:-1], offsets[1:]):
            np.matmul(x.value.T, gp, out=dw[lo:hi])
        return (*(gp @ wp.T for gp, wp in zip(row_grads, blocks)), dw)

    return _make(out, (*(x for x, _ in parts), w), bw, "gather_matmul")


def broadcast_rows(a: Tensor, n: int) -> Tensor:
    """Tile a (1, F) row to (n, F); backward sums over rows.  The network
    reads its global rows through `gather_matmul` instead; `perfbench`
    wraps this op by name."""
    if a.value.shape[0] != 1:
        raise AutodiffError("broadcast_rows expects a single-row tensor")
    return _make(np.repeat(a.value, n, axis=0), (a,),
                 lambda g: (g.sum(axis=0, keepdims=True),), "broadcast_rows")


def segment_max(a: Tensor, lay: SegmentLayout) -> Tensor:
    """Per-segment column-wise max; empty segments yield 0 (no gradient).
    Gradient routes to the first argmax element of each segment."""
    _require_rows(a, lay)
    e, f = a.value.shape
    padded = np.concatenate([a.value, np.full((1, f), -np.inf)])
    buf = padded[lay.slots]  # (num, width, F); padding slots read -inf
    out = buf.max(axis=1)
    # Equal maxima differ at most in the sign of a zero.  np.maximum keeps
    # the later of two equal values, so a zero max takes the sign of the
    # segment's last zero, whatever order the reduction ran in.
    seg, col = np.nonzero(out == 0)
    last_zero = lay.slots.shape[1] - 1 - (buf[seg, ::-1, col] == 0).argmax(axis=1)
    out[seg, col] = buf[seg, last_zero, col]
    out[lay.counts == 0] = 0.0

    def bw(g):
        # first row (in input order) attaining the max; padding slots and
        # rows that miss it read e, a dropped extra row (int32 halves the
        # (num, width, F) temporary)
        rows = np.where(a.value == out[lay.idx], np.arange(e, dtype=np.int32)[:, None],
                        np.int32(e))
        winner = np.concatenate([rows, np.full((1, f), e, dtype=np.int32)])[lay.slots].min(axis=1)
        out_g = np.zeros((e + 1, f))
        out_g[winner, np.arange(f)] += g
        return (out_g[:e],)

    return _make(out, (a,), bw, "segment_max")


def segment_mean(a: Tensor, lay: SegmentLayout) -> Tensor:
    _require_rows(a, lay)
    out = (lay.incidence @ a.value) / lay.denom

    def bw(g):
        return (g[lay.idx] / lay.denom[lay.idx],)

    return _make(out, (a,), bw, "segment_mean")


def segment_var(a: Tensor, lay: SegmentLayout) -> Tensor:
    """Biased (1/n) per-segment variance; empty segments yield 0."""
    _require_rows(a, lay)
    mean = (lay.incidence @ a.value) / lay.denom
    sq = lay.incidence @ a.value ** 2
    out = np.maximum(sq / lay.denom - mean ** 2, 0.0)

    def bw(g):
        return (2.0 * (a.value - mean[lay.idx]) * g[lay.idx] / lay.denom[lay.idx],)

    return _make(out, (a,), bw, "segment_var")


def row_softmax(a: Tensor) -> Tensor:
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    # keep saturated rows strictly positive so downstream logs stay finite
    out = np.maximum(out, 1e-300)

    def bw(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), bw, "row_softmax")


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Zero entries with probability `rate`, scaling survivors by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise AutodiffError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return a
    keep = rng.random(a.value.shape) >= rate
    factor = keep / (1.0 - rate)
    return _make(a.value * factor, (a,), lambda g: (g * factor,), "dropout")


def scatter_cols(a: Tensor, col_idx: np.ndarray, width: int) -> Tensor:
    """Spread an (N, K) tensor into (N, width) at per-row column indices."""
    col_idx = np.asarray(col_idx, dtype=np.int64)
    if col_idx.shape != a.value.shape:
        raise AutodiffError("scatter_cols index shape mismatch")
    if col_idx.min() < 0 or col_idx.max() >= width:
        raise AutodiffError("scatter_cols column index out of range")
    n = a.value.shape[0]
    out = np.zeros((n, width))
    np.put_along_axis(out, col_idx, a.value, axis=1)

    def bw(g):
        return (np.take_along_axis(g, col_idx, axis=1),)

    return _make(out, (a,), bw, "scatter_cols")


def spmm(s: sp.spmatrix, a: Tensor) -> Tensor:
    """Constant sparse matrix times tensor."""
    s = s.tocsr()

    def bw(g):
        return (s.T @ g,)

    return _make(s @ a.value, (a,), bw, "spmm")


def tsum(a: Tensor) -> Tensor:
    return _make(a.value.sum(), (a,),
                 lambda g: (np.full_like(a.value, float(g)),), "sum")


def backward(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss for every parameter; parameters not
    reachable from the loss get zeros."""
    if loss.value.size != 1:
        raise AutodiffError(f"loss must be scalar, got shape {loss.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    for node in topo:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(topo):
        if node.grad is None or node.backward_fn is None:
            continue
        parent_grads = node.backward_fn(node.grad)
        for p, g in zip(node.parents, parent_grads):
            if g is None:
                continue
            # no op writes into a gradient, so the first one is stored as is
            p.grad = g if p.grad is None else p.grad + g
    return {
        name: (t.grad if t.grad is not None else np.zeros_like(t.value))
        for name, t in params.items()
    }


# ---------------------------------------------------------------------------
# optimizer / init


ADAM_BLOCK = 1 << 14  # elements per pass: a block of each of the six operands stays in L2
ADAM_BETA1, ADAM_BETA2 = 0.9, 0.999  # moment decay rates
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    values: dict[str, np.ndarray] = field(default_factory=dict)  # the arrays it updates
    step: int = 0


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, wd: float) -> None:
    """Adam with decoupled weight decay applied before the update.

    A parameter's value, first and second moments are updated in place, in
    blocks of `ADAM_BLOCK` elements through two scratch buffers, with the
    float operations of the textbook whole-array form in the same order.
    When a parameter's value is not the array this state last updated, it
    is first copied into a C-contiguous array the state owns, so arrays the
    caller holds are never written to.
    """
    state.step += 1
    t = state.step
    c1, c2 = 1 - ADAM_BETA1 ** t, 1 - ADAM_BETA2 ** t
    a, b = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.value.shape:
            raise AutodiffError(f"gradient shape {g.shape} for parameter {name!r} "
                                f"of shape {p.value.shape}")
        if not np.all(np.isfinite(g)):
            raise AutodiffError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros(p.value.shape)
            state.v[name] = np.zeros(p.value.shape)
        if p.value is not state.values.get(name):
            p.value = state.values[name] = np.array(p.value, dtype=np.float64, order="C")
        flat = [x.reshape(-1) for x in (p.value, g, state.m[name], state.v[name])]
        for lo in range(0, p.value.size, ADAM_BLOCK):
            pb, gb, mb, vb = (x[lo:lo + ADAM_BLOCK] for x in flat)
            ab, bb = a[:pb.size], b[:pb.size]
            if wd:
                np.multiply(lr * wd, pb, out=ab)  # p - lr * wd * p
                pb -= ab
            mb *= ADAM_BETA1  # m = beta1 * m + (1 - beta1) * g
            np.multiply(1 - ADAM_BETA1, gb, out=ab)
            mb += ab
            vb *= ADAM_BETA2  # v = beta2 * v + (1 - beta2) * g * g
            np.multiply(1 - ADAM_BETA2, gb, out=ab)
            ab *= gb
            vb += ab
            np.divide(mb, c1, out=ab)  # p - lr * m_hat / (sqrt(v_hat) + eps)
            np.multiply(lr, ab, out=ab)
            np.divide(vb, c2, out=bb)
            np.sqrt(bb, out=bb)
            bb += ADAM_EPS
            ab /= bb
            pb -= ab


def kaiming_normal(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    if fan_in < 1:
        raise ValueError("fan_in must be >= 1")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
