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


def leaky_relu(a: Tensor, alpha: float = 0.2) -> Tensor:
    mask = a.value >= 0
    slope = np.where(mask, 1.0, alpha)
    return _make(a.value * slope, (a,), lambda g: (g * slope,), "leaky_relu")


def concat_cols(parts: list[Tensor]) -> Tensor:
    rows = {p.value.shape[0] for p in parts}
    if len(rows) != 1:
        raise AutodiffError(f"concat_cols row mismatch: {sorted(rows)}")
    widths = [p.value.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def bw(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _make(np.concatenate([p.value for p in parts], axis=1), tuple(parts), bw, "concat_cols")


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
        raise AutodiffError("gather_rows index out of range")

    def bw(g):
        out = np.zeros_like(a.value)
        np.add.at(out, idx, g)
        return (out,)

    return _make(a.value[idx], (a,), bw, "gather_rows")


def broadcast_rows(a: Tensor, n: int) -> Tensor:
    """Tile a (1, F) row to (n, F); backward sums over rows."""
    if a.value.shape[0] != 1:
        raise AutodiffError("broadcast_rows expects a single-row tensor")
    return _make(np.repeat(a.value, n, axis=0), (a,),
                 lambda g: (g.sum(axis=0, keepdims=True),), "broadcast_rows")


def _segments(idx: np.ndarray, num: int):
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= num):
        raise AutodiffError("segment index out of range")
    counts = np.bincount(idx, minlength=num)
    return idx, counts


def segment_max(a: Tensor, idx, num: int) -> Tensor:
    """Per-segment column-wise max; empty segments yield 0 (no gradient).
    Gradient routes to the first argmax element of each segment."""
    idx, counts = _segments(idx, num)
    f = a.value.shape[1]
    out = np.full((num, f), -np.inf)
    np.maximum.at(out, idx, a.value)
    out[counts == 0] = 0.0
    # first row (in input order) attaining the max, per segment and column
    hit = a.value == out[idx]
    rows = np.broadcast_to(np.arange(len(idx))[:, None], hit.shape)
    winner = np.full((num, f), len(idx), dtype=np.int64)
    np.minimum.at(winner, idx, np.where(hit, rows, len(idx)))

    def bw(g):
        out_g = np.zeros_like(a.value)
        seg, col = np.nonzero(winner < len(idx))
        out_g[winner[seg, col], col] += g[seg, col]
        return (out_g,)

    return _make(out, (a,), bw, "segment_max")


def segment_mean(a: Tensor, idx, num: int) -> Tensor:
    idx, counts = _segments(idx, num)
    sums = np.zeros((num, a.value.shape[1]))
    np.add.at(sums, idx, a.value)
    denom = np.maximum(counts, 1).astype(np.float64)[:, None]
    out = sums / denom

    def bw(g):
        return (g[idx] / denom[idx],)

    return _make(out, (a,), bw, "segment_mean")


def segment_var(a: Tensor, idx, num: int) -> Tensor:
    """Biased (1/n) per-segment variance; empty segments yield 0."""
    idx, counts = _segments(idx, num)
    f = a.value.shape[1]
    denom = np.maximum(counts, 1).astype(np.float64)[:, None]
    sums = np.zeros((num, f))
    np.add.at(sums, idx, a.value)
    mean = sums / denom
    sq = np.zeros((num, f))
    np.add.at(sq, idx, a.value ** 2)
    out = np.maximum(sq / denom - mean ** 2, 0.0)

    def bw(g):
        return (2.0 * (a.value - mean[idx]) * g[idx] / denom[idx],)

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
            if p.grad is None:
                p.grad = np.zeros_like(p.value)
            p.grad = p.grad + g
    return {
        name: (t.grad if t.grad is not None else np.zeros_like(t.value))
        for name, t in params.items()
    }


# ---------------------------------------------------------------------------
# optimizer / init


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float = 1e-4, wd: float = 1e-4,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """In-place Adam with decoupled weight decay applied before the update."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise AutodiffError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.value)
            state.v[name] = np.zeros_like(p.value)
        if wd:
            p.value = p.value - lr * wd * p.value
        m = state.m[name] = beta1 * state.m[name] + (1 - beta1) * g
        v = state.v[name] = beta2 * state.v[name] + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p.value = p.value - lr * m_hat / (np.sqrt(v_hat) + eps)


def kaiming_normal(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    if fan_in < 1:
        raise ValueError("fan_in must be >= 1")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
