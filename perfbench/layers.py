"""Per-layer tracing for the benchmark.

The tracer wraps public functions of the heterskin modules from outside,
at the module attribute that the calling code looks up, so nothing under
`src/` changes.  Layer calls become spans (name, start, end, parent) and
domain counters; autodiff ops are aggregated per op instead, because a
forward pass makes hundreds of them.  Everything stays in memory until the
run ends.  `install` returns a function that puts every original back.
"""
from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# every autodiff primitive the network or its loss calls
AUTODIFF_OPS = (
    "matmul", "add", "sub", "mul", "scale", "log", "leaky_relu", "concat_cols",
    "gather_rows", "broadcast_rows", "segment_max", "segment_mean", "segment_var",
    "row_softmax", "dropout", "scatter_cols", "spmm", "tsum",
)

# per-layer metric names in the order the traced run prints them
LAYER_METRICS = (
    ("synthgen.rig_s", "s"),
    ("rigcore.merge_s", "s"),
    ("voxelize.s", "s"),
    ("voxelize.triangles", "count"),
    ("voxelize.mesh_cells", "count"),
    ("hollowdist.rasterize_s", "s"),
    ("hollowdist.bfs_s", "s"),
    ("hollowdist.query_s", "s"),
    ("hollowdist.bones", "count"),
    ("hollowdist.cells_reached", "count"),
    ("hollowdist.levels", "count"),
    ("hollowdist.restarts", "count"),
    ("hgraph.s", "s"),
    ("hgraph.geodesic_s", "s"),
    ("hgraph.mesh_edges", "count"),
    ("hgraph.geo_pairs", "count"),
    ("model.forward_s", "s"),
    ("model.rows_s", "s"),
    ("model.loss_s", "s"),
    ("model.checkpoint_bytes", "bytes"),
    ("autodiff.backward_s", "s"),
    ("autodiff.adam_s", "s"),
    ("autodiff.tape_nodes", "count"),
    ("autodiff.matmul.gflop", "GFLOP"),
    *((f"autodiff.{op}.{part}", unit) for op in AUTODIFF_OPS
      for part, unit in (("fwd_s", "s"), ("bwd_s", "s"), ("calls", "count"))),
    ("skinlab.evaluate_s", "s"),
    ("skinlab.fk_s", "s"),
    ("skinlab.lbs_s", "s"),
    ("skinlab.poses", "count"),
    ("bench.round_s", "s"),
    ("trace.overhead_s", "s"),
)


def restart_count(labels: np.ndarray, pred: np.ndarray) -> int:
    """Restarts of one distance field, counted from outside: the sweep never
    expands from a mesh cell into a hollow cell, so every distinct mesh cell
    that is the predecessor of a hollow cell was a restart point."""
    mesh = labels.reshape(-1).astype(bool)
    p = pred.reshape(-1)
    from_cells = p[~mesh & (p >= 0)]
    return int(np.unique(from_cells[mesh[from_cells]]).size)


def tape_size(root) -> int:
    """Nodes reachable from a tensor through `parents`."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self.overhead = 0.0  # time spent in the wrappers themselves
        self._stack: list[int] = []

    # -- wrapping -------------------------------------------------------------

    def _span_wrapper(self, original, name, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            t1 = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                span[1], span[2] = t1, t2
            if after is not None:
                after(args, out)
            self.overhead += (t1 - t0) + (clock() - t2)
            return out

        return traced

    def _op_wrapper(self, original, op):
        counters, clock = self.counters, time.perf_counter

        def timed_backward(fn):
            def bw(g):
                t0 = clock()
                out = fn(g)
                counters[f"{op}.bwd_s"] += clock() - t0
                return out
            return bw

        def traced(*args, **kwargs):
            t0 = clock()
            out = original(*args, **kwargs)
            t1 = clock()
            counters[f"{op}.fwd_s"] += t1 - t0
            counters[f"{op}.calls"] += 1
            if op == "matmul":
                (m, k), n = args[0].value.shape, args[1].value.shape[1]
                counters["matmul.flop"] += 2.0 * m * k * n
            # dropout at rate 0 hands back its input, whose closure is wrapped already
            if out.backward_fn is not None and out is not args[0]:
                out.backward_fn = timed_backward(out.backward_fn)
            self.overhead += clock() - t1
            return out

        return traced

    def install(self, hs) -> callable:
        """Wrap the layer functions of the heterskin modules in `hs` (a
        namespace with rigcore, voxelize, ... attributes).  Returns the
        function that undoes it."""
        c = self.counters
        model, hollowdist, hgraph, skinlab, ad = (
            hs.model, hs.hollowdist, hs.hgraph, hs.skinlab, hs.autodiff)

        def after_voxelize(args, grid):
            c["voxelize.triangles"] += len(args[0].triangles)
            c["voxelize.mesh_cells"] += int(np.count_nonzero(grid.labels))

        def after_bfs(args, field):
            steps = field.steps
            c["hollowdist.bones"] += 1
            c["hollowdist.cells_reached"] += int(np.count_nonzero(steps >= 0))
            c["hollowdist.levels"] += int(steps.max())
            c["hollowdist.restarts"] += restart_count(args[0].labels, field.pred)

        def after_graph(args, graph):
            c["hgraph.mesh_edges"] += len(graph.mesh_edges)
            c["hgraph.geo_pairs"] += sum(len(nb) for nb in graph.geo_neighbors)

        def after_loss(args, out):
            c["autodiff.tape_nodes"] += tape_size(out)

        def after_evaluate(args, out):
            c["skinlab.poses"] += len(args[3])

        # (module, attribute looked up by the caller, span name, counter hook)
        targets = [
            (model, "merge_rig", "rigcore.merge", None),
            (model, "voxelize_mesh", "voxelize", after_voxelize),
            (model, "compute_all", "hollowdist.compute_all", None),
            (hollowdist, "bone_cell_sets", "hollowdist.rasterize", None),
            (hollowdist, "compute_cell_distances", "hollowdist.bfs", after_bfs),
            (hollowdist, "vertex_distances", "hollowdist.query", None),
            (model, "build_graph", "hgraph", after_graph),
            (hgraph, "geodesic_neighbors", "hgraph.geodesic", None),
            (model, "predict_from_graph", "model.predict_from_graph", None),
            (model, "forward", "model.forward", None),
            (model, "loss", "model.loss", after_loss),
            (ad, "backward", "autodiff.backward", None),
            (ad, "adam_step", "autodiff.adam", None),
            (skinlab, "evaluate", "skinlab.evaluate", after_evaluate),
            (skinlab, "forward_kinematics", "skinlab.fk", None),
            (skinlab, "lbs_deform", "skinlab.lbs", None),
        ]
        originals = []
        for module, attr, name, after in targets:
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, self._span_wrapper(original, name, after))
        for op in AUTODIFF_OPS:
            original = getattr(ad, op)
            originals.append((ad, op, original))
            setattr(ad, op, self._op_wrapper(original, op))

        def uninstall():
            for module, attr, original in originals:
                setattr(module, attr, original)

        return uninstall

    # -- reduction ------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, total duration and total self time."""
        count: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            count[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            self_time[name] += end - start - inner
        return count, total, self_time

    def layer_metrics(self, rounds: int, round_s: float, rig_s: float,
                      checkpoint_bytes: int) -> dict[str, float]:
        """Per-layer figures, each per call of the function that owns it:
        per rig for the preprocessing layers, per forward pass for the
        autodiff ops' forward side and per backward pass for their
        backward side, per `evaluate` call for skinlab."""
        count, total, self_time = self.totals()
        c = self.counters

        def per(value, name):
            return value / count[name] if count[name] else 0.0

        rigs = "hollowdist.compute_all"
        out = {
            "synthgen.rig_s": rig_s,
            "rigcore.merge_s": per(total["rigcore.merge"], "rigcore.merge"),
            "voxelize.s": per(total["voxelize"], "voxelize"),
            "voxelize.triangles": per(c["voxelize.triangles"], "voxelize"),
            "voxelize.mesh_cells": per(c["voxelize.mesh_cells"], "voxelize"),
            "hollowdist.rasterize_s": per(total["hollowdist.rasterize"], rigs),
            "hollowdist.bfs_s": per(total["hollowdist.bfs"], rigs),
            "hollowdist.query_s": per(total["hollowdist.query"], rigs),
            "hollowdist.bones": per(c["hollowdist.bones"], rigs),
            "hollowdist.cells_reached": per(c["hollowdist.cells_reached"], rigs),
            "hollowdist.levels": per(c["hollowdist.levels"], rigs),
            "hollowdist.restarts": per(c["hollowdist.restarts"], rigs),
            "hgraph.s": per(total["hgraph"], "hgraph"),
            "hgraph.geodesic_s": per(total["hgraph.geodesic"], "hgraph"),
            "hgraph.mesh_edges": per(c["hgraph.mesh_edges"], "hgraph"),
            "hgraph.geo_pairs": per(c["hgraph.geo_pairs"], "hgraph"),
            "model.forward_s": per(total["model.forward"], "model.forward"),
            "model.rows_s": per(self_time["model.predict_from_graph"],
                                "model.predict_from_graph"),
            "model.loss_s": per(total["model.loss"], "model.loss"),
            "model.checkpoint_bytes": float(checkpoint_bytes),
            "autodiff.backward_s": per(total["autodiff.backward"], "autodiff.backward"),
            "autodiff.adam_s": per(total["autodiff.adam"], "autodiff.adam"),
            "autodiff.tape_nodes": per(c["autodiff.tape_nodes"], "model.loss"),
            "autodiff.matmul.gflop": per(c["matmul.flop"], "model.forward") / 1e9,
        }
        for op in AUTODIFF_OPS:
            out[f"autodiff.{op}.fwd_s"] = per(c[f"{op}.fwd_s"], "model.forward")
            out[f"autodiff.{op}.bwd_s"] = per(c[f"{op}.bwd_s"], "autodiff.backward")
            out[f"autodiff.{op}.calls"] = per(c[f"{op}.calls"], "model.forward")
        out.update({
            "skinlab.evaluate_s": per(total["skinlab.evaluate"], "skinlab.evaluate"),
            "skinlab.fk_s": per(total["skinlab.fk"], "skinlab.evaluate"),
            "skinlab.lbs_s": per(total["skinlab.lbs"], "skinlab.evaluate"),
            "skinlab.poses": per(c["skinlab.poses"], "skinlab.evaluate"),
            "bench.round_s": round_s,
            "trace.overhead_s": self.overhead / rounds,
        })
        return out
