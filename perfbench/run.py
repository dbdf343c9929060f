#!/usr/bin/env python3
"""Benchmark of the heterskin pipeline, end to end and per layer.

    python3 perfbench/run.py --workload closed-r88 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One process runs one workload: it generates its rigs from
the seed with `synthgen`, builds the model, then repeats whole rounds of
load / predict / evaluate / prepare / train operations until `--seconds`
have passed (at least one round), checks the outputs, and prints one JSON
object as the last line of standard output.  With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it wraps the package's layer functions and
reports per-layer metrics instead.  See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

MODEL_SEED = 0  # predict model parameters; fixed, so every run loads the same file
LOGIT_SCALE = 0.05  # random logit layer, scaled down so rows are not one-hot
TRAIN_SEED = 0
SEAM_SHARE = 0.02  # share of vertices duplicated as seams, merged back by predict

# the desk-scale dims of the test suite
TINY = dict(vertex_local=24, vertex_global=24, bone_local=12, bone_global=24,
            final_dims=(48, 24), local_stages=2, resolution=32)


@dataclass(frozen=True)
class Workload:
    hyper: dict  # HyperParams overrides
    synth: dict  # SynthConfig overrides
    rigs: int  # rigs per round
    triangles: int  # keep rigs with exactly this many triangles, before seams
    poses: int  # poses per rig, scored by `eval_calls` evaluate calls
    epochs: int  # epochs of the round's train call
    lr: float
    train_first: bool  # train, then load the trained model and predict with it
    load_every: int  # load the checkpoint before every load_every-th rig
    load_repeats: int = 1  # timed loads at each of those points
    eval_calls: int = 1  # 2: score half the poses after predict, half after prepare
    detached_only: bool = False  # keep rigs whose surface voxels form several pieces
    pair_band: tuple[int, int] | None = None  # keep rigs with this many voxelize candidates


# The triangle count is the modal one of each synth config (five tubes of 96
# triangles; 448 with a prop sphere): it fixes the mesh size, and with it the
# cost of the forward pass, evaluate and the graph.  Each pair_band lies
# around the median candidate-pair count of rigs drawn with that synth config
# (40 rigs at R=88, 30 at R=32): ±20% at R=88, the middle half at R=32.
# Voxelize cost follows the count, which varies fivefold between rigs of the
# same triangle count.
WORKLOADS = {
    "closed-r88": Workload(
        hyper={}, synth=dict(prop_probability=0.0, antenna_probability=0.0,
                             bones_min=8, bones_max=8, resolution=32),
        rigs=6, triangles=480, poses=128, epochs=1, lr=1e-4, train_first=False,
        load_every=2, pair_band=(145_000, 215_000)),
    "props-r88": Workload(
        hyper={}, synth=dict(prop_probability=1.0, antenna_probability=1.0,
                             bones_min=6, bones_max=6, resolution=32),
        rigs=2, triangles=448, poses=1024, epochs=1, lr=1e-4, train_first=False,
        load_every=1, load_repeats=2, eval_calls=2, detached_only=True),
    "train-tiny-r32": Workload(
        hyper=TINY, synth=dict(resolution=32, bones_min=8, bones_max=8),
        rigs=6, triangles=480, poses=64, epochs=10, lr=1e-3, train_first=True,
        load_every=1, load_repeats=8, pair_band=(12_000, 18_000)),
}

END_TO_END = (
    ("setup_s", "s"), ("load_s", "s"), ("predict_rigs_per_s", "rigs/s"),
    ("predict_s", "s"), ("eval_poses_per_s", "poses/s"), ("prepare_rigs_per_s", "rigs/s"),
    ("train_steps_per_s", "steps/s"), ("peak_rss_mb", "MB"),
)


def import_package():
    """Import heterskin from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "heterskin" / "__init__.py").is_file():
        sys.exit(f"perfbench: no heterskin package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import numpy as np
    from heterskin import (autodiff, hgraph, hollowdist, model, rigcore, skinlab, synthgen,
                           voxelize)
    if not Path(model.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: heterskin was imported from {model.__file__}, not {src}")
    return np, SimpleNamespace(autodiff=autodiff, hgraph=hgraph, hollowdist=hollowdist,
                               model=model, rigcore=rigcore, skinlab=skinlab, synthgen=synthgen,
                               voxelize=voxelize)


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Case:
    rig: object  # input rig, seams included
    seams: list  # (survivor, duplicate) vertex pairs
    poses: list


def add_seams(np, hs, rig, rng):
    """Duplicate a few vertices the way UV seams do: one triangle corner is
    re-pointed at an exact copy of its vertex, which carries the same
    ground-truth row.  `predict` must merge each copy back."""
    mesh, w = rig.mesh, rig.weights
    n = mesh.num_vertices
    tris = mesh.triangles.copy()
    count = max(1, int(SEAM_SHARE * n))
    picks = rng.choice(len(tris), size=count, replace=False)
    corners = rng.integers(0, 3, size=count)
    old = tris[picks, corners].copy()
    tris[picks, corners] = n + np.arange(count)
    vertices = np.concatenate([mesh.vertices, mesh.vertices[old]])
    weights = hs.rigcore.WeightRows(
        w.indices + tuple(w.indices[o] for o in old),
        w.values + tuple(w.values[o] for o in old), w.num_bones)
    seamed = hs.rigcore.Rig(hs.rigcore.Mesh(vertices, tris), rig.skeleton, weights, rig.name)
    return seamed, [(int(o), n + k) for k, o in enumerate(old)]


def surface_pieces(hs, rig, resolution) -> int:
    from scipy import ndimage

    merged, _ = hs.rigcore.merge_rig(rig)
    grid = hs.model.voxelize_mesh(merged.mesh, resolution)
    return int(ndimage.label(grid.labels)[1])


def candidate_pairs(np, hs, rig, resolution) -> int:
    """(triangle, cell) pairs the surface voxelizer examines: the cells of
    each triangle's bounding box in the inner region of the grid.  It sets
    the voxelize cost, which otherwise varies fivefold between rigs of the
    same bone count."""
    grid = hs.voxelize.build_grid(rig.mesh, resolution)
    tri = rig.mesh.vertices[rig.mesh.triangles]
    lo, hi = ((np.floor((f(tri, axis=1) - grid.origin) / grid.cell_size)
               .clip(1, resolution - 2)) for f in (np.min, np.max))
    return int(np.prod(hi - lo + 1, axis=1).sum())


def make_cases(np, hs, wl: Workload, h, seed: int) -> tuple[list, list, float]:
    """The workload's rigs, their generation times, and the time spent on
    the benchmark's own selection: the filters and every rejected rig.
    How many candidates a seed rejects varies, so that time is kept out of
    `setup_s`."""
    rng = np.random.default_rng(seed)
    cfg = hs.synthgen.SynthConfig(**wl.synth)
    cases, gen_times, selection = [], [], 0.0
    while len(cases) < wl.rigs:
        t = time.perf_counter()
        rig = hs.synthgen.gen_character(cfg, int(rng.integers(0, 2**31 - 1)))
        gen_times.append(time.perf_counter() - t)
        t = time.perf_counter()
        rejected = (
            len(rig.mesh.triangles) != wl.triangles
            # a prop that touches the body needs no restart
            or (wl.detached_only and surface_pieces(hs, rig, h.resolution) < 2)
            or (wl.pair_band and not (wl.pair_band[0]
                                      <= candidate_pairs(np, hs, rig, h.resolution)
                                      <= wl.pair_band[1])))
        selection += time.perf_counter() - t + (gen_times[-1] if rejected else 0.0)
        if rejected:
            continue
        rig, seams = add_seams(np, hs, rig, rng)
        pose_seed = int(rng.integers(0, 2**31 - 1))
        poses = hs.skinlab.sample_poses(rig.skeleton, wl.poses, seed=pose_seed)
        cases.append(Case(rig, seams, poses))
    return cases, gen_times, selection


def predict_model(np, hs, h):
    """Default initialisation, except that the zero logit layer (which
    makes every row exactly uniform) is replaced by a small random one."""
    params = hs.model.init_params(h, MODEL_SEED)
    logit = f"final.{len(h.final_dims)}"
    shape = params[logit].value.shape
    rng = np.random.default_rng(MODEL_SEED + 1)
    params[logit] = hs.autodiff.Tensor(
        LOGIT_SCALE * hs.autodiff.kaiming_normal(shape, shape[0], rng), name=logit)
    return params


# ---------------------------------------------------------------------------
# measurement


class HostProbe:
    """Measures the speed of the host while an operation runs, with a fixed
    reference computation that does not use heterskin.

    The host's speed swings by 1.5-2.7x, in spells of a few to tens of
    seconds, and every operation of a run slows with it (see
    perfbench/README.md, Host-speed scaling).  The probe runs before an operation, every
    PERIOD_S of wall time during it (from a SIGALRM handler, which Python
    runs between bytecodes of the main thread), and after it.  The
    operation's own time is its wall time less the probes' time inside it,
    and its time at the host's reference speed is that times REF_S / the
    mean probe time.

    The probe's time is the geometric mean of two parts, because the host's
    slow spells slow cache-resident work more than work bound by memory
    bandwidth, and heterskin does both: parsing JSON into Python floats,
    converting them to arrays and small matrix products (the best of three
    runs), and one pass over a 32 MB array.
    """

    REF_S = 0.002  # the probe's time on the reference host when it runs unhindered
    PERIOD_S = 0.3

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.doc = json.dumps([rng.standard_normal((24, 24)).tolist() for _ in range(10)])
        self.stream = rng.standard_normal(4_000_000)
        self.samples, self.spent, self.last = [], 0.0, (self._measure(), time.perf_counter())
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _small(self) -> float:
        np = self.np
        t = time.perf_counter()
        mats = [np.asarray(m) for m in json.loads(self.doc)]
        acc = mats[0]
        for m in mats[1:]:
            acc = np.tanh(0.2 * (acc @ m))
        return time.perf_counter() - t

    def _measure(self) -> float:
        small = min(self._small() for _ in range(3))
        t = time.perf_counter()
        self.stream.sum()
        return (small * (time.perf_counter() - t)) ** 0.5

    def _on_alarm(self, *_):
        t = time.perf_counter()
        self.samples.append(self._measure())
        self.spent += time.perf_counter() - t

    def begin(self):
        """Called just before an operation starts."""
        value, at = self.last
        self.samples = [value if time.perf_counter() - at < 0.05 else self._measure()]
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def end(self, wall: float) -> float:
        """Called just after the operation; returns its own time scaled to
        the reference speed."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.last = (self._measure(), time.perf_counter())
        self.samples.append(self.last[0])
        return (wall - self.spent) * self.REF_S / statistics.mean(self.samples)


@dataclass
class Record:
    probe: HostProbe | None  # None: report wall times, as in a traced run
    times: dict = field(default_factory=lambda: {k: [] for k in (
        "load", "predict", "evaluate", "prepare", "train")})
    scaled: dict = field(default_factory=lambda: {k: [] for k in (
        "load", "predict", "evaluate", "prepare", "train")})
    poses: int = 0
    steps: int = 0
    attempted: int = 0
    failed: int = 0

    def attempt(self, kind, fn, *args, **kwargs):
        """Run one timed operation; a raising operation counts as failed.
        Records its wall time and its time at the reference host speed."""
        self.attempted += 1
        if self.probe is not None:
            self.probe.begin()
        t = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            wall = time.perf_counter() - t
            scaled = wall if self.probe is None else self.probe.end(wall)
        self.times[kind].append(wall)
        self.scaled[kind].append(scaled)
        return out

    def skip(self, n: int = 1):
        """Operations that could not start because their input failed."""
        self.attempted += n
        self.failed += n


class Capture:
    """Keeps every grid and distance matrix the pipeline computes until
    `close`, for the checks after the timed region."""

    def __init__(self, model):
        self.model = model
        self.grids, self.distances = [], []  # (mesh, grid), (rig, d)
        self._orig = (model.voxelize_mesh, model.distance_matrix)

        def voxelize_mesh(mesh, resolution=88):
            grid = self._orig[0](mesh, resolution)
            self.grids.append((mesh, grid))
            return grid

        def distance_matrix(rig, h):
            d = self._orig[1](rig, h)
            self.distances.append((rig, d))
            return d

        model.voxelize_mesh, model.distance_matrix = voxelize_mesh, distance_matrix

    def close(self):
        self.model.voxelize_mesh, self.model.distance_matrix = self._orig


def run_round(hs, wl, h, cases, ckpt, rec: Record, state: dict):
    """One round of the workload's operations, in the order a CLI user runs
    them.

    Training follows `heterskin train`: prepare every rig, then one
    `model.train` call over all of them from a fresh `init_params`.  The
    training workload trains first, saves the model, then for each rig
    loads it, predicts and evaluates, as `heterskin predict` and `eval` do.
    Predict workloads load the set-up checkpoint before every
    `load_every`-th rig, and predict, evaluate and prepare each rig in
    turn, so that every metric samples the whole round, then train.
    """
    model, n = hs.model, len(cases)
    for key in ("weights", "loaded", "loaded_values", "trained"):
        state.pop(key, None)  # let the last round's outputs go before this one's peak
    state["weights"] = []

    def evaluate(case, w, poses):
        if w is None:
            rec.skip()
        elif rec.attempt("evaluate", hs.skinlab.evaluate, case.rig, w, case.rig.weights,
                         poses) is not None:
            rec.poses += len(poses)

    def prepare(case):
        return rec.attempt("prepare", model.prepare_sample, case.rig, h)

    def train(samples) -> bool:
        if any(s is None for s in samples):
            rec.skip()  # the train call
            return False
        out = rec.attempt("train", model.train, samples, h, wl.epochs, TRAIN_SEED, lr=wl.lr)
        if out is None:
            return False
        rec.steps += wl.epochs * n
        state["trained"] = out[0]
        state["histories"].append(out[1])
        return True

    def load():
        params = None
        for _ in range(wl.load_repeats):
            loaded = rec.attempt("load", model.load_checkpoint, ckpt)
            params = loaded[0] if loaded is not None else None
        if params is not None:
            state["loaded"] = params
            state["loaded_values"] = {k: t.value for k, t in params.items()}
        return params

    if wl.train_first:
        if not train([prepare(c) for c in cases]):
            rec.skip((wl.load_repeats + 1 + wl.eval_calls) * n)
            return
        model.save_checkpoint(state["trained"], h, ckpt)
        state["saved"] = {k: t.value for k, t in state["trained"].items()}
    params, samples = None, []
    for i, case in enumerate(cases):
        if i % wl.load_every == 0:
            params = load()
        chunks = [case.poses[k::wl.eval_calls] for k in range(wl.eval_calls)]
        w = None if params is None else rec.attempt("predict", model.predict, case.rig,
                                                    params, h)
        if params is None:
            rec.skip()  # the predict
        state["weights"].append(w)
        evaluate(case, w, chunks[0])
        if not wl.train_first:
            samples.append(prepare(case))
        for chunk in chunks[1:]:
            evaluate(case, w, chunk)
    if not wl.train_first:
        train(samples)
    state["rig0_weights"].append(state["weights"][0])


# ---------------------------------------------------------------------------
# checks and output digests


def run_checks(hs, h, cases, state, capture) -> list[str]:
    """Every check, outside the timed region; returns the failures."""
    import checks as ck

    failures = []

    def check(name, fn, *args):
        try:
            fn(*args)
        except ck.CheckFailed as e:
            failures.append(f"{name}: {e}")

    for i, (case, w) in enumerate(zip(cases, state["weights"])):
        if w is None:
            continue
        check(f"convex rows of rig {i}", ck.check_convex_rows, w.indices, w.values,
              case.rig.mesh.num_vertices, case.rig.skeleton.num_bones)
        for a, b in case.seams:
            check(f"seam rows of rig {i}", ck.check_same_rows, w.indices, w.values, a, b)

    if "loaded" not in state:
        failures.append("determinism: no model was loaded, so rig 0 was not predicted")
    else:
        again = hs.model.predict(cases[0].rig, state["loaded"], h)
        ref = ck.rows_bytes(again.indices, again.values)
        for k, w in enumerate(state["rig0_weights"]):
            if w is not None and ck.rows_bytes(w.indices, w.values) != ref:
                failures.append(f"determinism: round {k + 1} predicted rig 0 differently")

    for (rig, d), (mesh, grid) in zip(capture.distances, capture.grids):
        starts, ends = rig.skeleton.bone_segments()
        check(f"distance bound of {rig.name}", ck.check_distance_bound, d, rig.mesh.vertices,
              starts, ends, grid.cell_size)
        check(f"voxel labels of {rig.name}", ck.check_mesh_labels, grid.labels, grid.origin,
              grid.cell_size, mesh.vertices, mesh.triangles)
    if capture.distances:
        rig, _ = capture.distances[0]
        grid = capture.grids[0][1]
        cells = hs.hollowdist.bone_cell_sets(rig, grid)[0]
        f = hs.hollowdist.compute_cell_distances(grid, cells, 0)
        check("bone 0 field vs sequential search", ck.check_field_matches_reference,
              f.steps, f.pred, grid.labels, cells)

    rig0, w0 = cases[0].rig, (state["weights"] or [None])[0]
    tfs = [hs.skinlab.forward_kinematics(rig0.skeleton, p) for p in cases[0].poses]
    for tf in tfs:
        check("rigid FK transforms", ck.check_rigid, tf)
    if w0 is not None:
        dense = ck.dense_weights(w0.indices, w0.values, rig0.skeleton.num_bones)
        check("LBS vs dense sum", ck.check_lbs,
              hs.skinlab.lbs_deform(rig0.mesh.vertices, w0, tfs[0]),
              rig0.mesh.vertices, dense, tfs[0])
    report = hs.skinlab.evaluate(rig0, rig0.weights, rig0.weights, cases[0].poses[:2])
    check("evaluate(gt, gt)", ck.check_identity_report, report.as_dict())
    if "loaded_values" in state:
        check("checkpoint round trip", ck.check_same_params, state["saved"],
              state["loaded_values"])
    for history in state["histories"]:
        check("training loss", ck.check_training, history)
    if not state["histories"]:
        failures.append("training: no train call completed")
    return failures


def digests(np, state, capture) -> dict:
    import checks as ck

    def sha(chunks):
        m = hashlib.sha256()
        for c in chunks:
            m.update(c)
        return m.hexdigest()

    return {
        "distances": sha(np.ascontiguousarray(d).tobytes() for _, d in capture.distances),
        "weights": sha(ck.rows_bytes(w.indices, w.values)
                       for w in state["weights"] if w is not None),
        "trained_params": sha(name.encode() + np.ascontiguousarray(t.value).tobytes()
                              for name, t in sorted(state.get("trained", {}).items())),
    }


# ---------------------------------------------------------------------------


def _process_age() -> float:
    """Seconds since this process started, from /proc; 0 where unreadable."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)
    except (OSError, ValueError, IndexError):
        return 0.0


def main(argv=None) -> int:
    started = time.perf_counter() - _process_age()
    # one BLAS thread, fixed before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    np, hs = import_package()
    sys.path.insert(0, str(BENCH_DIR))
    wl = WORKLOADS[args.workload]
    h = hs.model.HyperParams(**wl.hyper)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    # a terminated run still removes its 111 MB checkpoint
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return measure(np, hs, wl, h, args, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(np, hs, wl, h, args, work: Path, started: float) -> int:
    model = hs.model
    ckpt = work / "model.json"

    # -- set-up: rigs, then the model and its checkpoint ----------------------
    t = time.perf_counter()
    cases, gen_times, selection = make_cases(np, hs, wl, h, args.seed)
    setup_parts = {"imports": t - started, "rigs": time.perf_counter() - t - selection,
                   "selection (not in setup_s)": selection}
    if not wl.train_first:
        t = time.perf_counter()
        setup_params = predict_model(np, hs, h)
        model.save_checkpoint(setup_params, h, ckpt)
        setup_parts["model"] = time.perf_counter() - t
    setup_s = time.perf_counter() - started - selection

    # -- timed rounds ------------------------------------------------------------
    rec = Record(None if args.trace else HostProbe(np))
    state = {"rig0_weights": [], "histories": []}
    if not wl.train_first:
        state["saved"] = {k: t.value for k, t in setup_params.items()}
        del setup_params
    tracer = uninstall = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        uninstall = tracer.install(hs)
    capture = Capture(model)
    round_times = []
    begin = time.perf_counter()
    while True:
        t = time.perf_counter()
        run_round(hs, wl, h, cases, ckpt, rec, state)
        round_times.append(time.perf_counter() - t)
        capture.close()  # the first round's outputs are enough
        if time.perf_counter() - begin >= args.seconds:
            break
    if uninstall is not None:
        uninstall()

    # -- checks, digests, output -----------------------------------------------
    failures = run_checks(hs, h, cases, state, capture)
    for f in failures:
        print(f"CHECK FAILED {f}", file=sys.stderr)
    hashes = digests(np, state, capture)

    times = rec.scaled
    ckpt_bytes = ckpt.stat().st_size if ckpt.exists() else 0
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "load_s": statistics.median(times["load"]),
            "predict_rigs_per_s": len(times["predict"]) / sum(times["predict"]),
            "predict_s": statistics.median(times["predict"]),
            "eval_poses_per_s": rec.poses / sum(times["evaluate"]),
            "prepare_rigs_per_s": len(times["prepare"]) / sum(times["prepare"]),
            "train_steps_per_s": rec.steps / sum(times["train"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = dict(END_TO_END)
    else:
        from layers import LAYER_METRICS
        metrics = tracer.layer_metrics(len(round_times), statistics.mean(round_times),
                                       statistics.mean(gen_times), ckpt_bytes)
        units = dict(LAYER_METRICS)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"spans": tracer.spans,
                                          "counters": dict(tracer.counters)}))

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(round_times), "round_s": round_times, "setup_s": setup_s,
        "setup_parts_s": setup_parts, "op_s": rec.times, "op_scaled_s": rec.scaled,
        "rigs": [{"vertices": c.rig.mesh.num_vertices, "bones": c.rig.skeleton.num_bones,
                  "triangles": len(c.rig.mesh.triangles)} for c in cases],
        "sha256": hashes, "check_failures": failures,
        "nproc": os.cpu_count(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1))
    print(json.dumps({"sha256": hashes, "rounds": len(round_times)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
