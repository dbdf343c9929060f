"""Command-line surface orchestrating the pipeline end to end."""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import sys
import zlib

import numpy as np

from . import hollowdist, model, rigcore, skinlab, synthgen, voxelize


def _bundled_openblas():
    """(get, set) thread-count functions of the OpenBLAS that numpy wheels
    ship in numpy.libs, or None when this numpy has no such library."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*")))
    if not paths:
        return None
    lib = ctypes.CDLL(paths[0])
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.restype = ctypes.c_int
    set_.argtypes = [ctypes.c_int]
    return get, set_


def _write_weights(weights: rigcore.WeightRows, path) -> None:
    rigcore.write_json({"num_bones": weights.num_bones, "rows": weights.to_pairs()}, path)


def _read_weights(path) -> rigcore.WeightRows:
    doc = rigcore.read_json(path, "weights file", dict, {"rows": list, "num_bones": object})
    return rigcore.WeightRows.from_pairs(doc["rows"], doc["num_bones"])


def _read_distances(path, rig: rigcore.Rig) -> tuple[np.ndarray, int]:
    """The distance matrix of a merged rig and the grid resolution it was
    computed at, as `cmd_hollowdist` writes them."""
    doc = rigcore.read_json(path, "distances file", dict, {"distances": object, "resolution": object})
    resolution = rigcore.check_integer(doc["resolution"], f"{path}: resolution", 4)
    d = rigcore.check_numbers(doc["distances"], f"{path}: distances must be a matrix of numbers")
    want = (rig.mesh.num_vertices, rig.skeleton.num_bones)
    if d.shape != want:
        raise rigcore.RigError(f"{path}: distances have shape {d.shape}, but the merged rig "
                               f"has {want[0]} vertices and {want[1]} bones")
    rigcore.check_nonnegative(d, f"{path}: distances")
    return d, resolution


def _read_pose(path, num_bones: int) -> skinlab.Pose:
    """A list of {"bone", "axis", "angle"} entries; unlisted bones stay at rest."""
    doc = rigcore.read_json(path, "pose file", list, {})
    pose = skinlab.Pose.identity(num_bones)
    axes, angles = pose.axes.copy(), pose.angles.copy()
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or not {"bone", "axis", "angle"} <= entry.keys():
            raise rigcore.RigError(f'{path}: pose entry {i} needs "bone", "axis" and "angle"')
        # -1 would silently pose the last bone
        bone = rigcore.check_integer(entry["bone"], f"{path}: pose entry {i}: bone", 0, num_bones)
        message = f"{path}: pose entry {i}: axis must be 3 numbers and angle a number"
        axis, angle = (rigcore.check_numbers(entry[key], message) for key in ("axis", "angle"))
        if axis.shape != (3,) or angle.shape != ():
            raise rigcore.RigError(message)
        axes[bone], angles[bone] = axis, angle
    return skinlab.Pose(axes, angles)


def _hyper_from_args(args) -> model.HyperParams:
    return model.HyperParams(
        k=args.k,
        vertex_local=args.vertex_local,
        vertex_global=args.global_dim,
        bone_local=args.bone_local,
        bone_global=args.global_dim,
        final_dims=tuple(int(x) for x in args.final_dims.split(",") if x),
        lambda_smooth=args.lambda_s,
        local_stages=args.stages,
        distance_mode=args.distance,
        resolution=args.resolution,
        geo_threshold=args.geo_threshold,
    )


def cmd_synth(args) -> int:
    config = synthgen.SynthConfig(
        prop_probability=args.prop_prob,
        antenna_probability=args.antenna_prob,
        resolution=args.resolution,
    )
    paths = synthgen.gen_dataset(args.count, config, args.seed, args.out)
    print(f"wrote {len(paths)} rigs to {args.out}")
    return 0


def cmd_voxelize(args) -> int:
    rig = rigcore.load_rig(args.rig)
    grid = voxelize.voxelize_mesh(rig.mesh, args.resolution)
    voxelize.export_grid(grid, args.out)
    print(f"grid {grid.resolution}^3, cell {grid.cell_size:.6g} m, "
          f"{int(grid.labels.sum())} mesh cells -> {args.out}")
    return 0


def _field_summary(field: hollowdist.DistanceField) -> dict:
    reached = field.steps >= 0
    dist = field.dist[reached]
    return {"bone": field.bone, "finite_cells": int(reached.sum()),
            "min": float(dist.min()), "max": float(dist.max())}


def cmd_hollowdist(args) -> int:
    rig = rigcore.load_rig(args.rig)
    merged, _ = rigcore.merge_rig(rig)
    grid = voxelize.voxelize_mesh(merged.mesh, args.resolution)
    summaries, columns = zip(*[(_field_summary(field), column) for field, column
                               in hollowdist.bone_fields(merged, grid)])
    d = np.stack(columns, axis=1)
    rigcore.write_json({"resolution": args.resolution, "distances": d.tolist(),
                        "bone_fields": summaries}, args.out)
    print(f"distance matrix {d.shape[0]}x{d.shape[1]} -> {args.out}")
    return 0


def cmd_graph(args) -> int:
    rig = rigcore.load_rig(args.rig)
    merged, _ = rigcore.merge_rig(rig)
    d, resolution = _read_distances(args.dist, merged)
    h = model.HyperParams(k=args.k, geo_threshold=args.geo_threshold, resolution=resolution)
    graph = model.rig_graph(merged, d, h)
    def checksum(a):
        return zlib.crc32(np.ascontiguousarray(a).tobytes())
    doc = {
        "vertices": graph.num_vertices,
        "bones": graph.num_bones,
        "mesh_edges": len(graph.mesh_edges),
        "skeleton_edges": len(graph.skel_edges),
        "geo_neighbor_total": int(sum(len(g) for g in graph.geo_neighbors)),
        "vertex_attr_crc32": checksum(graph.vertex_attr),
        "bone_attr_crc32": checksum(graph.bone_attr),
        "topk_crc32": checksum(graph.topk),
    }
    rigcore.write_json(doc, args.out)
    print(json.dumps(doc))
    return 0


def cmd_train(args) -> int:
    if args.epochs < 1:
        raise ValueError(f"--epochs must be at least 1, got {args.epochs}")
    rigcore.check_nonnegative(args.lr, "lr")
    rigcore.check_nonnegative(args.wd, "wd")
    h = _hyper_from_args(args)
    paths = synthgen.load_manifest(args.data)
    if not paths:
        raise rigcore.RigError(f"no rig bundles found in {args.data}")
    samples = [model.prepare_sample(rigcore.load_rig(p), h) for p in paths]
    params, history = model.train(samples, h, args.epochs, seed=args.seed,
                                  lr=args.lr, wd=args.wd)
    model.save_checkpoint(params, h, args.out)
    if args.loss_log:
        with open(args.loss_log, "w") as f:
            for epoch, value in enumerate(history):
                f.write(f"{epoch}\t{value!r}\n")
    print(f"trained {args.epochs} epochs on {len(samples)} rigs; "
          f"final loss {history[-1]:.6f} -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    params, h = model.load_checkpoint(args.model)
    rig = rigcore.load_rig(args.rig)
    weights = model.predict(rig, params, h)
    _write_weights(weights, args.out)
    print(f"predicted weights for {len(weights)} vertices -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    rig = rigcore.load_rig(args.rig)
    gt_rig = rigcore.load_rig(args.gt)
    if gt_rig.weights is None:
        raise rigcore.RigError(f"{args.gt} carries no ground-truth weights")
    pred = _read_weights(args.pred)
    poses = skinlab.sample_poses(rig.skeleton, args.poses, args.seed)
    report = skinlab.evaluate(rig, pred, gt_rig.weights, poses, tau=args.tau)
    doc = report.as_dict()
    rigcore.write_json(doc, args.report)
    print(json.dumps(doc))
    return 0


def cmd_deform(args) -> int:
    rig = rigcore.load_rig(args.rig)
    weights = _read_weights(args.weights)
    tf = skinlab.forward_kinematics(rig.skeleton, _read_pose(args.pose, rig.skeleton.num_bones))
    deformed = skinlab.lbs_deform(rig.mesh.vertices, weights, tf)
    rigcore.save_obj_mesh(rigcore.Mesh(deformed, rig.mesh.triangles), args.out)
    print(f"deformed mesh -> {args.out}")
    return 0


def cmd_stats_topk(args) -> int:
    if args.kmax < 1:
        raise ValueError(f"--kmax must be at least 1, got {args.kmax}")
    paths = synthgen.load_manifest(args.data)
    h = model.HyperParams(resolution=args.resolution)
    pairs = []
    for p in paths:
        rig, _ = rigcore.merge_rig(rigcore.load_rig(p))
        if rig.weights is None:
            continue
        pairs.append((rig.weights, model.distance_matrix(rig, h)))
    if not pairs:
        raise rigcore.RigError(f"no rigs with ground-truth weights in {args.data}")
    mass, infl = skinlab.topk_coverage(pairs, args.kmax)
    with open(args.out, "w") as f:
        f.write("k,weight_mass_ratio,influential_ratio\n")
        for k in range(args.kmax):
            f.write(f"{k + 1},{float(mass[k])!r},{float(infl[k])!r}\n")
    print(f"coverage table for K=1..{args.kmax} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    hyper, synth = model.HyperParams(), synthgen.SynthConfig()
    parser = argparse.ArgumentParser(
        prog="heterskin",
        description="Skin-weight prediction pipeline: synthesize, voxelize, "
                    "train, predict, evaluate.",
    )
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS threads (numpy's bundled OpenBLAS) while the "
                             "command runs; reruns with the same count give "
                             "identical output bytes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic rigs")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--prop-prob", type=float, default=synth.prop_probability)
    p.add_argument("--antenna-prob", type=float, default=synth.antenna_probability)
    p.add_argument("--resolution", type=int, default=synth.resolution)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("voxelize", help="voxelize a rig's mesh")
    p.add_argument("--rig", required=True)
    p.add_argument("--resolution", type=int, default=hyper.resolution)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_voxelize)

    p = sub.add_parser("hollowdist", help="vertex-bone distance matrix")
    p.add_argument("--rig", required=True)
    p.add_argument("--resolution", type=int, default=hyper.resolution)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hollowdist)

    p = sub.add_parser("graph", help="heterogeneous graph summary")
    p.add_argument("--rig", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--k", type=int, default=hyper.k)
    p.add_argument("--geo-threshold", type=float, default=hyper.geo_threshold)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("train", help="train the network")
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--lr", type=float, default=model.LEARNING_RATE)
    p.add_argument("--wd", type=float, default=model.WEIGHT_DECAY)
    p.add_argument("--lambda-s", type=float, default=hyper.lambda_smooth)
    p.add_argument("--k", type=int, default=hyper.k)
    p.add_argument("--distance", choices=model.DISTANCE_MODES, default=hyper.distance_mode)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--resolution", type=int, default=hyper.resolution)
    p.add_argument("--geo-threshold", type=float, default=hyper.geo_threshold)
    p.add_argument("--vertex-local", type=int, default=hyper.vertex_local)
    p.add_argument("--bone-local", type=int, default=hyper.bone_local)
    # sets both global widths, which are equal by default
    p.add_argument("--global-dim", type=int, default=hyper.vertex_global)
    p.add_argument("--final-dims", default=",".join(map(str, hyper.final_dims)))
    p.add_argument("--stages", type=int, default=hyper.local_stages)
    p.add_argument("--loss-log", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict weights for a rig")
    p.add_argument("--model", required=True)
    p.add_argument("--rig", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predicted weights")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--rig", required=True)
    p.add_argument("--poses", type=int, default=10)
    p.add_argument("--tau", type=float, default=skinlab.INFLUENCE_TAU)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("deform", help="pose a rig with given weights")
    p.add_argument("--rig", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--pose", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("stats", help="dataset statistics")
    stats_sub = p.add_subparsers(dest="stats_command", required=True)
    pk = stats_sub.add_parser("topk", help="Top-K coverage curves")
    pk.add_argument("--data", required=True)
    pk.add_argument("--kmax", type=int, default=8)
    pk.add_argument("--out", required=True)
    pk.add_argument("--resolution", type=int, default=48)
    pk.set_defaults(func=cmd_stats_topk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    if args.threads < 1:
        print(f"error: --threads must be at least 1, got {args.threads}", file=sys.stderr)
        return 1
    blas = _bundled_openblas()
    if blas is None:
        print("warning: numpy's bundled OpenBLAS was not found; --threads has no effect",
              file=sys.stderr)
    else:
        previous = blas[0]()
        blas[1](args.threads)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    finally:
        if blas is not None:
            blas[1](previous)


if __name__ == "__main__":
    sys.exit(main())
