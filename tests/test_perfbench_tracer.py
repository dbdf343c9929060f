"""The benchmark's per-layer tracer (`perfbench/layers.py`) wraps package
functions by the names the calling code looks up.  Running it here on one
TINY prepare, training step, predict and evaluation makes renaming,
deleting or inlining any name it wraps fail the tests, not only a traced
benchmark run.  The test
reads `perfbench/` and changes nothing in it."""
import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

from heterskin import autodiff, hgraph, hollowdist, model, rigcore, skinlab, synthgen, voxelize

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_runs_prepare_train_predict(small_rig, tiny_hyper):
    layers = _load_layers()
    # the namespace `perfbench/run.py` installs the tracer on
    hs = SimpleNamespace(autodiff=autodiff, hgraph=hgraph, hollowdist=hollowdist, model=model,
                         rigcore=rigcore, skinlab=skinlab, synthgen=synthgen, voxelize=voxelize)
    modules = vars(hs).values()
    before = {m: dict(vars(m)) for m in modules}
    tracer = layers.Tracer()
    uninstall = tracer.install(hs)
    try:
        assert model.forward is not before[model]["forward"]
        sample = model.prepare_sample(small_rig, tiny_hyper)
        params, history = model.train([sample], tiny_hyper, epochs=1)
        weights = model.predict(small_rig, params, tiny_hyper)
        poses = skinlab.sample_poses(small_rig.skeleton, count=3, seed=0)
        skinlab.evaluate(small_rig, weights, small_rig.weights, poses)
    finally:
        uninstall()
    assert all(vars(m)[name] is value for m in modules for name, value in before[m].items())
    assert math.isfinite(history[0])

    count, total, _ = tracer.totals()
    for name, calls in (("rigcore.merge", 2), ("voxelize", 2), ("hollowdist.compute_all", 2),
                        ("hgraph", 2), ("hgraph.geodesic", 2), ("model.forward", 2),
                        ("model.loss", 1), ("autodiff.backward", 1), ("autodiff.adam", 1),
                        ("model.predict_from_graph", 1), ("skinlab.evaluate", 1),
                        ("skinlab.fk", 1), ("skinlab.lbs", 2)):
        assert count[name] == calls, name
    assert count["hollowdist.bfs"] == 2 * small_rig.skeleton.num_bones
    metrics = tracer.layer_metrics(rounds=1, round_s=1.0, rig_s=0.0, checkpoint_bytes=0)
    assert list(metrics) == [name for name, _ in layers.LAYER_METRICS]
    assert all(math.isfinite(v) and v >= 0 for v in metrics.values())
    assert metrics["autodiff.tape_nodes"] > 0 and metrics["autodiff.matmul.calls"] > 0
    assert metrics["skinlab.poses"] == 3 and metrics["skinlab.lbs_s"] > 0
