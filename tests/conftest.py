import pytest

from heterskin import model, synthgen

# desk-scale network: same architecture, small dims so tests stay fast
TINY = model.HyperParams(
    vertex_local=24,
    vertex_global=24,
    bone_local=12,
    bone_global=24,
    final_dims=(48, 24),
    local_stages=2,
    resolution=32,
)


@pytest.fixture(scope="session")
def tiny_hyper():
    return TINY


@pytest.fixture(scope="session")
def small_rig():
    cfg = synthgen.SynthConfig(resolution=32)
    return synthgen.gen_character(cfg, 7)


@pytest.fixture(scope="session")
def small_sample(small_rig, tiny_hyper):
    return model.prepare_sample(small_rig, tiny_hyper)
