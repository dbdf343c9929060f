import pytest

from heterskin import model, synthgen

from handbuilt import TINY


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
