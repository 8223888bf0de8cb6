"""Checkpoint save tests: a saved ``.npz`` restores through
``np.load`` + ``Module.load_state_dict``."""

import numpy as np

from repro import nn
from repro.nn import Tensor


def _load(module, path):
    with np.load(path) as archive:
        module.load_state_dict({k: archive[k] for k in archive.files})


def test_save_load_roundtrip(tmp_path, rng):
    model = nn.MLP(4, [8], 2, rng=rng)
    path = str(tmp_path / "ckpt" / "model.npz")
    nn.save_module(model, path)

    other = nn.MLP(4, [8], 2, rng=np.random.default_rng(777))
    x = Tensor(rng.standard_normal((3, 4)))
    assert not np.allclose(model(x).data, other(x).data)
    _load(other, path)
    assert np.allclose(model(x).data, other(x).data)


def test_save_creates_directories(tmp_path, rng):
    model = nn.Linear(2, 2, rng=rng)
    path = str(tmp_path / "a" / "b" / "c.npz")
    nn.save_module(model, path)
    import os
    assert os.path.exists(path)


def test_gen_nerf_checkpoint_roundtrip(tmp_path):
    """Whole Gen-NeRF model pairs checkpoint through save/load."""
    from repro import models as M

    cfg = M.GenNerfConfig(
        fine=M.ModelConfig(feature_dim=8, view_hidden=8, score_hidden=4,
                           density_hidden=12, density_feature_dim=6,
                           ray_module="mixer", n_max=8, encoder_hidden=4),
        coarse_points=4, focused_points=4)
    model = M.GenNeRF(cfg, rng=np.random.default_rng(0))
    path = str(tmp_path / "gen_nerf.npz")
    nn.save_module(model, path)

    other = M.GenNeRF(cfg, rng=np.random.default_rng(42))
    some_name, some_param = next(iter(other.named_parameters()))
    assert not np.allclose(some_param.data,
                           dict(model.named_parameters())[some_name].data)
    _load(other, path)
    for (name_a, a), (name_b, b) in zip(model.named_parameters(),
                                        other.named_parameters()):
        assert name_a == name_b
        assert np.allclose(a.data, b.data)
