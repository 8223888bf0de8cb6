"""Module system and layer tests."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


class TestModuleSystem:
    def test_named_parameters_are_hierarchical(self, rng):
        mlp = nn.MLP(4, [8], 2, rng=rng)
        names = [name for name, _ in mlp.named_parameters()]
        assert "net.m0.weight" in names
        assert "net.m0.bias" in names
        assert len(names) == 4

    def test_num_parameters(self, rng):
        linear = nn.Linear(4, 3, rng=rng)
        assert linear.num_parameters() == 4 * 3 + 3

    def test_state_dict_roundtrip(self, rng):
        src = nn.MLP(4, [8], 2, rng=rng)
        dst = nn.MLP(4, [8], 2, rng=np.random.default_rng(99))
        dst.load_state_dict(src.state_dict())
        x = Tensor(rng.standard_normal((5, 4)))
        assert np.allclose(src(x).data, dst(x).data)

    def test_load_state_dict_validates_keys(self, rng):
        mlp = nn.MLP(4, [8], 2, rng=rng)
        state = mlp.state_dict()
        state.pop("net.m0.bias")
        with pytest.raises(KeyError):
            mlp.load_state_dict(state)

    def test_load_state_dict_validates_shapes(self, rng):
        mlp = nn.MLP(4, [8], 2, rng=rng)
        state = mlp.state_dict()
        state["net.m0.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            mlp.load_state_dict(state)

    def test_train_eval_propagates(self, rng):
        mlp = nn.MLP(4, [8], 2, rng=rng)
        mlp.eval()
        assert not mlp.training and not mlp.net.training
        mlp.train()
        assert mlp.training and mlp.net.training

    def test_zero_grad_clears_all(self, rng):
        mlp = nn.MLP(4, [8], 2, rng=rng)
        out = mlp(Tensor(rng.standard_normal((3, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())


class TestLinearAndMLP:
    def test_linear_shapes_and_flops(self, rng):
        layer = nn.Linear(6, 4, rng=rng)
        out = layer(Tensor(rng.standard_normal((10, 6))))
        assert out.shape == (10, 4)
        assert layer.flops(10) == 2 * 10 * 6 * 4 + 10 * 4

    def test_linear_broadcasts_leading_dims(self, rng):
        layer = nn.Linear(6, 4, rng=rng)
        out = layer(Tensor(rng.standard_normal((2, 3, 5, 6))))
        assert out.shape == (2, 3, 5, 4)

    def test_linear_no_bias(self, rng):
        layer = nn.Linear(3, 2, rng=rng, bias=False)
        assert layer.bias is None
        assert layer(Tensor(np.zeros((1, 3)))).data.max() == 0.0

    def test_mlp_learns_identity(self, rng):
        mlp = nn.MLP(2, [16], 2, rng=rng, activation="relu")
        opt = nn.Adam(mlp.parameters(), lr=5e-3)
        data = rng.standard_normal((64, 2))
        for _ in range(300):
            opt.zero_grad()
            loss = nn.functional.mse_loss(mlp(Tensor(data)), data)
            loss.backward()
            opt.step()
        assert loss.item() < 0.02

    def test_mlp_flops_counts_all_layers(self, rng):
        mlp = nn.MLP(4, [8, 8], 2, rng=rng)
        expected = (2 * 1 * 4 * 8 + 8) + (2 * 1 * 8 * 8 + 8) \
            + (2 * 1 * 8 * 2 + 2)
        assert mlp.flops(1) == expected

    def test_sequential_iteration(self, rng):
        seq = nn.Sequential(nn.Linear(2, 2, rng=rng), nn.ReLU())
        assert len(seq) == 2
        assert isinstance(list(seq)[1], nn.ReLU)


class TestConvAndPool:
    def test_conv_output_shape(self, rng):
        conv = nn.Conv2d(3, 8, kernel=3, stride=2, padding=1, rng=rng)
        out = conv(Tensor(rng.standard_normal((2, 3, 16, 16))))
        assert out.shape == (2, 8, 8, 8)

    def test_conv_gradient_flows_to_input_and_weights(self, rng):
        conv = nn.Conv2d(2, 3, rng=rng)
        x = Tensor(rng.standard_normal((1, 2, 5, 5)), requires_grad=True)
        conv(x).sum().backward()
        assert x.grad is not None and np.isfinite(x.grad).all()
        assert conv.weight.grad is not None

    def test_conv_flops(self, rng):
        conv = nn.Conv2d(2, 4, kernel=3, stride=1, padding=1, rng=rng)
        assert conv.flops(1, 8, 8) == 2 * 8 * 8 * 4 * 2 * 9

    def test_conv_matches_manual_gemm(self, rng):
        conv = nn.Conv2d(1, 1, kernel=3, stride=1, padding=0, rng=rng)
        x = rng.standard_normal((1, 1, 3, 3))
        out = conv(Tensor(x)).data
        manual = (x[0, 0] * conv.weight.data.reshape(3, 3)).sum() \
            + conv.bias.data[0]
        assert np.isclose(out[0, 0, 0, 0], manual, atol=1e-5)
