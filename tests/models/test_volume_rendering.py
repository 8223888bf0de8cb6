"""Differentiable volume rendering: parity with numpy, masks, gradients."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.models.volume_rendering import composite
from repro.scenes import composite_numpy


@pytest.fixture()
def ray_batch(rng):
    sigmas = np.abs(rng.standard_normal((6, 12))).astype(np.float32) * 2
    colors = rng.uniform(0, 1, (6, 12, 3)).astype(np.float32)
    depths = np.sort(rng.uniform(2, 6, (6, 12)), axis=-1)
    return sigmas, colors, depths


class TestParity:
    def test_matches_numpy_composite(self, ray_batch):
        sigmas, colors, depths = ray_batch
        pixel_t, weights_t = composite(Tensor(sigmas), Tensor(colors),
                                       depths, far=6.0)
        pixel_n, weights_n, _ = composite_numpy(sigmas, colors, depths, 6.0)
        assert np.allclose(pixel_t.data, pixel_n, atol=1e-4)
        assert np.allclose(weights_t.data, weights_n, atol=1e-4)

    def test_white_background_parity(self, ray_batch):
        sigmas, colors, depths = ray_batch
        pixel_t, _ = composite(Tensor(sigmas * 0.01), Tensor(colors), depths,
                               far=6.0, white_background=True)
        pixel_n, _, _ = composite_numpy(sigmas * 0.01, colors, depths, 6.0,
                                        white_background=True)
        assert np.allclose(pixel_t.data, pixel_n, atol=1e-4)

    def test_max_delta_parity(self, ray_batch):
        sigmas, colors, depths = ray_batch
        pixel_t, _ = composite(Tensor(sigmas), Tensor(colors), depths,
                               far=6.0, max_delta=0.2)
        pixel_n, _, _ = composite_numpy(sigmas, colors, depths, 6.0,
                                        max_delta=0.2)
        assert np.allclose(pixel_t.data, pixel_n, atol=1e-4)


class TestWeights:
    def test_weights_are_subprobability(self, ray_batch):
        sigmas, colors, depths = ray_batch
        _, weights = composite(Tensor(sigmas), Tensor(colors), depths, 6.0)
        assert (weights.data >= 0).all()
        assert (weights.data.sum(-1) <= 1 + 1e-6).all()

    def test_weighted_depth_within_sampled_range(self, ray_batch):
        sigmas, colors, depths = ray_batch
        _, weights = composite(Tensor(sigmas), Tensor(colors), depths, 6.0)
        w = weights.data.astype(np.float64)
        mean_depth = (w * depths).sum(-1) / w.sum(-1)
        assert (mean_depth >= depths[:, 0] - 1e-6).all()
        assert (mean_depth <= depths[:, -1] + 1e-6).all()


class TestMask:
    def test_padded_points_contribute_nothing(self, ray_batch):
        """Whatever sigma/colour the padded slots carry, the pixel is
        unchanged — 'the padded ones do not contribute' (Sec. 3.2)."""
        sigmas, colors, depths = ray_batch
        mask = np.ones_like(sigmas, dtype=bool)
        mask[:, 8:] = False
        poisoned_sigma = sigmas.copy()
        poisoned_sigma[:, 8:] = 100.0
        poisoned_color = colors.copy()
        poisoned_color[:, 8:] = 123.0
        clean, _ = composite(Tensor(sigmas), Tensor(colors), depths,
                             far=6.0, mask=mask)
        masked, _ = composite(Tensor(poisoned_sigma), Tensor(poisoned_color),
                              depths, far=6.0, mask=mask)
        assert np.allclose(clean.data, masked.data, atol=1e-6)

    def test_fully_masked_ray_is_black(self, ray_batch):
        sigmas, colors, depths = ray_batch
        mask = np.zeros_like(sigmas, dtype=bool)
        pixel, weights = composite(Tensor(sigmas), Tensor(colors), depths,
                                   far=6.0, mask=mask)
        assert np.allclose(pixel.data, 0.0)
        assert np.allclose(weights.data, 0.0)


class TestGradients:
    def test_gradients_reach_sigma_and_color(self, ray_batch):
        sigmas, colors, depths = ray_batch
        sig = Tensor(sigmas, requires_grad=True)
        col = Tensor(colors, requires_grad=True)
        pixel, _ = composite(sig, col, depths, far=6.0)
        pixel.sum().backward()
        assert sig.grad is not None and np.isfinite(sig.grad).all()
        assert col.grad is not None and (col.grad >= -1e-6).all()

    def test_sigma_gradient_numerical(self, ray_batch, numgrad):
        sigmas, colors, depths = ray_batch
        sig0 = sigmas[:2, :6].astype(np.float64)
        col0 = colors[:2, :6]
        d0 = depths[:2, :6]

        sig = Tensor(sig0.copy(), requires_grad=True)
        pixel, _ = composite(sig, Tensor(col0), d0, far=6.0)
        pixel.sum().backward()

        def scalar(s):
            p, _ = composite(Tensor(s), Tensor(col0), d0, far=6.0)
            return float(p.sum().data)

        expected = numgrad(scalar, sig0.copy(), eps=1e-4)
        assert np.abs(sig.grad - expected).max() < 1e-3
