"""Multi-head attention and transformer block tests."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


class TestAttention:
    def test_output_shape(self, rng):
        att = nn.MultiHeadSelfAttention(8, heads=2, rng=rng)
        out = att(Tensor(rng.standard_normal((3, 5, 8))))
        assert out.shape == (3, 5, 8)

    def test_rejects_bad_head_split(self, rng):
        with pytest.raises(ValueError):
            nn.MultiHeadSelfAttention(7, heads=2, rng=rng)

    def test_mask_blocks_information_flow(self, rng):
        """Valid positions must be unaffected by masked positions."""
        att = nn.MultiHeadSelfAttention(8, heads=2, rng=rng)
        base = rng.standard_normal((1, 6, 8)).astype(np.float32)
        mask = np.ones((1, 6), dtype=bool)
        mask[:, 4:] = False
        out_a = att(Tensor(base.copy()), mask=mask).data
        poisoned = base.copy()
        poisoned[:, 4:, :] += 100.0
        out_b = att(Tensor(poisoned), mask=mask).data
        assert np.allclose(out_a[:, :4], out_b[:, :4], atol=1e-4)

    def test_permutation_equivariance(self, rng):
        """Self-attention (no positional encoding) is permutation
        equivariant over the point axis."""
        att = nn.MultiHeadSelfAttention(8, heads=1, rng=rng)
        x = rng.standard_normal((1, 5, 8)).astype(np.float32)
        perm = np.array([3, 1, 4, 0, 2])
        out = att(Tensor(x)).data
        out_perm = att(Tensor(x[:, perm])).data
        assert np.allclose(out[:, perm], out_perm, atol=1e-5)

    def test_gradients_flow(self, rng):
        att = nn.MultiHeadSelfAttention(8, heads=2, rng=rng)
        x = Tensor(rng.standard_normal((2, 4, 8)), requires_grad=True)
        att(x).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in att.parameters())

    def test_flops_positive_and_quadratic(self, rng):
        att = nn.MultiHeadSelfAttention(8, heads=2, rng=rng)
        short = att.flops(1, 16)
        long = att.flops(1, 32)
        # Attention term is quadratic in points.
        assert long > 2 * short
