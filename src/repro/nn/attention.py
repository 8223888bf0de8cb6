"""Multi-head self-attention — the ray-transformer baseline's core op.

The paper's hardware motivation (Sec. 2.3) is that attention is 44.1% of
DNN latency at only 13.8% of FLOPs on a GPU; Gen-NeRF removes it with the
Ray-Mixer.  We therefore keep this implementation faithful (scaled
dot-product, per-head projections, residual + LayerNorm block) so the
workload analysis in :mod:`repro.models.workload` can count its FLOPs and
memory traffic exactly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from .layers import LayerNorm, Linear, Module
from .tensor import Tensor, as_tensor


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention over the point axis of a ray.

    Input shape: (rays, points, features).  An optional boolean mask of
    shape (rays, points) marks valid (non-padded) points.
    """

    def __init__(self, features: int, heads: int = 4,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if features % heads != 0:
            raise ValueError(f"features={features} not divisible by heads={heads}")
        rng = rng or np.random.default_rng(0)
        self.features = features
        self.heads = heads
        self.head_dim = features // heads
        self.query = Linear(features, features, rng=rng)
        self.key = Linear(features, features, rng=rng)
        self.value = Linear(features, features, rng=rng)
        self.out = Linear(features, features, rng=rng)

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        x = as_tensor(x)
        rays, points, _ = x.shape
        heads, dim = self.heads, self.head_dim

        def split(t: Tensor) -> Tensor:
            # (R, P, F) -> (R, H, P, d)
            return t.reshape(rays, points, heads, dim).transpose((0, 2, 1, 3))

        q = split(self.query(x))
        k = split(self.key(x))
        v = split(self.value(x))

        scores = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(dim))
        if mask is not None:
            # (R, P) -> broadcast over heads and query positions.
            attend = np.broadcast_to(mask[:, None, None, :],
                                     (rays, heads, points, points))
            weights = F.masked_softmax(scores, attend, axis=-1)
        else:
            weights = F.softmax(scores, axis=-1)
        mixed = weights @ v  # (R, H, P, d)
        merged = mixed.transpose((0, 2, 1, 3)).reshape(rays, points, self.features)
        return self.out(merged)

    def flops(self, rays: int, points: int) -> int:
        """Exact FLOPs: 4 projections + 2 batched matmuls + softmax."""
        proj = 4 * 2 * rays * points * self.features * self.features
        attn = 2 * 2 * rays * self.heads * points * points * self.head_dim
        softmax_ops = 5 * rays * self.heads * points * points
        return proj + attn + softmax_ops
