"""Differentiable volume rendering (paper Eqs. 1-2).

Twin of :func:`repro.scenes.render_gt.composite_numpy`, written against
the autograd :class:`~repro.nn.Tensor` so gradients reach densities and
colours during training.  Supports a validity mask so rays padded to
``N_max`` by the coarse-then-focus sampler (paper Sec. 3.2, Step 3)
contribute nothing — "the padded ones do not contribute to the volume
rendering in Eq. 2".
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..nn import Tensor


def composite(sigmas: Tensor, colors: Tensor, depths: np.ndarray, far: float,
              mask: Optional[np.ndarray] = None,
              white_background: bool = False,
              max_delta: Optional[float] = None) -> Tuple[Tensor, Tensor]:
    """Quadrature of Eq. 2 with autograd.

    Parameters
    ----------
    sigmas:  Tensor (R, P), non-negative densities sorted by depth.
    colors:  Tensor (R, P, 3).
    depths:  numpy (R, P) sample depths (constant w.r.t. gradients).
    far:     scene far bound closing the last interval.
    mask:    optional bool (R, P); False marks padded samples.

    Returns
    -------
    (pixel_colors (R, 3), weights (R, P)).
    """
    depths = np.asarray(depths, dtype=np.float64)
    deltas = np.diff(depths, axis=-1)
    last = np.maximum(far - depths[..., -1:], 1e-6)
    deltas = np.concatenate([deltas, last], axis=-1)
    if max_delta is not None:
        # Sparse focused sampling: unsampled gaps are assumed empty (see
        # repro.scenes.render_gt.composite_numpy).
        deltas = np.minimum(deltas, max_delta)
    deltas = deltas.astype(np.float32)

    if mask is not None:
        mask_f = np.asarray(mask, dtype=np.float32)
        sigmas = sigmas * Tensor(mask_f)
        # Padded samples also close no interval.
        deltas = deltas * mask_f

    optical = sigmas * Tensor(deltas)
    alpha = 1.0 - (-optical).exp()
    # Exclusive prefix of the optical depth gives T_k = exp(-sum_{j<k}).
    accumulated = optical.cumsum(axis=-1)
    shifted = accumulated - optical
    transmittance = (-shifted).exp()
    weights = transmittance * alpha
    pixel = (weights.expand_dims(-1) * colors).sum(axis=-2)
    if white_background:
        residual = 1.0 - weights.sum(axis=-1, keepdims=True)
        pixel = pixel + residual
    return pixel, weights
