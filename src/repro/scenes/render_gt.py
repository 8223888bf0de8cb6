"""Reference renderer: dense ray marching of analytic fields.

Produces the "ground truth" of the reproduction — the paper's datasets
ship photographs; ours ship analytic fields, and this renderer converts
them to images by evaluating the volume-rendering quadrature (paper
Eq. 2) with a dense stratified sampling whose error is negligible
relative to the methods under study.

The compositing function here is pure numpy (no autograd) and is also
reused by the oracle evaluators; the differentiable twin used in
training lives in :mod:`repro.models.volume_rendering`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..geometry.camera import Camera
from ..geometry.rays import (RayBundle, image_shape_for_step, rays_for_image,
                             stratified_depths)
from .fields import Field


def composite_numpy(sigmas: np.ndarray, colors: np.ndarray,
                    depths: np.ndarray, far: float,
                    white_background: bool = False,
                    max_delta: Optional[float] = None
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numerical quadrature of the volume rendering integral (Eq. 2).

    Parameters
    ----------
    sigmas:  (R, P) densities at sample points, sorted by depth.
    colors:  (R, P, 3) colours at sample points.
    depths:  (R, P) sample depths t_k.
    far:     scene far bound, closing the last interval.
    max_delta: optional cap on interval widths.  Sparse focused sampling
        (paper Sec. 3.2) leaves large unsampled gaps in regions the
        coarse pass classified as empty/occluded; capping each sample's
        interval at the coarse bin width makes those gaps contribute
        nothing — the sparse sampler's working assumption — instead of
        multiplying a tail density by a huge interval.

    Returns
    -------
    pixel_colors: (R, 3)
    weights:      (R, P) hitting probabilities w_k = T_k (1 - e^{-s d}).
    transmittance:(R, P) accumulated transmittance T_k.
    """
    sigmas = np.asarray(sigmas, dtype=np.float64)
    colors = np.asarray(colors, dtype=np.float64)
    depths = np.asarray(depths, dtype=np.float64)

    deltas = np.diff(depths, axis=-1)
    last = np.maximum(far - depths[..., -1:], 1e-6)
    deltas = np.concatenate([deltas, last], axis=-1)
    if max_delta is not None:
        deltas = np.minimum(deltas, max_delta)

    alpha = 1.0 - np.exp(-np.maximum(sigmas, 0.0) * deltas)
    # T_k = prod_{j<k} (1 - alpha_j); exclusive cumulative product.
    one_minus = np.clip(1.0 - alpha, 1e-12, 1.0)
    transmittance = np.cumprod(one_minus, axis=-1)
    transmittance = np.concatenate(
        [np.ones_like(transmittance[..., :1]), transmittance[..., :-1]],
        axis=-1)
    weights = transmittance * alpha
    pixel = np.sum(weights[..., None] * colors, axis=-2)
    if white_background:
        residual = 1.0 - weights.sum(axis=-1, keepdims=True)
        pixel = pixel + residual
    return pixel, weights, transmittance


def field_sigma_color(field: Field, bundle: RayBundle,
                      depths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Query density and colour of ``field`` at per-ray sample depths."""
    points = bundle.points_at(depths)
    dirs = np.broadcast_to(bundle.directions[:, None, :], points.shape)
    sigmas = field.density(points)
    colors = field.color(points, dirs)
    return sigmas, colors


def render_rays(field: Field, bundle: RayBundle, num_points: int,
                rng: Optional[np.random.Generator] = None,
                white_background: bool = False) -> np.ndarray:
    """Render a ray bundle against the analytic field.

    Deterministic (bin-centre) stratification when ``rng`` is None, so
    reference images are reproducible bit-for-bit.
    """
    gen = rng or np.random.default_rng(0)
    depths = stratified_depths(gen, len(bundle), num_points, bundle.near,
                               bundle.far, jitter=rng is not None)
    sigmas, colors = field_sigma_color(field, bundle, depths)
    pixel, _, _ = composite_numpy(sigmas, colors, depths, bundle.far,
                                  white_background)
    return pixel


def render_image(field: Field, camera: Camera, near: float, far: float,
                 num_points: int = 192, step: int = 1,
                 white_background: bool = False,
                 chunk: int = 4096) -> np.ndarray:
    """Render a full (possibly strided) image; returns (rows, cols, 3).

    ``chunk`` bounds peak memory: rays are marched in groups so a
    1008x756 reference render does not materialise a giant tensor.
    """
    bundle = rays_for_image(camera, near, far, step=step)
    rows, cols = image_shape_for_step(camera, step)
    pixels = np.zeros((len(bundle), 3), dtype=np.float64)
    for start in range(0, len(bundle), chunk):
        part = bundle.select(slice(start, start + chunk))
        pixels[start:start + chunk] = render_rays(
            field, part, num_points, white_background=white_background)
    return pixels.reshape(rows, cols, 3)
