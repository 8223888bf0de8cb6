"""Scene-feature acquisition (paper Sec. 2.2, Step 2).

Projects sampled 3D points onto every source view's image plane via the
projective transform pi and fetches the feature vector at the projection
by bilinear interpolation.  This is *the* memory-bound operation of
generalizable NeRFs — H x W x P x S x D accesses per frame (Sec. 1) —
and the quantity every hardware experiment in this repo accounts for.

The bilinear gather is differentiable so encoder training works; the
geometric projection itself is constant w.r.t. model parameters.

Performance note: this is the end-to-end render path's dominant
non-GEMM cost, so the per-view Python loop is gone — all S views gather
through one flat-indexed corner lookup into the *stacked* channel-last
feature tensor that :meth:`repro.models.encoder.ConvEncoder.encode_views`
now returns, and the source-colour / direction-delta / visibility
arrays are computed for the whole (S, R, P) block at once.  Only the
camera projection itself stays per-view (each view has its own
extrinsics; the matmul is a trivial cost).  The feature gather and the
visibility test keep per-element arithmetic unchanged and are
bit-identical to the per-view loop; the colour and direction lerps
deliberately run at float32 (they feed float32 MLPs), agreeing with the
seed's float64 versions to interpolation tolerance —
``tests/models/test_render_e2e_equivalence.py`` pins both.
``benchmarks/harness.py::render_rays_e2e_r1024`` times the effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..geometry.camera import Camera
from ..nn import Tensor, concatenate


def bilinear_gather(feature_map: Tensor, pixels: np.ndarray) -> Tensor:
    """Bilinearly interpolate a channel-last (H, W, C) map at (N, 2) pixels.

    Out-of-bounds pixels are clamped to the border (callers mask them out
    separately).  The four corner gathers route gradients back into the
    map via scatter-add, matching the accelerator's interpolator unit
    which reads the four nearest feature elements (Sec. 4.5).
    """
    height, width = feature_map.shape[0], feature_map.shape[1]
    pix = np.asarray(pixels, dtype=np.float64)
    u = np.clip(pix[:, 0], 0.0, width - 1.0)
    v = np.clip(pix[:, 1], 0.0, height - 1.0)
    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = (u - x0).astype(np.float32)[:, None]
    fy = (v - y0).astype(np.float32)[:, None]

    f00 = feature_map[(y0, x0)]
    f01 = feature_map[(y0, x1)]
    f10 = feature_map[(y1, x0)]
    f11 = feature_map[(y1, x1)]
    top = f00 * (1.0 - fx) + f01 * fx
    bottom = f10 * (1.0 - fx) + f11 * fx
    return top * (1.0 - fy) + bottom * fy


def stacked_feature_maps(feature_maps: Union[Tensor, Sequence[Tensor]]
                         ) -> Tensor:
    """Coerce per-view feature maps to one stacked (S, H, W, C) tensor.

    The encoder already returns the stacked form; a list of (H, W, C)
    per-view tensors (the pre-batching API, still used by tests and
    external callers) is concatenated with gradient routing intact.
    """
    if isinstance(feature_maps, Tensor):
        return feature_maps
    return concatenate([m.expand_dims(0) for m in feature_maps], axis=0)


def _batched_bilinear_gather(stacked: Tensor, pixels: np.ndarray) -> Tensor:
    """Bilinear interpolation of all views at once.

    ``stacked`` is (S, H, W, C) channel-last; ``pixels`` (S, N, 2) gives
    each view its own projection of the same N points.  The four corner
    gathers become single flat-index lookups into the (S*H*W, C) view of
    the stacked tensor — one graph node each instead of 4*S — and the
    lerp arithmetic is element-for-element the same as
    :func:`bilinear_gather`, so outputs are bit-identical to the
    per-view loop.
    """
    num_views, height, width = stacked.shape[0], stacked.shape[1], stacked.shape[2]
    pix = np.asarray(pixels, dtype=np.float64)
    u = np.clip(pix[..., 0], 0.0, width - 1.0)
    v = np.clip(pix[..., 1], 0.0, height - 1.0)
    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = (u - x0).astype(np.float32)[..., None]
    fy = (v - y0).astype(np.float32)[..., None]

    flat = stacked.reshape(num_views * height * width, stacked.shape[3])
    base = (np.arange(num_views, dtype=np.int64) * height * width)[:, None]
    f00 = flat[base + y0 * width + x0]
    f01 = flat[base + y0 * width + x1]
    f10 = flat[base + y1 * width + x0]
    f11 = flat[base + y1 * width + x1]
    top = f00 * (1.0 - fx) + f01 * fx
    bottom = f10 * (1.0 - fx) + f11 * fx
    return top * (1.0 - fy) + bottom * fy


@dataclass
class FetchedFeatures:
    """Per-view data gathered for a block of sampled points.

    Shapes use S = #source views, R = rays, P = points per ray.
    """

    features: Tensor        # (S, R, P, C) interpolated scene features
    rgb: np.ndarray         # (S, R, P, 3) interpolated source colours
    direction_delta: np.ndarray  # (S, R, P, 4) view-direction differences
    visibility: np.ndarray  # (S, R, P) bool: point projects inside view

    @property
    def num_views(self) -> int:
        """S — the number of conditioning source views gathered from."""
        return self.features.shape[0]


def direction_features(points: np.ndarray, ray_dirs: np.ndarray,
                       source: Camera) -> np.ndarray:
    """IBRNet-style relative direction encoding, (R, P, 4).

    Concatenates the difference between the target ray direction and the
    unit vector from the source camera to the point, plus their dot
    product — the cue for weighting views by angular proximity.
    """
    to_point = points - source.center
    norms = np.linalg.norm(to_point, axis=-1, keepdims=True)
    source_dirs = to_point / np.maximum(norms, 1e-9)
    target_dirs = np.broadcast_to(ray_dirs[:, None, :], points.shape)
    diff = target_dirs - source_dirs
    dot = np.sum(target_dirs * source_dirs, axis=-1, keepdims=True)
    return np.concatenate([diff, dot], axis=-1).astype(np.float32)


def _batched_direction_features(points: np.ndarray, ray_dirs: np.ndarray,
                                centers: np.ndarray) -> np.ndarray:
    """:func:`direction_features` for all S views at once, (S, R, P, 4).

    Computed in float32: the encoding is consumed by float32 MLPs, so
    carrying the intermediate geometry at float64 (as the per-view
    version did) doubled the memory traffic of an op that runs for
    every (view, ray, point) of every frame.
    """
    to_point = (points[None] - centers[:, None, None, :]).astype(np.float32)
    norms = np.sqrt(np.sum(to_point * to_point, axis=-1, keepdims=True))
    source_dirs = to_point / np.maximum(norms, 1e-9)
    target_dirs = np.broadcast_to(
        ray_dirs[None, :, None, :].astype(np.float32), to_point.shape)
    diff = target_dirs - source_dirs
    dot = np.sum(target_dirs * source_dirs, axis=-1, keepdims=True)
    return np.concatenate([diff, dot], axis=-1)


def fetch_features(points: np.ndarray, ray_dirs: np.ndarray,
                   source_cameras: Sequence[Camera],
                   feature_maps: Union[Tensor, Sequence[Tensor]],
                   source_images: np.ndarray,
                   feature_scale: float = 0.5) -> FetchedFeatures:
    """Acquire scene features for (R, P, 3) sampled points from all views.

    ``source_images`` is (S, 3, H, W) in [0, 1]; ``feature_maps`` is the
    stacked channel-last encoder output (S, Hf, Wf, C) — a list of
    per-view (Hf, Wf, C) tensors is also accepted and stacked here.
    """
    num_views = len(source_cameras)
    rays, pts_per_ray = points.shape[0], points.shape[1]
    flat_points = points.reshape(-1, 3)
    num_points = flat_points.shape[0]
    maps = stacked_feature_maps(feature_maps)

    # Projection stays per-view (per-camera extrinsics); everything
    # downstream of the projected pixels is batched over views.
    pixels_sv = np.empty((num_views, num_points, 2), dtype=np.float64)
    depth_sv = np.empty((num_views, num_points), dtype=np.float64)
    for index, camera in enumerate(source_cameras):
        pixels_sv[index], depth_sv[index] = camera.project(flat_points,
                                                           return_depth=True)
    finite = np.isfinite(pixels_sv).all(axis=-1) & (depth_sv > 1e-6)
    safe_pixels = np.where(finite[..., None], pixels_sv, 0.0)

    gathered = _batched_bilinear_gather(maps, safe_pixels * feature_scale)
    features = gathered.reshape(num_views, rays, pts_per_ray,
                                gathered.shape[-1])

    images_hwc = np.ascontiguousarray(
        np.transpose(source_images, (0, 2, 3, 1)).astype(np.float32))
    rgb = _bilinear_numpy_batched(images_hwc, safe_pixels)
    view_rgb = rgb.reshape(num_views, rays, pts_per_ray, 3)

    centers = np.stack([camera.center for camera in source_cameras], axis=0)
    view_dirs = _batched_direction_features(points, ray_dirs, centers)

    widths = np.array([camera.intrinsics.width for camera in source_cameras],
                      dtype=np.float64)[:, None]
    heights = np.array([camera.intrinsics.height for camera in source_cameras],
                       dtype=np.float64)[:, None]
    inside = (finite
              & (pixels_sv[..., 0] >= 0) & (pixels_sv[..., 0] <= widths - 1)
              & (pixels_sv[..., 1] >= 0) & (pixels_sv[..., 1] <= heights - 1))
    view_visible = inside.reshape(num_views, rays, pts_per_ray)

    return FetchedFeatures(features=features, rgb=view_rgb,
                           direction_delta=view_dirs, visibility=view_visible)


def fetched_pixel_mask(points: np.ndarray,
                       source_cameras: Sequence[Camera],
                       map_height: int, map_width: int,
                       feature_scale: float = 0.5) -> np.ndarray:
    """Feature-map pixels :func:`fetch_features` will gather, as a
    (S, map_height, map_width) boolean mask.

    Replicates the fetcher's bilinear-corner arithmetic exactly —
    non-finite projections clamp to pixel 0 (they are still gathered,
    with zero lerp weight), coordinates clip to the map, and all four
    corners of every point are marked.  The footprint-restricted encode
    (:mod:`repro.models.footprint`) treats this set as the pixels whose
    values and gradients must be bit-exact.
    """
    flat_points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    mask = np.zeros((len(source_cameras), map_height, map_width),
                    dtype=bool)
    for index, camera in enumerate(source_cameras):
        pixels, depth = camera.project(flat_points, return_depth=True)
        finite = np.isfinite(pixels).all(axis=-1) & (depth > 1e-6)
        safe = np.where(finite[:, None], pixels, 0.0) * feature_scale
        u = np.clip(safe[:, 0], 0.0, map_width - 1.0)
        v = np.clip(safe[:, 1], 0.0, map_height - 1.0)
        x0 = np.floor(u).astype(np.int64)
        y0 = np.floor(v).astype(np.int64)
        x1 = np.minimum(x0 + 1, map_width - 1)
        y1 = np.minimum(y0 + 1, map_height - 1)
        view = mask[index]
        view[y0, x0] = True
        view[y0, x1] = True
        view[y1, x0] = True
        view[y1, x1] = True
    return mask


def _bilinear_numpy_batched(images_shwc: np.ndarray,
                            pixels: np.ndarray) -> np.ndarray:
    """Plain-numpy bilinear sample over all views: (S, H, W, C) at (S, N, 2).

    The lerp runs in float32 (corner selection stays float64): the
    per-view version promoted the float32 image to float64 through the
    whole interpolation only to cast back, which doubled the traffic of
    the render path's largest numpy gather.
    """
    num_views, height, width = images_shwc.shape[:3]
    flat = images_shwc.reshape(num_views * height * width,
                               images_shwc.shape[3])
    u = np.clip(pixels[..., 0], 0.0, width - 1.0)
    v = np.clip(pixels[..., 1], 0.0, height - 1.0)
    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = (u - x0).astype(np.float32)[..., None]
    fy = (v - y0).astype(np.float32)[..., None]
    base = (np.arange(num_views, dtype=np.int64) * height * width)[:, None]
    top = flat[base + y0 * width + x0] * (1 - fx) \
        + flat[base + y0 * width + x1] * fx
    bottom = flat[base + y1 * width + x0] * (1 - fx) \
        + flat[base + y1 * width + x1] * fx
    return top * (1 - fy) + bottom * fy
