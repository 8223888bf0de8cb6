"""Frusta from 3D point patches and their source-view footprints.

The Gen-NeRF workload scheduler (paper Sec. 4.3, Fig. 5) partitions the
H x W x D workload cube into point patches.  A patch (a pixel rectangle
at a depth slab) is a *frustum* in world space; projecting its eight
corners onto a source image plane yields a tetragon whose area estimates
the scene-feature memory traffic needed to process the patch.  This
module builds frusta, projects them, and measures footprint areas — the
"vertex projector" and "area calculator" blocks of Fig. 7 in software.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .camera import Camera


@dataclass(frozen=True)
class PatchRegion:
    """A point patch in workload-cube coordinates (paper's (h, w, d) space).

    ``h0:h1`` and ``w0:w1`` are a half-open pixel rectangle on the novel
    image; ``d0:d1`` a half-open slab of depth-bin indices out of
    ``depth_bins`` total between ``near`` and ``far``.
    """

    h0: int
    h1: int
    w0: int
    w1: int
    d0: int
    d1: int

    @property
    def num_pixels(self) -> int:
        return (self.h1 - self.h0) * (self.w1 - self.w0)

    @property
    def num_depth_bins(self) -> int:
        return self.d1 - self.d0

    @property
    def num_points(self) -> int:
        return self.num_pixels * self.num_depth_bins

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (self.h1 - self.h0, self.w1 - self.w0, self.d1 - self.d0)


def depth_of_bin(bin_index: float, depth_bins: int, near: float,
                 far: float) -> float:
    """Metric depth of a (possibly fractional) depth-bin coordinate."""
    return near + (far - near) * bin_index / depth_bins


def frustum_corners(novel: Camera, region: PatchRegion, depth_bins: int,
                    near: float, far: float) -> np.ndarray:
    """Eight world-space corners of the frustum spanned by ``region``.

    Corners are the four pixel-rectangle corners unprojected at the near
    and far faces of the depth slab.
    """
    d_near = depth_of_bin(region.d0, depth_bins, near, far)
    d_far = depth_of_bin(region.d1, depth_bins, near, far)
    pixel_corners = np.array([
        [region.w0, region.h0],
        [region.w1, region.h0],
        [region.w1, region.h1],
        [region.w0, region.h1],
    ], dtype=np.float64)
    corners = []
    for depth in (d_near, d_far):
        corners.append(novel.unproject(pixel_corners,
                                       np.full(4, depth, dtype=np.float64)))
    return np.concatenate(corners, axis=0)  # (8, 3)


def convex_hull_area(points2d: np.ndarray) -> float:
    """Area of the convex hull of 2D points (shoelace on the hull).

    Andrew's monotone chain, dependency-free so the scheduler model stays
    cheap; degenerate inputs (<3 distinct points) return 0.
    """
    pts = np.unique(np.asarray(points2d, dtype=np.float64), axis=0)
    if len(pts) < 3:
        return 0.0
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def half_hull(points: np.ndarray) -> List[np.ndarray]:
        hull: List[np.ndarray] = []
        for p in points:
            while len(hull) >= 2:
                o, a = hull[-2], hull[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        return hull

    lower = half_hull(pts)
    upper = half_hull(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        return 0.0
    x, y = hull[:, 0], hull[:, 1]
    return float(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


@dataclass
class Footprint:
    """Projected footprint of a frustum on one source view's feature map."""

    area: float                  # hull area in feature-map pixels^2
    bbox: Tuple[float, float, float, float]  # (u_min, v_min, u_max, v_max)
    visible: bool                # any corner in front of the camera

    @property
    def bbox_width(self) -> float:
        return max(0.0, self.bbox[2] - self.bbox[0])

    @property
    def bbox_height(self) -> float:
        return max(0.0, self.bbox[3] - self.bbox[1])


def project_frustum(corners_world: np.ndarray, source: Camera,
                    feature_scale: float = 1.0) -> Footprint:
    """Project frustum corners into a source view and measure the footprint.

    ``feature_scale`` rescales pixel coordinates onto the CNN feature map
    (e.g. 0.5 for a stride-2 encoder).  Corners behind the source camera
    are clamped out; a fully-behind frustum reports ``visible=False``.
    """
    pixels, depth = source.project(corners_world, return_depth=True)
    valid = depth > 1e-9
    if not valid.any():
        return Footprint(area=0.0, bbox=(0.0, 0.0, 0.0, 0.0), visible=False)
    pix = pixels[valid] * feature_scale
    # Clip into a generous working window so near-plane blowups do not
    # produce absurd areas; the scheduler only compares candidates.
    width = source.intrinsics.width * feature_scale
    height = source.intrinsics.height * feature_scale
    pix = np.clip(pix, [-2 * width, -2 * height], [3 * width, 3 * height])
    area = convex_hull_area(pix)
    bbox = (float(pix[:, 0].min()), float(pix[:, 1].min()),
            float(pix[:, 0].max()), float(pix[:, 1].max()))
    return Footprint(area=area, bbox=bbox, visible=True)
