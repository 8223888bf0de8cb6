"""Analytic volumetric radiance fields — the reproduction's scene substrate.

The paper evaluates on captured datasets (LLFF, NeRF-Synthetic,
DeepVoxels) that are unavailable offline.  What Gen-NeRF's techniques
exploit is *geometry*: empty space, occlusion, and surfaces that
concentrate the rendering integrand (Sec. 2.4).  Analytic fields provide
exactly those phenomena with a queryable ground truth: every field maps
world points to a non-negative density sigma and an RGB colour, so
reference images, hitting probabilities and oracle renders are exact up
to quadrature.

All fields are duck-typed on two vectorised methods::

    density(points) -> (...,) float
    color(points, view_dirs) -> (..., 3) float in [0, 1]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


class Field:
    """Base class for analytic fields (interface + shared helpers)."""

    def density(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def color(self, points: np.ndarray, view_dirs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounds containing all non-negligible density."""
        raise NotImplementedError


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[-1] != 3:
        raise ValueError(f"points must be (..., 3), got {pts.shape}")
    return pts


@dataclass
class GaussianBlob(Field):
    """Isotropic Gaussian density bump: a soft volumetric object."""

    center: np.ndarray
    radius: float
    peak_density: float = 20.0
    base_color: np.ndarray = field(default_factory=lambda: np.array([0.8, 0.3, 0.2]))
    view_tint: float = 0.0  # 0 = Lambertian; >0 adds view-dependent shading

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.base_color = np.asarray(self.base_color, dtype=np.float64)

    def density(self, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        sq = np.sum((pts - self.center) ** 2, axis=-1)
        return self.peak_density * np.exp(-0.5 * sq / self.radius ** 2)

    def color(self, points: np.ndarray, view_dirs: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        base = np.broadcast_to(self.base_color, pts.shape).copy()
        # Cheap spatial variation so images are not flat colour patches.
        base[..., 0] *= 0.75 + 0.25 * np.cos(3.0 * pts[..., 0])
        base[..., 1] *= 0.75 + 0.25 * np.sin(2.0 * pts[..., 1])
        if self.view_tint > 0.0:
            dirs = np.asarray(view_dirs, dtype=np.float64)
            outward = pts - self.center
            norms = np.linalg.norm(outward, axis=-1, keepdims=True)
            outward = outward / np.maximum(norms, 1e-9)
            facing = np.clip(-np.sum(outward * dirs, axis=-1), 0.0, 1.0)
            base = base * (1.0 - self.view_tint) + self.view_tint * facing[..., None, ]
        return np.clip(base, 0.0, 1.0)

    def bounds(self):
        extent = 3.0 * self.radius
        return self.center - extent, self.center + extent


@dataclass
class SolidBox(Field):
    """Soft-edged axis-aligned box: a hard occluder/surface analogue."""

    center: np.ndarray
    half_extent: np.ndarray
    density_value: float = 40.0
    edge_softness: float = 0.05
    base_color: np.ndarray = field(default_factory=lambda: np.array([0.2, 0.5, 0.8]))

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.half_extent = np.asarray(self.half_extent, dtype=np.float64)
        self.base_color = np.asarray(self.base_color, dtype=np.float64)

    def density(self, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        offset = np.abs(pts - self.center) - self.half_extent
        # Signed distance to the box surface (positive outside).
        outside = np.linalg.norm(np.maximum(offset, 0.0), axis=-1)
        inside = np.minimum(np.max(offset, axis=-1), 0.0)
        sdf = outside + inside
        return self.density_value / (1.0 + np.exp(sdf / self.edge_softness))

    def color(self, points: np.ndarray, view_dirs: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        base = np.broadcast_to(self.base_color, pts.shape).copy()
        checker = (np.floor(2.5 * (pts[..., 0] - self.center[0]))
                   + np.floor(2.5 * (pts[..., 2] - self.center[2]))) % 2
        base = base * (0.7 + 0.3 * checker[..., None])
        return np.clip(base, 0.0, 1.0)

    def bounds(self):
        extent = self.half_extent + 4.0 * self.edge_softness
        return self.center - extent, self.center + extent


@dataclass
class SphereShell(Field):
    """Hollow spherical shell — concentrates density on a thin surface,
    the regime where focused sampling pays the most."""

    center: np.ndarray
    radius: float
    thickness: float = 0.05
    density_value: float = 60.0
    base_color: np.ndarray = field(default_factory=lambda: np.array([0.9, 0.8, 0.2]))

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.base_color = np.asarray(self.base_color, dtype=np.float64)

    def density(self, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        dist = np.linalg.norm(pts - self.center, axis=-1)
        return self.density_value * np.exp(
            -0.5 * ((dist - self.radius) / self.thickness) ** 2)

    def color(self, points: np.ndarray, view_dirs: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        base = np.broadcast_to(self.base_color, pts.shape).copy()
        lat = np.arctan2(pts[..., 1] - self.center[1],
                         np.linalg.norm(pts[..., [0, 2]] - self.center[[0, 2]],
                                        axis=-1) + 1e-9)
        base = base * (0.7 + 0.3 * np.cos(4.0 * lat)[..., None])
        return np.clip(base, 0.0, 1.0)

    def bounds(self):
        extent = self.radius + 4.0 * self.thickness
        return self.center - extent, self.center + extent


@dataclass
class GroundPlane(Field):
    """Soft horizontal slab, giving LLFF-style scenes a floor."""

    height: float = 1.2
    thickness: float = 0.08
    density_value: float = 30.0
    base_color: np.ndarray = field(default_factory=lambda: np.array([0.45, 0.4, 0.35]))
    extent: float = 8.0

    def __post_init__(self):
        self.base_color = np.asarray(self.base_color, dtype=np.float64)

    def density(self, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        vertical = np.exp(-0.5 * ((pts[..., 1] - self.height) / self.thickness) ** 2)
        lateral = ((np.abs(pts[..., 0]) < self.extent)
                   & (np.abs(pts[..., 2]) < self.extent))
        return self.density_value * vertical * lateral

    def color(self, points: np.ndarray, view_dirs: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        base = np.broadcast_to(self.base_color, pts.shape).copy()
        checker = (np.floor(pts[..., 0]) + np.floor(pts[..., 2])) % 2
        base = base * (0.8 + 0.2 * checker[..., None])
        return np.clip(base, 0.0, 1.0)

    def bounds(self):
        lo = np.array([-self.extent, self.height - 4 * self.thickness, -self.extent])
        hi = np.array([self.extent, self.height + 4 * self.thickness, self.extent])
        return lo, hi


@dataclass
class CompositeField(Field):
    """Sum of component densities with density-weighted colour blending.

    This is the physically consistent way to superpose emissive volumes:
    sigma = sum sigma_i, c = sum sigma_i c_i / sigma.
    """

    components: Sequence[Field]

    def density(self, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        total = np.zeros(pts.shape[:-1], dtype=np.float64)
        for component in self.components:
            total += component.density(pts)
        return total

    def color(self, points: np.ndarray, view_dirs: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        weighted = np.zeros(pts.shape[:-1] + (3,), dtype=np.float64)
        total = np.zeros(pts.shape[:-1], dtype=np.float64)
        for component in self.components:
            sigma = component.density(pts)
            weighted += sigma[..., None] * component.color(pts, view_dirs)
            total += sigma
        safe = np.maximum(total, 1e-9)
        blended = weighted / safe[..., None]
        # Where there is no density the colour is irrelevant; keep it
        # finite and mid-grey for numerical hygiene.
        return np.where(total[..., None] > 1e-9, blended, 0.5)

    def bounds(self):
        los, his = zip(*(c.bounds() for c in self.components))
        return np.min(los, axis=0), np.max(his, axis=0)
