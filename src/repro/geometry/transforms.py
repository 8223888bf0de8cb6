"""Pose construction utilities: look-at matrices and camera rigs.

The dataset families in the paper use two rig styles: inward-facing
orbits around an object (NeRF-Synthetic, DeepVoxels) and roughly
forward-facing arrays (LLFF).  Both are generated here so the procedural
scenes in :mod:`repro.scenes` can reproduce the geometry of each family.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .camera import Camera, Intrinsics


def normalize(vector: np.ndarray) -> np.ndarray:
    """Unit-length copy of ``vector``; raises on zero input."""
    norm = np.linalg.norm(vector)
    if norm == 0:
        raise ValueError("cannot normalise a zero vector")
    return np.asarray(vector, dtype=np.float64) / norm


def look_at(eye: np.ndarray, target: np.ndarray,
            up: Optional[np.ndarray] = None) -> tuple:
    """World-to-camera (R, t) for a camera at ``eye`` looking at ``target``.

    Uses the OpenCV convention of :mod:`repro.geometry.camera`: +z is the
    viewing direction, +y points down in the image.
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.array([0.0, 1.0, 0.0]) if up is None else np.asarray(up, float)

    forward = normalize(target - eye)          # camera +z in world
    side = np.cross(forward, up)
    if np.linalg.norm(side) < 1e-8:            # forward parallel to up
        side = np.cross(forward, np.array([1.0, 0.0, 0.0]))
    right = normalize(side)                    # camera +x in world
    down = np.cross(forward, right)            # camera +y in world
    rotation = np.stack([right, down, forward], axis=0)
    translation = -rotation @ eye
    return rotation, translation


def camera_at(eye, target, intrinsics: Intrinsics,
              up: Optional[np.ndarray] = None) -> Camera:
    """Convenience: a :class:`Camera` looking from ``eye`` at ``target``."""
    rotation, translation = look_at(eye, target, up)
    return Camera(intrinsics, rotation, translation)


def orbit_cameras(intrinsics: Intrinsics, radius: float, count: int,
                  elevation_deg: float = 20.0, target=None,
                  full_circle: bool = True,
                  start_deg: float = 0.0) -> List[Camera]:
    """Inward-facing orbit rig (NeRF-Synthetic / DeepVoxels style)."""
    target = np.zeros(3) if target is None else np.asarray(target, float)
    elevation = np.radians(elevation_deg)
    span = 2 * np.pi if full_circle else np.pi
    cameras = []
    for i in range(count):
        azimuth = np.radians(start_deg) + span * i / max(count, 1)
        eye = target + radius * np.array([
            np.cos(elevation) * np.cos(azimuth),
            -np.sin(elevation),
            np.cos(elevation) * np.sin(azimuth),
        ])
        cameras.append(camera_at(eye, target, intrinsics))
    return cameras


def forward_facing_cameras(intrinsics: Intrinsics, distance: float,
                           count: int, spread: float = 0.5,
                           target=None, jitter_rng=None) -> List[Camera]:
    """Roughly forward-facing rig (LLFF style): cameras on a small planar
    grid all looking toward the scene centre."""
    target = np.zeros(3) if target is None else np.asarray(target, float)
    cameras = []
    cols = int(np.ceil(np.sqrt(count)))
    for i in range(count):
        row, col = divmod(i, cols)
        offset_x = (col - (cols - 1) / 2.0) * spread
        offset_y = (row - (cols - 1) / 2.0) * spread * 0.6
        eye = target + np.array([offset_x, offset_y, -distance])
        if jitter_rng is not None:
            eye = eye + jitter_rng.normal(scale=0.02 * distance, size=3)
        cameras.append(camera_at(eye, target, intrinsics))
    return cameras
