"""Pose construction tests."""

import numpy as np
import pytest

from repro.geometry import (Intrinsics, camera_at, forward_facing_cameras,
                            look_at, normalize, orbit_cameras)


class TestLookAt:
    def test_rotation_is_orthonormal(self):
        rotation, _ = look_at(np.array([1.0, 2.0, 3.0]), np.zeros(3))
        assert np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-12)

    def test_forward_points_at_target(self):
        eye = np.array([0.0, 0.0, -5.0])
        rotation, translation = look_at(eye, np.zeros(3))
        forward_world = rotation.T @ np.array([0, 0, 1.0])
        assert np.allclose(forward_world, [0, 0, 1.0], atol=1e-12)

    def test_degenerate_up_handled(self):
        # Looking straight along the up vector must not crash.
        rotation, _ = look_at(np.array([0.0, -5.0, 0.0]), np.zeros(3))
        assert np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-10)

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(3))


class TestRigs:
    def test_orbit_count_and_distance(self):
        intr = Intrinsics.from_fov(32, 32, 60.0)
        cams = orbit_cameras(intr, radius=4.0, count=8)
        assert len(cams) == 8
        for cam in cams:
            assert np.isclose(np.linalg.norm(cam.center), 4.0)
            # Every camera sees the origin.
            assert cam.in_view(np.zeros((1, 3)))[0]

    def test_orbit_azimuths_spread(self):
        intr = Intrinsics.from_fov(32, 32, 60.0)
        cams = orbit_cameras(intr, radius=4.0, count=4)
        centers = np.array([c.center for c in cams])
        # Full circle: centers should not be clustered on one side.
        assert centers[:, 0].max() > 0 > centers[:, 0].min()

    def test_forward_facing_sees_target(self):
        intr = Intrinsics.from_fov(32, 32, 60.0)
        cams = forward_facing_cameras(intr, distance=4.0, count=6)
        assert len(cams) == 6
        for cam in cams:
            assert cam.in_view(np.zeros((1, 3)))[0]
            assert cam.center[2] < -2.0   # all on the same side

    def test_forward_facing_jitter_reproducible(self):
        intr = Intrinsics.from_fov(32, 32, 60.0)
        a = forward_facing_cameras(intr, 4.0, 4,
                                   jitter_rng=np.random.default_rng(1))
        b = forward_facing_cameras(intr, 4.0, 4,
                                   jitter_rng=np.random.default_rng(1))
        assert np.allclose(a[2].center, b[2].center)
