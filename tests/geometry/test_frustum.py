"""Frustum and footprint tests (the scheduler's area calculator)."""

import numpy as np
import pytest

from repro.geometry import (Intrinsics, PatchRegion, camera_at,
                            convex_hull_area, depth_of_bin, frustum_corners,
                            project_frustum)


@pytest.fixture()
def cameras():
    intr = Intrinsics.from_fov(64, 48, 60.0)
    novel = camera_at(np.array([0, 0, -4.0]), np.zeros(3), intr)
    source = camera_at(np.array([1.0, 0.3, -3.8]), np.zeros(3), intr)
    return novel, source


class TestHullArea:
    def test_unit_square(self):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert np.isclose(convex_hull_area(square), 1.0)

    def test_interior_points_ignored(self):
        pts = np.array([[0, 0], [2, 0], [2, 2], [0, 2],
                        [1, 1], [0.5, 0.5]])
        assert np.isclose(convex_hull_area(pts), 4.0)

    def test_degenerate_inputs(self):
        assert convex_hull_area(np.zeros((1, 2))) == 0.0
        collinear = np.array([[0, 0], [1, 1], [2, 2]])
        assert convex_hull_area(collinear) == 0.0

    def test_triangle(self):
        tri = np.array([[0, 0], [4, 0], [0, 3]])
        assert np.isclose(convex_hull_area(tri), 6.0)


class TestPatchRegion:
    def test_counts(self):
        region = PatchRegion(0, 8, 0, 16, 4, 12)
        assert region.num_pixels == 128
        assert region.num_depth_bins == 8
        assert region.num_points == 1024
        assert region.shape == (8, 16, 8)

    def test_depth_of_bin(self):
        assert np.isclose(depth_of_bin(0, 64, 2.0, 6.0), 2.0)
        assert np.isclose(depth_of_bin(64, 64, 2.0, 6.0), 6.0)
        assert np.isclose(depth_of_bin(32, 64, 2.0, 6.0), 4.0)


class TestFrustum:
    def test_corner_count_and_depths(self, cameras):
        novel, _ = cameras
        region = PatchRegion(8, 16, 8, 16, 0, 32)
        corners = frustum_corners(novel, region, 64, 2.0, 6.0)
        assert corners.shape == (8, 3)
        cam_z = novel.world_to_camera(corners)[:, 2]
        assert np.allclose(cam_z[:4], 2.0)
        assert np.allclose(cam_z[4:], 4.0)

    def test_projection_visible(self, cameras):
        novel, source = cameras
        region = PatchRegion(10, 20, 10, 20, 8, 16)
        corners = frustum_corners(novel, region, 64, 2.0, 6.0)
        footprint = project_frustum(corners, source)
        assert footprint.visible
        assert footprint.area > 0
        assert footprint.bbox_width > 0 and footprint.bbox_height > 0

    def test_projection_behind_camera(self, cameras):
        novel, source = cameras
        corners = np.broadcast_to(source.center - source.forward * 2.0,
                                  (8, 3)).copy()
        footprint = project_frustum(corners, source)
        assert not footprint.visible
        assert footprint.area == 0.0

    def test_feature_scale_shrinks_area(self, cameras):
        novel, source = cameras
        region = PatchRegion(10, 20, 10, 20, 8, 16)
        corners = frustum_corners(novel, region, 64, 2.0, 6.0)
        full = project_frustum(corners, source, feature_scale=1.0)
        half = project_frustum(corners, source, feature_scale=0.5)
        assert np.isclose(half.area, full.area * 0.25, rtol=0.05)
