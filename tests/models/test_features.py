"""Feature acquisition: bilinear gather, visibility, direction encoding."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.models.features import (bilinear_gather, direction_features,
                                   fetch_features)
from repro.models.encoder import ConvEncoder
from repro.geometry import Intrinsics, camera_at


class TestBilinearGather:
    def test_exact_at_integer_pixels(self, rng):
        fmap = Tensor(rng.standard_normal((6, 8, 4)).astype(np.float32))
        pixels = np.array([[3.0, 2.0], [0.0, 0.0], [7.0, 5.0]])
        out = bilinear_gather(fmap, pixels)
        assert np.allclose(out.data[0], fmap.data[2, 3], atol=1e-6)
        assert np.allclose(out.data[1], fmap.data[0, 0], atol=1e-6)
        assert np.allclose(out.data[2], fmap.data[5, 7], atol=1e-6)

    def test_midpoint_average(self):
        fmap_data = np.zeros((2, 2, 1), dtype=np.float32)
        fmap_data[0, 0, 0] = 1.0
        fmap_data[0, 1, 0] = 3.0
        fmap_data[1, 0, 0] = 5.0
        fmap_data[1, 1, 0] = 7.0
        out = bilinear_gather(Tensor(fmap_data), np.array([[0.5, 0.5]]))
        assert np.isclose(out.data[0, 0], 4.0)

    def test_out_of_bounds_clamped(self, rng):
        fmap = Tensor(rng.standard_normal((4, 4, 2)).astype(np.float32))
        out = bilinear_gather(fmap, np.array([[-3.0, -3.0], [10.0, 10.0]]))
        assert np.allclose(out.data[0], fmap.data[0, 0], atol=1e-6)
        assert np.allclose(out.data[1], fmap.data[3, 3], atol=1e-6)

    def test_gradient_scatters_to_map(self, rng):
        fmap = Tensor(rng.standard_normal((4, 4, 2)).astype(np.float32),
                      requires_grad=True)
        out = bilinear_gather(fmap, np.array([[1.5, 1.5]]))
        out.sum().backward()
        # Four corners each receive weight 0.25 (x2 channels).
        touched = fmap.grad.sum(-1)
        assert np.isclose(touched[1:3, 1:3].sum(), 2.0)
        assert np.isclose(touched.sum(), 2.0)


class TestDirectionFeatures:
    def test_shape_and_dot_range(self, rng):
        intr = Intrinsics.from_fov(16, 16, 60.0)
        source = camera_at(np.array([0, 0, -4.0]), np.zeros(3), intr)
        points = rng.uniform(-1, 1, (5, 7, 3))
        ray_dirs = rng.standard_normal((5, 3))
        ray_dirs /= np.linalg.norm(ray_dirs, axis=-1, keepdims=True)
        feats = direction_features(points, ray_dirs, source)
        assert feats.shape == (5, 7, 4)
        assert (np.abs(feats[..., 3]) <= 1 + 1e-5).all()

    def test_aligned_directions_give_dot_one(self):
        intr = Intrinsics.from_fov(16, 16, 60.0)
        source = camera_at(np.array([0, 0, -4.0]), np.zeros(3), intr)
        # Point straight ahead of the source, ray in the same direction.
        points = np.array([[[0.0, 0.0, 0.0]]])
        ray_dirs = np.array([[0.0, 0.0, 1.0]])
        feats = direction_features(points, ray_dirs, source)
        assert np.isclose(feats[0, 0, 3], 1.0, atol=1e-6)
        assert np.allclose(feats[0, 0, :3], 0.0, atol=1e-6)


class TestFetchFeatures:
    @pytest.fixture()
    def setup(self, rng):
        intr = Intrinsics.from_fov(24, 18, 60.0)
        cameras = [camera_at(np.array([x, 0, -4.0]), np.zeros(3), intr)
                   for x in (-0.5, 0.5)]
        images = rng.uniform(0, 1, (2, 3, 18, 24)).astype(np.float32)
        encoder = ConvEncoder(feature_dim=6, hidden=4, rng=rng)
        maps = encoder.encode_views(images)
        return cameras, images, maps

    def test_shapes(self, setup, rng):
        cameras, images, maps = setup
        points = rng.uniform(-0.5, 0.5, (4, 6, 3))
        dirs = np.tile(np.array([0, 0, 1.0]), (4, 1))
        fetched = fetch_features(points, dirs, cameras, maps, images,
                                 feature_scale=0.5)
        assert fetched.features.shape == (2, 4, 6, 6)
        assert fetched.rgb.shape == (2, 4, 6, 3)
        assert fetched.direction_delta.shape == (2, 4, 6, 4)
        assert fetched.visibility.shape == (2, 4, 6)
        assert fetched.num_views == 2

    def test_visibility_for_points_behind(self, setup):
        cameras, images, maps = setup
        behind = np.full((1, 2, 3), -10.0)   # behind both cameras
        dirs = np.array([[0, 0, 1.0]])
        fetched = fetch_features(behind, dirs, cameras, maps, images, 0.5)
        assert not fetched.visibility.any()

    def test_center_point_visible_everywhere(self, setup):
        cameras, images, maps = setup
        points = np.zeros((1, 1, 3))
        dirs = np.array([[0, 0, 1.0]])
        fetched = fetch_features(points, dirs, cameras, maps, images, 0.5)
        assert fetched.visibility.all()

    def test_gradient_reaches_encoder_maps(self, setup, rng):
        cameras, images, maps = setup
        points = rng.uniform(-0.3, 0.3, (2, 3, 3))
        dirs = np.tile(np.array([0, 0, 1.0]), (2, 1))
        fetched = fetch_features(points, dirs, cameras, maps, images, 0.5)
        fetched.features.sum().backward()
        assert maps[0].grad is not None or maps[0]._parents  # graph built
