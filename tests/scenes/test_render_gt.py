"""Reference renderer tests: quadrature invariants and analytic cases."""

import numpy as np
import pytest

from repro.geometry import Intrinsics, camera_at, rays_for_pixels
from repro.scenes import (GaussianBlob, CompositeField, composite_numpy,
                          field_sigma_color, make_scene, render_image,
                          render_rays)


class TestCompositeNumpy:
    def test_weights_are_subprobability(self, rng):
        sigmas = np.abs(rng.standard_normal((10, 16))) * 3
        colors = rng.uniform(0, 1, (10, 16, 3))
        depths = np.sort(rng.uniform(2, 6, (10, 16)), axis=-1)
        pixel, weights, transmittance = composite_numpy(sigmas, colors,
                                                        depths, far=6.0)
        assert (weights >= 0).all()
        assert (weights.sum(-1) <= 1 + 1e-9).all()
        assert (np.diff(transmittance, axis=-1) <= 1e-12).all()

    def test_zero_density_renders_background(self):
        sigmas = np.zeros((2, 8))
        colors = np.ones((2, 8, 3))
        depths = np.tile(np.linspace(2, 5, 8), (2, 1))
        black, _, _ = composite_numpy(sigmas, colors, depths, 6.0)
        assert np.allclose(black, 0.0)
        white, _, _ = composite_numpy(sigmas, colors, depths, 6.0,
                                      white_background=True)
        assert np.allclose(white, 1.0)

    def test_opaque_wall_analytic(self):
        """A very dense region returns its own colour: alpha -> 1."""
        sigmas = np.zeros((1, 10))
        sigmas[0, 3] = 1e4
        colors = np.zeros((1, 10, 3))
        colors[0, 3] = [0.3, 0.6, 0.9]
        depths = np.linspace(2, 5, 10)[None]
        pixel, weights, _ = composite_numpy(sigmas, colors, depths, 6.0)
        assert np.allclose(pixel[0], [0.3, 0.6, 0.9], atol=1e-6)
        assert np.isclose(weights[0, 3], 1.0, atol=1e-6)

    def test_occlusion_ordering(self):
        """A dense near slab hides a far slab."""
        sigmas = np.zeros((1, 10))
        sigmas[0, 2] = 1e4
        sigmas[0, 7] = 1e4
        colors = np.zeros((1, 10, 3))
        colors[0, 2] = [1.0, 0.0, 0.0]
        colors[0, 7] = [0.0, 1.0, 0.0]
        depths = np.linspace(2, 5, 10)[None]
        pixel, weights, _ = composite_numpy(sigmas, colors, depths, 6.0)
        assert np.allclose(pixel[0], [1.0, 0, 0], atol=1e-6)
        assert weights[0, 7] < 1e-6

    def test_exponential_medium_matches_closed_form(self):
        """Uniform density sigma over [a, b]: opacity = 1 - e^{-sigma L}."""
        sigma_value = 0.7
        depths = np.linspace(2.0, 6.0, 4000)[None]
        sigmas = np.full((1, 4000), sigma_value)
        colors = np.ones((1, 4000, 3))
        _, weights, _ = composite_numpy(sigmas, colors, depths, far=6.0)
        expected = 1.0 - np.exp(-sigma_value * 4.0)
        assert np.isclose(weights.sum(), expected, rtol=1e-3)

    def test_max_delta_caps_intervals(self):
        """With a tail sample far from `far`, capping the interval kills
        the spurious absorption."""
        sigmas = np.array([[0.5]])
        colors = np.ones((1, 1, 3))
        depths = np.array([[2.0]])
        _, w_uncapped, _ = composite_numpy(sigmas, colors, depths, far=10.0)
        _, w_capped, _ = composite_numpy(sigmas, colors, depths, far=10.0,
                                         max_delta=0.1)
        assert w_capped[0, 0] < w_uncapped[0, 0]
        assert np.isclose(w_capped[0, 0], 1 - np.exp(-0.05), atol=1e-6)


class TestRenderers:
    def test_render_rays_deterministic_without_rng(self, llff_scene):
        bundle = rays_for_pixels(llff_scene.target_camera,
                                 np.array([[10.0, 10.0], [20.0, 15.0]]),
                                 llff_scene.near, llff_scene.far)
        a = render_rays(llff_scene.field, bundle, 32)
        b = render_rays(llff_scene.field, bundle, 32)
        assert np.allclose(a, b)

    def test_render_rays_composites_field_at_bin_centres(self,
                                                          llff_scene):
        # Without an rng the reference quadrature samples the field at
        # the bin centres of [near, far] and composites those samples.
        bundle = rays_for_pixels(llff_scene.target_camera,
                                 np.array([[12.0, 9.0], [3.0, 20.0]]),
                                 llff_scene.near, llff_scene.far)
        edges = np.linspace(llff_scene.near, llff_scene.far, 33)
        depths = np.tile((edges[:-1] + edges[1:]) / 2, (2, 1))
        sigmas, colors = field_sigma_color(llff_scene.field, bundle, depths)
        expected, _, _ = composite_numpy(sigmas, colors, depths,
                                         llff_scene.far)
        assert np.allclose(render_rays(llff_scene.field, bundle, 32),
                           expected)

    def test_render_image_chunking_equivalence(self, llff_scene):
        small = render_image(llff_scene.field, llff_scene.target_camera,
                             llff_scene.near, llff_scene.far, num_points=16,
                             step=8, chunk=7)
        big = render_image(llff_scene.field, llff_scene.target_camera,
                           llff_scene.near, llff_scene.far, num_points=16,
                           step=8, chunk=100000)
        assert np.allclose(small, big)

    def test_render_image_shape(self, llff_scene):
        image = render_image(llff_scene.field, llff_scene.target_camera,
                             llff_scene.near, llff_scene.far, num_points=8,
                             step=16)
        assert image.ndim == 3 and image.shape[2] == 3
        assert np.isfinite(image).all()

    def test_more_points_converges(self, orbit_scene):
        """Quadrature error decreases with sample count."""
        reference = render_image(orbit_scene.field,
                                 orbit_scene.target_camera,
                                 orbit_scene.near, orbit_scene.far,
                                 num_points=512, step=12)
        errors = []
        for points in (8, 32, 128):
            image = render_image(orbit_scene.field,
                                 orbit_scene.target_camera,
                                 orbit_scene.near, orbit_scene.far,
                                 num_points=points, step=12)
            errors.append(np.abs(image - reference).mean())
        assert errors[0] > errors[1] > errors[2]
