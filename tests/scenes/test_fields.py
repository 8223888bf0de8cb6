"""Analytic field tests: densities, colours, bounds, composition."""

import numpy as np
import pytest

from repro.scenes import (CompositeField, GaussianBlob, GroundPlane,
                          SolidBox, SphereShell)

ALL_FIELDS = [
    GaussianBlob(center=np.zeros(3), radius=0.3),
    SolidBox(center=np.zeros(3), half_extent=np.array([0.4, 0.3, 0.2])),
    SphereShell(center=np.zeros(3), radius=0.5),
    GroundPlane(height=1.0),
]


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: type(f).__name__)
class TestFieldInterface:
    def test_density_nonnegative(self, field, rng):
        pts = rng.uniform(-3, 3, (200, 3))
        assert (field.density(pts) >= 0).all()

    def test_color_in_unit_range(self, field, rng):
        pts = rng.uniform(-2, 2, (100, 3))
        dirs = rng.standard_normal((100, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        colors = field.color(pts, dirs)
        assert colors.shape == (100, 3)
        assert (colors >= 0).all() and (colors <= 1).all()

    def test_bounds_contain_mass(self, field, rng):
        lo, hi = field.bounds()
        # Sample far outside the bounds: density should be negligible
        # compared to the peak inside.
        inside = rng.uniform(lo, hi, (500, 3))
        outside = rng.uniform(lo - 10 * (hi - lo), lo - 5 * (hi - lo),
                              (200, 3))
        assert field.density(outside).max() \
            < 0.05 * max(field.density(inside).max(), 1e-9)

    def test_batched_shapes(self, field, rng):
        pts = rng.uniform(-1, 1, (4, 5, 3))
        dirs = np.broadcast_to(np.array([0, 0, 1.0]), (4, 5, 3))
        assert field.density(pts).shape == (4, 5)
        assert field.color(pts, dirs).shape == (4, 5, 3)

    def test_rejects_bad_point_shape(self, field):
        with pytest.raises(ValueError):
            field.density(np.zeros((5, 2)))


class TestSpecificFields:
    def test_blob_peak_at_center(self):
        blob = GaussianBlob(center=np.array([1.0, 0, 0]), radius=0.2,
                            peak_density=30.0)
        assert np.isclose(blob.density(np.array([[1.0, 0, 0]]))[0], 30.0)
        assert blob.density(np.array([[2.0, 0, 0]]))[0] < 1.0

    def test_box_inside_outside(self):
        box = SolidBox(center=np.zeros(3), half_extent=np.array([0.5] * 3),
                       density_value=40.0, edge_softness=0.01)
        assert box.density(np.zeros((1, 3)))[0] > 39.0
        assert box.density(np.array([[1.0, 1.0, 1.0]]))[0] < 0.1

    def test_shell_hollow(self):
        shell = SphereShell(center=np.zeros(3), radius=0.5, thickness=0.03,
                            density_value=50.0)
        on_shell = shell.density(np.array([[0.5, 0, 0]]))[0]
        center = shell.density(np.zeros((1, 3)))[0]
        assert on_shell > 45.0 and center < 1.0

    def test_blob_view_tint_changes_color(self):
        blob = GaussianBlob(center=np.zeros(3), radius=0.3, view_tint=0.5)
        pts = np.array([[0.2, 0.0, 0.0]])
        facing = blob.color(pts, np.array([[-1.0, 0, 0]]))
        away = blob.color(pts, np.array([[1.0, 0, 0]]))
        assert not np.allclose(facing, away)

    def test_ground_plane_limited_extent(self):
        plane = GroundPlane(height=1.0, extent=2.0)
        assert plane.density(np.array([[0.0, 1.0, 0.0]]))[0] > 10
        assert plane.density(np.array([[5.0, 1.0, 0.0]]))[0] == 0.0


class TestComposite:
    def test_density_is_sum(self, rng):
        a = GaussianBlob(center=np.zeros(3), radius=0.3)
        b = GaussianBlob(center=np.array([1.0, 0, 0]), radius=0.3)
        comp = CompositeField([a, b])
        pts = rng.uniform(-1, 2, (50, 3))
        assert np.allclose(comp.density(pts),
                           a.density(pts) + b.density(pts))

    def test_color_is_density_weighted(self):
        red = GaussianBlob(center=np.zeros(3), radius=0.3,
                           base_color=np.array([1.0, 0, 0]), view_tint=0)
        blue = GaussianBlob(center=np.zeros(3), radius=0.3,
                            base_color=np.array([0, 0, 1.0]), view_tint=0)
        comp = CompositeField([red, blue])
        color = comp.color(np.zeros((1, 3)), np.array([[0, 0, 1.0]]))[0]
        # Equal densities -> average of the two component colours.
        single_red = red.color(np.zeros((1, 3)), np.array([[0, 0, 1.0]]))[0]
        single_blue = blue.color(np.zeros((1, 3)), np.array([[0, 0, 1.0]]))[0]
        assert np.allclose(color, 0.5 * (single_red + single_blue))

    def test_empty_region_color_is_neutral(self):
        comp = CompositeField([GaussianBlob(center=np.zeros(3), radius=0.1)])
        far = np.array([[50.0, 50.0, 50.0]])
        assert np.allclose(comp.color(far, np.array([[0, 0, 1.0]])), 0.5)

    def test_bounds_union(self):
        a = GaussianBlob(center=np.array([-2.0, 0, 0]), radius=0.2)
        b = GaussianBlob(center=np.array([3.0, 0, 0]), radius=0.2)
        lo, hi = CompositeField([a, b]).bounds()
        assert lo[0] < -2.0 and hi[0] > 3.0
