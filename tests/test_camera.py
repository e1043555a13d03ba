from dataclasses import asdict

import numpy as np
import pytest
from scipy import ndimage

from posetune.camera import (CameraIntrinsics, box_max, box_min, default_camera, erode_cross,
                             render_depth)

# (1, 1), a single row, a single column, (2, 2), window-sized and full frame.
SHAPES = [(1, 1), (1, 9), (9, 1), (2, 2), (3, 3), (5, 5), (4, 7), (240, 320)]


def images(shape, seed):
    """A float image with +-inf fills and a boolean mask of the same shape."""
    g = np.random.default_rng(seed)
    values = g.uniform(300.0, 900.0, shape)
    values[g.random(shape) < 0.25] = np.inf
    values[g.random(shape) < 0.25] = -np.inf
    return values, g.random(shape) < 0.6


class TestBoxFilters:
    """The slice-shift kernels give exactly what ``scipy.ndimage`` gives."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("size", [3, 5])
    def test_max_and_min_match_ndimage(self, shape, size):
        for seed in range(6):
            for image in images(shape, seed):
                for ours, reference in ((box_max, ndimage.maximum_filter),
                                        (box_min, ndimage.minimum_filter)):
                    got = ours(image, size)
                    expected = reference(image, size=size)
                    assert got.dtype == expected.dtype
                    np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_erosion_matches_ndimage(self, shape):
        for seed in range(6):
            _, mask = images(shape, seed)
            np.testing.assert_array_equal(erode_cross(mask), ndimage.binary_erosion(mask))
        full = np.ones(shape, dtype=bool)
        np.testing.assert_array_equal(erode_cross(full), ndimage.binary_erosion(full))

    def test_input_is_not_modified(self):
        image, mask = images((6, 8), 0)
        kept = image.copy(), mask.copy()
        box_max(image, 5), box_min(image, 3), erode_cross(mask)
        np.testing.assert_array_equal(image, kept[0])
        np.testing.assert_array_equal(mask, kept[1])

    @pytest.mark.parametrize("size", [0, 2, 4, -3])
    def test_rejects_even_or_non_positive_size(self, size):
        with pytest.raises(ValueError, match="odd"):
            box_max(np.zeros((4, 4)), size)


def reference_render(points, cam):
    """``render_depth`` splatting through the 2-D index ``(v, u)``."""
    depth = np.full((cam.height, cam.width), np.inf)
    pts = np.asarray(points, dtype=np.float64)
    if len(pts):
        z = pts[:, 2]
        front = z > 0
        pts, z = pts[front], z[front]
        u = np.rint(cam.fx * pts[:, 0] / z + cam.cx).astype(np.int64)
        v = np.rint(cam.fy * pts[:, 1] / z + cam.cy).astype(np.int64)
        inside = (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)
        np.minimum.at(depth, (v[inside], u[inside]), z[inside])
    depth[np.isinf(depth)] = 0.0
    return depth


class TestIntrinsics:
    @pytest.mark.parametrize("name", ["width", "height"])
    def test_rejects_fractional_size(self, name):
        data = asdict(default_camera())
        data[name] = float(data[name])
        with pytest.raises(ValueError, match=name):
            CameraIntrinsics(**data)

    @pytest.mark.parametrize("name", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("value", [True, "100.0"])
    def test_focal_lengths_and_centre_are_numbers(self, name, value):
        data = dict(asdict(default_camera()), **{name: value})
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            CameraIntrinsics(**data)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_focal_length_is_finite(self, value):
        with pytest.raises(ValueError, match="fx must be finite"):
            CameraIntrinsics(value, 260.0, 160.0, 120.0, 320, 240)


class TestRenderDepth:
    def test_matches_two_dimensional_splat(self):
        g = np.random.default_rng(3)
        for cam in (default_camera(), CameraIntrinsics(90.0, 70.0, 20.0, 3.0, 41, 7)):
            pts = np.column_stack([g.uniform(-400, 400, 5000), g.uniform(-300, 300, 5000),
                                   g.uniform(-200, 900, 5000)])   # some behind the camera
            pts[::7, 2] = 0.0                                      # on the camera plane
            # several points on the principal point's pixel: the nearest one wins
            same = np.zeros((6, 3))
            same[:, 2] = [530.0, 500.0, 512.0, 500.5, 599.0, 507.0]
            pts = np.vstack([pts, same])
            np.testing.assert_array_equal(render_depth(pts, cam), reference_render(pts, cam))

    def test_same_pixel_keeps_the_nearest_point(self):
        cam = default_camera()
        depth = render_depth([[0.0, 0.0, 600.0], [0.01, 0.0, 450.0], [0.0, 0.01, 700.0]], cam)
        assert depth[120, 160] == 450.0
        assert np.count_nonzero(depth) == 1

    def test_points_off_image_or_behind_are_dropped(self):
        cam = default_camera()
        pts = [[0.0, 0.0, -500.0], [0.0, 0.0, 0.0], [5000.0, 0.0, 500.0],
               [0.0, -5000.0, 500.0], [-161.0 * 500.0 / 260.0, 0.0, 500.0]]
        depth = render_depth(pts, cam)
        assert depth.shape == (cam.height, cam.width)
        assert not depth.any()

    def test_empty_input(self):
        cam = default_camera()
        assert not render_depth(np.zeros((0, 3)), cam).any()
