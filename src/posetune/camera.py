"""Pinhole camera model and point-splat depth rendering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import check_integer, check_number


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels; the camera sits at the origin looking down +z."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            check_number(name, getattr(self, name))
        for name in ("width", "height"):
            check_integer(name, getattr(self, name))
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point outside image")


def default_camera() -> CameraIntrinsics:
    """Desk-scale VGA-quarter camera used by the synthetic scenes."""
    return CameraIntrinsics(fx=260.0, fy=260.0, cx=160.0, cy=120.0, width=320, height=240)


def project_points(points: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Project (N, 3) camera-frame points to (N, 2) pixel coordinates.

    Raises ValueError if any point is at or behind the camera plane.
    """
    pts = np.asarray(points, dtype=np.float64)
    z = pts[:, 2]
    if np.any(z <= 0):
        raise ValueError("behind camera")
    u = cam.fx * pts[:, 0] / z + cam.cx
    v = cam.fy * pts[:, 1] / z + cam.cy
    return np.column_stack([u, v])


def _splat_pixels(pts: np.ndarray, z: np.ndarray, cam: CameraIntrinsics):
    """``(u, v, inside)``: the pixel each point at depth ``z > 0`` splats to,
    and whether it lies in the image (``render_depth``, ``visible_mask``)."""
    u = np.rint(cam.fx * pts[:, 0] / z + cam.cx).astype(np.int64)
    v = np.rint(cam.fy * pts[:, 1] / z + cam.cy).astype(np.int64)
    return u, v, (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)


def render_depth(points: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Splat points into a per-pixel min-depth buffer (1 px splats).

    Returns an (height, width) float array in mm; 0 marks pixels with no data.
    Points behind the camera or outside the image are dropped.

    The splat goes through the flat index ``v * width + u`` into a 1-D buffer,
    which is numpy's fast path for ``np.minimum.at``; the minimum per pixel
    does not depend on the order the points arrive in. The points are copied
    only when some lie behind the camera.
    """
    depth = np.full(cam.height * cam.width, np.inf)
    pts = np.asarray(points, dtype=np.float64)
    if len(pts):
        z = pts[:, 2]
        front = z > 0
        if not front.all():
            pts, z = pts[front], z[front]
        u, v, inside = _splat_pixels(pts, z, cam)
        np.minimum.at(depth, v[inside] * cam.width + u[inside], z[inside])
    depth[np.isinf(depth)] = 0.0
    return depth.reshape(cam.height, cam.width)


def _box_reduce(image: np.ndarray, size: int, op: np.ufunc) -> np.ndarray:
    """Reduce each pixel's centred ``size`` x ``size`` window with ``op``,
    reading only pixels inside the image: shifted slices down the columns,
    then along the rows."""
    if size < 1 or size % 2 == 0:
        raise ValueError("window size must be odd and positive")
    out = np.array(image)
    for view in (out, out.T):
        src = view.copy(order="K")   # same memory layout as ``view``: slices stride alike
        for s in range(1, size // 2 + 1):
            op(view[s:], src[:-s], out=view[s:])
            op(view[:-s], src[s:], out=view[:-s])
    return out


def box_max(image: np.ndarray, size: int) -> np.ndarray:
    """Maximum over each pixel's centred ``size`` x ``size`` window (odd size),
    taken over the pixels of the window that lie inside the image.

    This equals ``scipy.ndimage.maximum_filter(image, size)``: in its default
    ``reflect`` mode every pixel past the border mirrors a pixel that an odd,
    centred window already holds.
    """
    return _box_reduce(image, size, np.maximum)


def box_min(image: np.ndarray, size: int) -> np.ndarray:
    """Minimum counterpart of ``box_max``."""
    return _box_reduce(image, size, np.minimum)


def erode_cross(mask: np.ndarray) -> np.ndarray:
    """4-neighbour erosion with a zero border: a pixel stays set only when it
    and its four neighbours are set, so no pixel on the image border does
    (``scipy.ndimage.binary_erosion`` with its default cross and
    ``border_value=0``)."""
    mask = np.asarray(mask, dtype=bool)
    out = np.zeros_like(mask)
    inner = out[1:-1, 1:-1]
    np.logical_and(mask[1:-1, 1:-1], mask[:-2, 1:-1], out=inner)
    inner &= mask[2:, 1:-1]
    inner &= mask[1:-1, :-2]
    inner &= mask[1:-1, 2:]
    return out


def pixel_window(mask: np.ndarray, margin: int) -> tuple[slice, slice] | None:
    """Bounding box of the set pixels of ``mask`` grown by ``margin`` px and
    clipped to the image, as (row, column) slices; None when no pixel is set."""
    rows = np.flatnonzero(mask.any(axis=1))
    if len(rows) == 0:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    height, width = mask.shape
    return (slice(max(rows[0] - margin, 0), min(rows[-1] + 1 + margin, height)),
            slice(max(cols[0] - margin, 0), min(cols[-1] + 1 + margin, width)))


def visible_mask(points: np.ndarray, depth: np.ndarray, cam: CameraIntrinsics,
                 tolerance: float) -> np.ndarray:
    """Boolean mask of points whose splat pixel they themselves front (z-buffer test)."""
    pts = np.asarray(points, dtype=np.float64)
    mask = np.zeros(len(pts), dtype=bool)
    z = pts[:, 2]
    front = z > 0
    if not front.any():
        return mask
    u, v, inside = _splat_pixels(pts[front], z[front], cam)
    vis = np.zeros(inside.shape, dtype=bool)
    vis[inside] = z[front][inside] <= depth[v[inside], u[inside]] + tolerance
    mask[front] = vis
    return mask
