"""Pinhole camera model and point-splat depth rendering."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


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
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point outside image")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "CameraIntrinsics":
        return CameraIntrinsics(data["fx"], data["fy"], data["cx"], data["cy"],
                                int(data["width"]), int(data["height"]))


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


def render_depth(points: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Splat points into a per-pixel min-depth buffer (1 px splats).

    Returns an (height, width) float array in mm; 0 marks pixels with no data.
    Points behind the camera or outside the image are dropped.
    """
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


def visible_mask(points: np.ndarray, depth: np.ndarray, cam: CameraIntrinsics,
                 tolerance: float) -> np.ndarray:
    """Boolean mask of points whose splat pixel they themselves front (z-buffer test)."""
    pts = np.asarray(points, dtype=np.float64)
    mask = np.zeros(len(pts), dtype=bool)
    z = pts[:, 2]
    front = z > 0
    if not front.any():
        return mask
    u = np.rint(cam.fx * pts[front, 0] / z[front] + cam.cx).astype(np.int64)
    v = np.rint(cam.fy * pts[front, 1] / z[front] + cam.cy).astype(np.int64)
    inside = (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)
    vis = np.zeros(inside.shape, dtype=bool)
    vis[inside] = z[front][inside] <= depth[v[inside], u[inside]] + tolerance
    mask[front] = vis
    return mask
