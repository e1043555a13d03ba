"""Full-channel point clouds for tests that care only about positions."""

import numpy as np

from posetune.geometry import PointCloud


def cloud_of(points, normals=None) -> PointCloud:
    """``points`` with their ``normals`` (default +z) and a mid-grey colour."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if normals is None:
        normals = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    return PointCloud(pts, normals, np.full((len(pts), 3), 0.5))
