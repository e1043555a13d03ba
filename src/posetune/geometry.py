"""Point-cloud and rigid-transform primitives. All distances are millimeters."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

ROTATION_TOL = 1e-9
NORMAL_TOL = 1e-6
MAX_KEYPOINTS = 100


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Pose:
    """Rigid transform: ``p -> rotation @ p + translation`` (translation in mm)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _freeze(np.asarray(self.rotation).reshape(3, 3)))
        object.__setattr__(self, "translation", _freeze(np.asarray(self.translation).reshape(3)))
        err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        if err > ROTATION_TOL:
            raise ValueError(f"rotation is not orthonormal (max deviation {err:.3e})")
        det = np.linalg.det(self.rotation)
        if abs(det - 1.0) > ROTATION_TOL:
            raise ValueError(f"rotation determinant {det} != +1")

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an (N, 3) array of points."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def compose(self, other: "Pose") -> "Pose":
        """Return the pose equivalent to applying ``other`` first, then ``self``."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rt @ self.translation)

    def to_dict(self) -> dict:
        return {"rotation": self.rotation.reshape(-1).tolist(),
                "translation": self.translation.tolist()}

    @staticmethod
    def from_dict(data: dict) -> "Pose":
        return Pose(np.array(data["rotation"], dtype=np.float64).reshape(3, 3),
                    np.array(data["translation"], dtype=np.float64))


def rotation_about_axis(axis: np.ndarray, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation matrix about ``axis`` (need not be unit length)."""
    axis = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        return np.eye(3)
    x, y, z = axis / norm
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle_rad) * k + (1.0 - np.cos(angle_rad)) * (k @ k)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix (via normalized quaternion)."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@dataclass(frozen=True)
class PointCloud:
    """Positions with a unit normal and an RGB colour in [0, 1] per point."""

    points: np.ndarray
    normals: np.ndarray
    colors: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        nrm = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
        col = np.asarray(self.colors, dtype=np.float64).reshape(-1, 3)
        n = len(pts)
        for name, channel in (("normals", nrm), ("colors", col)):
            if len(channel) != n:
                raise ValueError(f"{name} has {len(channel)} rows, expected {n}")
        if n and np.abs(np.linalg.norm(nrm, axis=1) - 1.0).max() > NORMAL_TOL:
            raise ValueError("normals are not unit length")
        if n and (col.min() < 0.0 or col.max() > 1.0):
            raise ValueError("colors outside [0, 1]")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "normals", _freeze(nrm))
        object.__setattr__(self, "colors", _freeze(col))

    def __len__(self) -> int:
        return len(self.points)

    def save(self, directory: str | Path) -> None:
        """Write each channel as ``<channel>.npy``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for f in fields(self):
            np.save(directory / f"{f.name}.npy", getattr(self, f.name))

    @staticmethod
    def load(directory: str | Path) -> "PointCloud":
        """Read the channels ``save`` wrote; a missing file raises
        ``FileNotFoundError``, pickled arrays, NaN and Inf are refused."""
        directory = Path(directory)
        arrays = {}
        for f in fields(PointCloud):
            path = directory / f"{f.name}.npy"
            arr = np.asarray(np.load(path, allow_pickle=False), dtype=np.float64)
            if arr.size and not np.isfinite(arr).all():
                raise ValueError(f"{path.name} contains NaN or Inf")
            arrays[f.name] = arr
        return PointCloud(**arrays)


@dataclass(frozen=True)
class ObjectModel:
    """Object reference cloud with its symmetry set.

    ``symmetry`` holds the object's discrete symmetry transforms (identity
    excluded); empty means no symmetry. The bounding-box ``diagonal`` and the
    farthest-point ``keypoints`` (at most ``MAX_KEYPOINTS``) follow from the cloud.
    """

    object_id: str
    cloud: PointCloud
    symmetry: tuple[Pose, ...] = ()
    diagonal: float = field(init=False)
    keypoints: np.ndarray = field(init=False)

    def __post_init__(self):
        diagonal = bbox_diagonal(self.cloud)
        if diagonal <= 0:
            raise ValueError("diagonal must be positive")
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "keypoints",
                           _freeze(farthest_point_sample(self.cloud.points, MAX_KEYPOINTS)))
        object.__setattr__(self, "symmetry", tuple(self.symmetry))

    @property
    def is_symmetric(self) -> bool:
        return len(self.symmetry) > 0


def _kept_on_model(model: ObjectModel, key: str, compute):
    """``compute(model)``, computed once and kept as an attribute of the model
    object, so it is freed with the model."""
    if key not in model.__dict__:
        object.__setattr__(model, key, compute(model))
    return model.__dict__[key]


def farthest_point_sample(points: np.ndarray, count: int) -> np.ndarray:
    """Greedy farthest-point subset of at most ``count`` points (start: point 0)."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) <= count:
        return pts.copy()
    chosen = [0]
    dist = np.linalg.norm(pts - pts[0], axis=1)
    for _ in range(count - 1):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(pts - pts[nxt], axis=1))
    return pts[chosen]


def transform_cloud(cloud: PointCloud, pose: Pose) -> PointCloud:
    """Apply a rigid transform: rotate+translate points, rotate normals."""
    return PointCloud(pose.apply(cloud.points), cloud.normals @ pose.rotation.T, cloud.colors)


def voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """One point per occupied voxel, each channel averaged over the voxel.

    Voxel keys are ``floor(coordinate / voxel)`` per axis, shifted to start at
    zero and packed into one mixed-radix int64 with x most significant, so a
    1-D ``np.unique`` gives the voxels in lexicographic (x, y, z) order.
    The point is the centroid. The mean normal is renormalized; a voxel whose
    normals cancel to zero takes the normal of its first point. The mean
    colour stays in range by convexity.
    """
    if voxel <= 0:
        raise ValueError("voxel size must be positive")
    if len(cloud) == 0:
        return cloud
    keys = np.floor(cloud.points / voxel).astype(np.int64)
    keys -= keys.min(axis=0)
    spans = keys.max(axis=0) + 1
    if float(spans[0]) * float(spans[1]) * float(spans[2]) < 2.0 ** 62:
        packed = (keys[:, 0] * spans[1] + keys[:, 1]) * spans[2] + keys[:, 2]
        _, inverse, counts = np.unique(packed, return_inverse=True, return_counts=True)
    else:  # the packed key would overflow int64
        _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    k = len(counts)

    inverse = inverse.reshape(-1)  # numpy 2.0.0 returns it 2-D for axis=0

    def bucket_mean(values: np.ndarray) -> np.ndarray:
        # bincount adds each voxel's values in point order, as np.add.at does
        acc = np.column_stack([np.bincount(inverse, weights=column, minlength=k)
                               for column in values.T])
        return acc / counts[:, None]

    normals = bucket_mean(cloud.normals)
    lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    cancelled = lengths[:, 0] == 0
    if cancelled.any():
        first = np.full(k, len(cloud))
        np.minimum.at(first, inverse, np.arange(len(cloud)))
        normals[cancelled] = cloud.normals[first[cancelled]]
        lengths[cancelled] = 1.0
    normals /= lengths
    return PointCloud(bucket_mean(cloud.points), normals, bucket_mean(cloud.colors))


def bbox_diagonal(cloud: PointCloud) -> float:
    """Axis-aligned bounding-box diagonal length."""
    if len(cloud) == 0:
        raise ValueError("empty cloud")
    extent = cloud.points.max(axis=0) - cloud.points.min(axis=0)
    return float(np.linalg.norm(extent))
