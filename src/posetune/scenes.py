"""Synthetic scene generation and the six-channel domain randomization.

Scenes stand in for rendered training images: object clouds dropped into
clutter with exact ground-truth poses, a splat depth image, and a master seed
that makes every scene reproducible byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .camera import CameraIntrinsics, default_camera, render_depth, visible_mask
from .geometry import (ObjectModel, PointCloud, Pose, check_integer, check_number,
                       random_rotation, rotation_about_axis, transform_cloud)
from .objects import _box_surface, _grid
from .seeding import derive_rng

# The hidden-point pass runs on a 4x-downscaled visibility buffer so sparse
# occluders still cast solid shadows; the depth slack keeps oblique
# self-surfaces from eating themselves at that resolution.
OCCLUSION_TOLERANCE = 12.0
VISIBILITY_DOWNSCALE = 4

GROUND_PLANE_Z = 820.0
GROUND_SPACING = 5.0
CLUTTER_SPACING = 3.0
OCCLUDER_SPACING = 3.5
OBJECT_Z_RANGE = (430.0, 640.0)
OCCLUDER_Z_RANGE = (240.0, 330.0)


@dataclass(frozen=True)
class NoiseConfig:
    """Max noise levels for the six domain-randomization channels.

    xyz in mm, rotation in degrees, the rest are unitless fractions.
    """

    xyz_sigma: float
    normal_sigma: float
    rgb_sigma: float
    rgb_shift: float
    rotation_max: float
    flatten_frac: float

    def __post_init__(self):
        for f in fields(self):
            if check_number(f.name, getattr(self, f.name)) < 0:
                raise ValueError(f"{f.name} must be >= 0")

    def as_tuple(self) -> tuple[float, ...]:
        return astuple(self)

    def as_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_tuple(values) -> "NoiseConfig":
        return NoiseConfig(*[float(v) for v in values])

    @staticmethod
    def zero() -> "NoiseConfig":
        return NoiseConfig(*(0.0 for _ in fields(NoiseConfig)))


def default_noise_config() -> NoiseConfig:
    """Starting max levels for the six channels."""
    return NoiseConfig(xyz_sigma=1.0, normal_sigma=0.02, rgb_sigma=0.02,
                       rgb_shift=0.04, rotation_max=5.0, flatten_frac=0.02)


def default_jump_sizes() -> NoiseConfig:
    """Per-channel level increments: half of each starting level."""
    return NoiseConfig.from_tuple([v / 2 for v in default_noise_config().as_tuple()])


@dataclass(frozen=True)
class Scene:
    """One synthetic view: visible cloud, ground-truth poses, camera, and the
    cloud's read-only splat depth image."""

    cloud: PointCloud
    gt_poses: dict[str, Pose]
    cam: CameraIntrinsics
    seed: int
    depth: np.ndarray = field(init=False)

    def __post_init__(self):
        # stream_seed hashes str(seed): a seed of 1.0 or True would silently
        # give other streams than 1
        check_integer("seed", self.seed)
        depth = render_depth(self.cloud.points, self.cam)
        depth.setflags(write=False)
        object.__setattr__(self, "depth", depth)


def _frustum_halfwidth(cam: CameraIntrinsics, z: float) -> tuple[float, float]:
    return (z * (cam.width / 2) / cam.fx, z * (cam.height / 2) / cam.fy)


def _coarse_camera(cam: CameraIntrinsics) -> CameraIntrinsics:
    f = VISIBILITY_DOWNSCALE
    return CameraIntrinsics(cam.fx / f, cam.fy / f, cam.cx / f, cam.cy / f,
                            max(1, cam.width // f), max(1, cam.height // f))


def _plane_patch(rng, center, half_x, half_y, z, spacing, color) -> PointCloud:
    xy = _grid(2 * half_x, 2 * half_y, spacing)
    xy = xy + rng.uniform(-spacing / 4, spacing / 4, size=xy.shape) + center
    n = len(xy)
    pts = np.column_stack([xy, np.full(n, z)])
    normals = np.tile([0.0, 0.0, -1.0], (n, 1))
    colors = np.clip(color + rng.normal(0, 0.02, size=(n, 3)), 0, 1)
    return PointCloud(pts, normals, colors)


def _clutter_box(rng, cam, object_colors) -> PointCloud:
    size = rng.uniform(18.0, 42.0, size=3)
    pts, normals = _box_surface(size, spacing=CLUTTER_SPACING)
    rot = random_rotation(rng)
    z = rng.uniform(*OBJECT_Z_RANGE)
    hx, hy = _frustum_halfwidth(cam, z)
    center = np.array([rng.uniform(-0.7, 0.7) * hx, rng.uniform(-0.7, 0.7) * hy, z])
    # half the distractors mimic an object's color so candidate ranking
    # cannot rely on color alone
    if len(object_colors) and rng.uniform() < 0.5:
        color = object_colors[rng.integers(len(object_colors))] \
            + rng.normal(0, 0.03, size=3)
    else:
        color = rng.uniform(0.2, 0.8, size=3)
    colors = np.clip(color + rng.normal(0, 0.02, size=(len(pts), 3)), 0, 1)
    return PointCloud(pts @ rot.T + center, normals @ rot.T, colors)


def generate_scene(objects: list[ObjectModel], clutter_level: float,
                   occlusion_level: float, seed: int) -> Scene:
    """Place each object at a random in-frustum pose among optional clutter.

    ``clutter_level`` scales ground-plane and distractor density,
    ``occlusion_level`` the in-front blocking patch; both in [0, 1]. Points
    hidden behind other surfaces are removed by a z-buffer pass, and the
    depth image is splatted from what remains.
    """
    if not objects:
        raise ValueError("no objects")
    if not (0 <= clutter_level <= 1 and 0 <= occlusion_level <= 1):
        raise ValueError("levels must lie in [0, 1]")
    cam = default_camera()
    rng = derive_rng(seed, "scene")

    gt_poses: dict[str, Pose] = {}
    parts: list[PointCloud] = []
    placed: list[tuple[np.ndarray, float]] = []
    for model in objects:
        for _ in range(24):
            z = rng.uniform(*OBJECT_Z_RANGE)
            hx, hy = _frustum_halfwidth(cam, z)
            center = np.array([rng.uniform(-0.55, 0.55) * hx,
                               rng.uniform(-0.55, 0.55) * hy, z])
            min_sep = [0.55 * (model.diagonal + d) for _, d in placed]
            if all(np.linalg.norm(center - c) >= s for (c, _), s in zip(placed, min_sep)):
                break
        rot = random_rotation(rng)
        pose = Pose(rot, center)
        gt_poses[model.object_id] = pose
        parts.append(transform_cloud(model.cloud, pose))
        placed.append((center, model.diagonal))

    if clutter_level > 0:
        half = 130.0 + 260.0 * clutter_level
        parts.append(_plane_patch(rng, np.zeros(2), half, 0.75 * half,
                                  GROUND_PLANE_Z, GROUND_SPACING,
                                  np.array([0.55, 0.53, 0.5])))
        object_colors = [m.mean_color for m in objects]
        for _ in range(int(round(6 * clutter_level))):
            parts.append(_clutter_box(rng, cam, object_colors))

    if occlusion_level > 0:
        z = rng.uniform(*OCCLUDER_Z_RANGE)
        hx, hy = _frustum_halfwidth(cam, z)
        scale = 1.05 * np.sqrt(occlusion_level)
        center = rng.uniform(-1.0, 1.0, size=2) * (1.0 - occlusion_level) \
            * np.array([hx, hy])
        parts.append(_plane_patch(rng, center, scale * hx, scale * hy, z,
                                  OCCLUDER_SPACING, np.array([0.35, 0.3, 0.3])))

    points = np.vstack([p.points for p in parts])
    normals = np.vstack([p.normals for p in parts])
    colors = np.vstack([p.colors for p in parts])
    coarse = _coarse_camera(cam)
    keep = visible_mask(points, render_depth(points, coarse), coarse,
                        OCCLUSION_TOLERANCE)
    cloud = PointCloud(points[keep], normals[keep], colors[keep])
    return Scene(cloud, gt_poses, cam, seed)


def apply_domain_randomization(scene: Scene, cfg: NoiseConfig, seed: int) -> Scene:
    """Noise the scene per the six channels; labels stay exact.

    Each Gaussian channel's per-sample level is drawn as |N(0, max/2)|
    clipped to max. The whole-cloud rotation (about the cloud centroid) is
    composed into the ground-truth poses; flattening replaces the depth of a
    patch of ``flatten_frac`` of the points with that patch's median depth.
    The depth image is re-splatted from the noised cloud.
    """
    rng = derive_rng(scene.seed, seed, "dr")
    points = scene.cloud.points.copy()
    normals = scene.cloud.normals.copy()
    colors = scene.cloud.colors
    gt_poses = dict(scene.gt_poses)
    n = len(points)

    def sample_level(max_level: float) -> float:
        return min(abs(rng.normal(0.0, max_level / 2)), max_level)

    if cfg.xyz_sigma > 0 and n:
        points += rng.normal(size=(n, 3)) * sample_level(cfg.xyz_sigma)
    if cfg.normal_sigma > 0 and n:
        normals += rng.normal(size=(n, 3)) * sample_level(cfg.normal_sigma)
        lengths = np.linalg.norm(normals, axis=1, keepdims=True)
        lengths[lengths == 0] = 1.0
        normals /= lengths
    if cfg.rgb_sigma > 0 and n:
        colors = np.clip(colors + rng.normal(size=(n, 3)) * sample_level(cfg.rgb_sigma), 0, 1)
    if cfg.rgb_shift > 0 and n:
        colors = np.clip(colors + rng.normal(size=3) * sample_level(cfg.rgb_shift), 0, 1)
    if cfg.rotation_max > 0 and n:
        axis = rng.normal(size=3)
        angle = np.deg2rad(rng.normal(0.0, sample_level(cfg.rotation_max)))
        rot = rotation_about_axis(axis, angle)
        centroid = points.mean(axis=0)
        points = (points - centroid) @ rot.T + centroid
        normals = normals @ rot.T
        view_change = Pose(rot, centroid - rot @ centroid)
        gt_poses = {k: view_change.compose(p) for k, p in gt_poses.items()}
    if cfg.flatten_frac > 0 and n:
        k = min(n, max(1, int(round(cfg.flatten_frac * n))))
        center = points[rng.integers(n)]
        order = np.argsort(np.linalg.norm(points - center, axis=1), kind="stable")
        patch = order[:k]
        points[patch, 2] = np.median(points[patch, 2])

    return Scene(PointCloud(points, normals, colors), gt_poses, scene.cam, scene.seed)


def save_scene(scene: Scene, directory: str | Path) -> None:
    """Write the cloud's ``.npy`` channels and meta.json; the depth follows from the cloud."""
    directory = Path(directory)
    scene.cloud.save(directory)
    meta = {
        "seed": scene.seed,
        "camera": asdict(scene.cam),
        "gt_poses": {k: p.to_dict() for k, p in sorted(scene.gt_poses.items())},
    }
    (directory / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1))


def load_scene(directory: str | Path) -> Scene:
    """The scene ``save_scene`` wrote. The camera and the seed go to their
    constructors as stored, so a float width or seed raises ``ValueError``
    rather than being converted."""
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text())
    return Scene(
        PointCloud.load(directory),
        {k: Pose.from_dict(v) for k, v in meta["gt_poses"].items()},
        CameraIntrinsics(**meta["camera"]),
        meta["seed"],
    )
