"""Built-in synthetic object models with analytic normals and symmetries."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .geometry import ObjectModel, PointCloud, Pose, rotation_about_axis

# Dense enough that splat renders stay solid at desk-scale depths.
SURFACE_SPACING = 1.4  # mm between sampled surface points
# The cylinder's discrete symmetry order: its symmetry set holds the rotations
# about its axis by k/12 of a turn, k = 1..11.
CYLINDER_SYMMETRY_STEPS = 12


def _grid(a: float, b: float, spacing: float) -> np.ndarray:
    na = max(2, int(round(a / spacing)) + 1)
    nb = max(2, int(round(b / spacing)) + 1)
    u, v = np.meshgrid(np.linspace(-a / 2, a / 2, na), np.linspace(-b / 2, b / 2, nb))
    return np.column_stack([u.ravel(), v.ravel()])


def _box_surface(size, spacing: float = SURFACE_SPACING) -> tuple[np.ndarray, np.ndarray]:
    sx, sy, sz = size
    pts, nrm = [], []
    for axis, (da, db) in enumerate([(sy, sz), (sx, sz), (sx, sy)]):
        others = [a for a in range(3) if a != axis]
        uv = _grid(da, db, spacing)
        for sign in (-1.0, 1.0):
            face = np.zeros((len(uv), 3))
            face[:, axis] = sign * size[axis] / 2
            face[:, others[0]] = uv[:, 0]
            face[:, others[1]] = uv[:, 1]
            n = np.zeros((len(uv), 3))
            n[:, axis] = sign
            pts.append(face)
            nrm.append(n)
    return np.vstack(pts), np.vstack(nrm)


def _uniform_model(object_id: str, pts: np.ndarray, nrm: np.ndarray, color,
                   symmetry: tuple[Pose, ...] = ()) -> ObjectModel:
    """The model whose every point has the one colour ``color``."""
    colors = np.tile(np.asarray(color, dtype=np.float64), (len(pts), 1))
    return ObjectModel(object_id, PointCloud(pts, nrm, colors), symmetry)


def make_box(object_id: str, size, color) -> ObjectModel:
    """Axis-aligned box surface centered at the origin."""
    return _uniform_model(object_id, *_box_surface(np.asarray(size, dtype=np.float64)), color)


def make_cylinder(object_id: str, radius: float, height: float, color) -> ObjectModel:
    """Upright cylinder with discrete rotational symmetry about its axis."""
    n_around = max(8, int(round(2 * np.pi * radius / SURFACE_SPACING)))
    n_along = max(2, int(round(height / SURFACE_SPACING)) + 1)
    theta = np.linspace(0, 2 * np.pi, n_around, endpoint=False)
    z = np.linspace(-height / 2, height / 2, n_along)
    tt, zz = np.meshgrid(theta, z)
    side = np.column_stack([radius * np.cos(tt).ravel(), radius * np.sin(tt).ravel(),
                            zz.ravel()])
    side_n = np.column_stack([np.cos(tt).ravel(), np.sin(tt).ravel(),
                              np.zeros(tt.size)])
    caps, caps_n = [], []
    for sign in (-1.0, 1.0):
        disc = _grid(2 * radius, 2 * radius, SURFACE_SPACING)
        disc = disc[np.linalg.norm(disc, axis=1) <= radius]
        cap = np.column_stack([disc, np.full(len(disc), sign * height / 2)])
        n = np.tile([0.0, 0.0, sign], (len(disc), 1))
        caps.append(cap)
        caps_n.append(n)
    symmetry = tuple(
        Pose(rotation_about_axis([0, 0, 1], 2 * np.pi * k / CYLINDER_SYMMETRY_STEPS),
             np.zeros(3))
        for k in range(1, CYLINDER_SYMMETRY_STEPS))
    return _uniform_model(object_id, np.vstack([side, *caps]), np.vstack([side_n, *caps_n]),
                          color, symmetry)


def make_lshape(object_id: str, size, color) -> ObjectModel:
    """Two joined boxes forming an asymmetric L profile."""
    sx, sy, sz = np.asarray(size, dtype=np.float64)
    a_pts, a_nrm = _box_surface(np.array([sx, sy, sz / 2]))
    b_pts, b_nrm = _box_surface(np.array([sx / 2, sy, sz / 2]))
    a_pts = a_pts + [0.0, 0.0, -sz / 4]
    b_pts = b_pts + [-sx / 4, 0.0, sz / 4]
    return _uniform_model(object_id, np.vstack([a_pts, b_pts]), np.vstack([a_nrm, b_nrm]),
                          color)


# Each builtin shape's builder and the defaults of the keys it reads besides
# "shape", "id" and "color". A spec with "path" names a saved object
# directory and holds nothing else.
SHAPES = {
    "box": (make_box, {"size": [40, 55, 75]}),
    "cylinder": (make_cylinder, {"radius": 25.0, "height": 80.0}),
    "lshape": (make_lshape, {"size": [50, 40, 80]}),
}
DEFAULT_COLOR = [0.7, 0.3, 0.3]


def _checked_id(object_id, owner: str) -> str:
    """``object_id``, unless it is not a non-empty string naming one path
    component: ``generate`` writes each object under ``objects/<id>``."""
    if not isinstance(object_id, str) or object_id in ("", ".", "..") or "/" in object_id:
        raise ValueError(f"{owner} has the id {object_id!r}, which does not name one "
                         f"path component")
    return object_id


def check_spec_keys(spec: dict) -> None:
    """Raise ``ValueError`` unless ``make_object`` can build ``spec``: a
    non-empty ``path`` string alone, or a known ``shape`` with an ``id`` (see
    ``_checked_id``) and only the keys that shape reads. The message names
    the missing, bad or unknown key."""
    if not isinstance(spec, dict):
        raise ValueError(f"object spec {spec!r} is not a mapping")
    shape = spec.get("shape")
    if "path" in spec:
        if not isinstance(spec["path"], str) or not spec["path"]:
            raise ValueError(f"object spec {spec!r} has a 'path' that is not a non-empty string")
        allowed = {"path"}
    elif not isinstance(shape, str) or shape not in SHAPES:
        raise ValueError(f"object spec {spec!r} has no 'path' and an unknown shape "
                         f"{shape!r}; known shapes are {sorted(SHAPES)}")
    elif "id" not in spec:
        raise ValueError(f"object spec {spec!r} has no 'id'")
    else:
        _checked_id(spec["id"], f"object spec {spec!r}")
        allowed = {"shape", "id", "color", *SHAPES[shape][1]}
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ValueError(f"object spec {spec!r} has unknown keys {unknown}")


def make_object(spec: dict) -> ObjectModel:
    """Build a model from a config entry: builtin shape or saved object directory."""
    check_spec_keys(spec)
    if "path" in spec:
        return load_object(spec["path"])
    build, defaults = SHAPES[spec["shape"]]
    options = {key: spec.get(key, default) for key, default in defaults.items()}
    return build(spec["id"], color=spec.get("color", DEFAULT_COLOR), **options)


def save_object(model: ObjectModel, directory: str | Path) -> None:
    """Write the cloud's ``.npy`` channels and model.json (id, symmetry) into ``directory``."""
    directory = Path(directory)
    model.cloud.save(directory)
    data = {"object_id": model.object_id,
            "symmetry": [p.to_dict() for p in model.symmetry]}
    (directory / "model.json").write_text(json.dumps(data, sort_keys=True))


def load_object(directory: str | Path) -> ObjectModel:
    directory = Path(directory)
    data = json.loads((directory / "model.json").read_text())
    return ObjectModel(_checked_id(data["object_id"], str(directory / "model.json")),
                       PointCloud.load(directory),
                       tuple(Pose.from_dict(p) for p in data["symmetry"]))
