"""Pose-error scores and correctness decisions.

ADD/ADD-I drive the classic per-object correctness test; VSD, MSSD and MSPD
feed the multi-threshold average recall used as the optimization objective.
"""

from __future__ import annotations

import io
import csv
from dataclasses import astuple, dataclass, fields

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .camera import CameraIntrinsics, project_points, render_depth
from .geometry import ObjectModel, Pose

# Correctness threshold fractions shared by the recall ladder, 5%..50%.
LADDER_FRACTIONS = tuple(round(0.05 * i, 2) for i in range(1, 11))
# MSPD pixel thresholds before the image-width rescale.
MSPD_BASE_THRESHOLDS = tuple(5.0 * i for i in range(1, 11))
MSPD_REFERENCE_WIDTH = 640.0
# Depth slack when deciding whether a rendered model pixel is visible.
VSD_VISIBILITY_DELTA = 15.0
# Default misalignment tolerance for the headline VSD number, as a fraction
# of the object diagonal.
VSD_TAU_FRACTION = 0.1
ADD_CORRECT_FRACTION = 0.1


@dataclass(frozen=True)
class MetricScore:
    """All per-estimate scores for one (object, scene) evaluation."""

    add: float
    add_i: float
    vsd: float
    mssd: float
    mspd: float
    correct_add: bool
    bop_recall_contribution: float

    def __post_init__(self):
        if self.add_i > self.add + 1e-9:
            raise ValueError("add_i exceeds add")
        for name in ("add", "add_i", "mssd", "mspd"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} is negative")
        for name in ("vsd", "bop_recall_contribution"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} outside [0, 1]")


def _sym_poses(model: ObjectModel) -> list[Pose]:
    return [Pose.identity(), *model.symmetry]


def add_score(model: ObjectModel, gt: Pose, est: Pose) -> float:
    """Mean distance between corresponding model points under the two poses."""
    if len(model.cloud) == 0:
        raise ValueError("empty model")
    pts = model.cloud.points
    return float(np.linalg.norm(gt.apply(pts) - est.apply(pts), axis=1).mean())


def add_i_score(model: ObjectModel, gt: Pose, est: Pose) -> float:
    """Mean nearest-point distance from the gt-posed cloud to the est-posed cloud."""
    if len(model.cloud) == 0:
        raise ValueError("empty model")
    pts = model.cloud.points
    tree = cKDTree(est.apply(pts))
    dist, _ = tree.query(gt.apply(pts))
    return float(dist.mean())


def add_correct(model: ObjectModel, gt: Pose, est: Pose, symmetric: bool) -> bool:
    """ADD (or ADD-I for symmetric objects) below 10% of the model diagonal."""
    score = add_i_score(model, gt, est) if symmetric else add_score(model, gt, est)
    return score < ADD_CORRECT_FRACTION * model.diagonal


def mssd_score(model: ObjectModel, gt: Pose, est: Pose) -> float:
    """Max surface distance, minimized over the object's symmetry transforms."""
    if len(model.cloud) == 0:
        raise ValueError("empty model")
    pts = model.cloud.points
    gt_pts = gt.apply(pts)
    best = np.inf
    for sym in _sym_poses(model):
        est_pts = est.apply(sym.apply(pts))
        best = min(best, float(np.linalg.norm(gt_pts - est_pts, axis=1).max()))
    return best


def mspd_score(model: ObjectModel, gt: Pose, est: Pose, cam: CameraIntrinsics) -> float:
    """Max projected pixel distance, minimized over symmetry transforms."""
    if len(model.cloud) == 0:
        raise ValueError("empty model")
    pts = model.cloud.points
    gt_px = project_points(gt.apply(pts), cam)
    best = np.inf
    for sym in _sym_poses(model):
        est_px = project_points(est.apply(sym.apply(pts)), cam)
        best = min(best, float(np.linalg.norm(gt_px - est_px, axis=1).max()))
    return best


def _close_depth(depth: np.ndarray) -> np.ndarray:
    """Fill splat pinholes: min-filter then max-filter on the depth buffer."""
    filled = ndimage.maximum_filter(
        ndimage.minimum_filter(np.where(depth > 0, depth, np.inf), size=3), size=3)
    return np.where(np.isfinite(filled), filled, 0.0)


def _vsd_errors(model: ObjectModel, gt: Pose, est: Pose, cam: CameraIntrinsics,
                scene_depth: np.ndarray, taus: list[float]) -> list[float]:
    """VSD error for each tolerance in ``taus`` with one pair of renders."""
    d_gt = _close_depth(render_depth(gt.apply(model.cloud.points), cam))
    d_est = _close_depth(render_depth(est.apply(model.cloud.points), cam))
    free = scene_depth == 0
    # A rendered pixel counts as visible where the scene holds no closer surface;
    # missing scene depth counts as visible.
    vis_gt = (d_gt > 0) & (free | (d_gt <= scene_depth + VSD_VISIBILITY_DELTA))
    vis_est = (d_est > 0) & (free | (d_est <= scene_depth + VSD_VISIBILITY_DELTA))
    union = vis_gt | vis_est
    count = int(union.sum())
    if count == 0:
        return [1.0] * len(taus)
    both = vis_gt & vis_est
    single = int(union.sum() - both.sum())
    diffs = np.abs(d_gt[both] - d_est[both])
    return [float((single + int((diffs > tau).sum())) / count) for tau in taus]


def vsd_score(model: ObjectModel, gt: Pose, est: Pose, cam: CameraIntrinsics,
              scene_depth: np.ndarray, tau: float) -> float:
    """Fraction of visible-pixel disagreement beyond depth tolerance ``tau`` (mm)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if scene_depth.shape != (cam.height, cam.width):
        raise ValueError("depth image does not match camera")
    return _vsd_errors(model, gt, est, cam, scene_depth, [tau])[0]


def recall_contribution(model: ObjectModel, gt: Pose, est: Pose,
                        cam: CameraIntrinsics, scene_depth: np.ndarray) -> float:
    """Per-estimate recall: VSD/MSSD/MSPD correctness averaged over the ladder."""
    mssd = mssd_score(model, gt, est)
    mspd = mspd_score(model, gt, est, cam)
    taus = [f * model.diagonal for f in LADDER_FRACTIONS]
    vsd_errs = _vsd_errors(model, gt, est, cam, scene_depth, taus)
    vsd_hits = np.mean([err < f for err, f in zip(vsd_errs, LADDER_FRACTIONS)])
    mssd_hits = np.mean([mssd < f * model.diagonal for f in LADDER_FRACTIONS])
    px_scale = cam.width / MSPD_REFERENCE_WIDTH
    mspd_hits = np.mean([mspd < t * px_scale for t in MSPD_BASE_THRESHOLDS])
    return float((vsd_hits + mssd_hits + mspd_hits) / 3.0)


def evaluate_pose(model: ObjectModel, gt: Pose, est: Pose, cam: CameraIntrinsics,
                  scene_depth: np.ndarray) -> MetricScore:
    """Compute every score for one estimate against its ground truth."""
    add = add_score(model, gt, est)
    add_i = add_i_score(model, gt, est)
    return MetricScore(
        add=add,
        add_i=add_i,
        vsd=vsd_score(model, gt, est, cam, scene_depth,
                      VSD_TAU_FRACTION * model.diagonal),
        mssd=mssd_score(model, gt, est),
        mspd=mspd_score(model, gt, est, cam),
        correct_add=add_correct(model, gt, est, model.is_symmetric),
        bop_recall_contribution=recall_contribution(model, gt, est, cam, scene_depth),
    )


def scores_to_csv(records: list[tuple[str, str, MetricScore]]) -> str:
    """Serialize (object_id, scene_id, score) records as CSV text.

    Every score but the BOP recall contribution gets a column, in field order.
    """
    columns = [f.name for f in fields(MetricScore)][:-1]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["object_id", "scene_id", *columns])
    for object_id, scene_id, s in records:
        writer.writerow([object_id, scene_id,
                         *(int(v) if isinstance(v, (bool, np.bool_)) else f"{v:.6f}"
                           for v in astuple(s)[:len(columns)])])
    return buf.getvalue()
