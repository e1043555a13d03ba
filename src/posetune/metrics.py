"""Pose-error scores and correctness decisions.

ADD/ADD-I drive the classic per-object correctness test; VSD, MSSD and MSPD
feed the multi-threshold average recall used as the optimization objective.
"""

from __future__ import annotations

import io
import csv
from dataclasses import astuple, dataclass, fields

import numpy as np
from scipy.spatial import cKDTree

from .camera import (CameraIntrinsics, box_max, box_min, pixel_window, project_points,
                     render_depth)
from .geometry import ObjectModel, Pose, _kept_on_model

# Correctness threshold fractions shared by the recall ladder, 5%..50%.
LADDER_FRACTIONS = tuple(round(0.05 * i, 2) for i in range(1, 11))
# MSPD pixel thresholds before the image-width rescale.
MSPD_BASE_THRESHOLDS = tuple(5.0 * i for i in range(1, 11))
MSPD_REFERENCE_WIDTH = 640.0
# Depth slack when deciding whether a rendered model pixel is visible.
VSD_VISIBILITY_DELTA = 15.0
# Pixels the VSD closing looks at beyond the renders' bounding box: the 3x3
# min filter reaches 1 px past a footprint, and the 3x3 max filter after it
# must also see the empty pixels 1 px past that. Both filters read only the
# pixels inside the window, and every pixel past a window edge that is not
# the image border is empty, so the closing matches the full frame's.
CLOSING_MARGIN = 2
# Every BOUND_STRIDE-th model point bounds a symmetry copy's MSSD and MSPD
# from below, so a copy whose bound cannot beat the best full value so far
# is never posed in full.
BOUND_STRIDE = 64
# A bound must beat the best value by more than PRUNE_SLACK * (bound + scale)
# before its copy is skipped. The bound's rows are posed by the composed
# pose, so they may round differently from the same rows of the full copy:
# by a few 1e-16 * M mm, M the largest coordinate magnitude, and in pixels
# by a few 1e-16 * f * rho * (1 + rho) with rho = M / (smallest z). ``scale``
# is M for MSSD, and f * (1 + rho)**2 plus the image size for MSPD.
PRUNE_SLACK = 1e-9
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
    return _PosedCopies(model, gt, est).add()


def add_i_score(model: ObjectModel, gt: Pose, est: Pose) -> float:
    """Mean nearest-point distance from the gt-posed cloud to the est-posed cloud."""
    return _PosedCopies(model, gt, est).add_i()


def add_correct(model: ObjectModel, gt: Pose, est: Pose) -> bool:
    """ADD (or ADD-I for symmetric objects) below 10% of the model diagonal."""
    posed = _PosedCopies(model, gt, est)
    return _add_correct(model, posed.add, posed.add_i)


def _add_correct(model: ObjectModel, add, add_i) -> bool:
    """``add_correct`` from the scores ``add()`` and ``add_i()``; only the one read is called."""
    return (add_i() if model.is_symmetric else add()) < ADD_CORRECT_FRACTION * model.diagonal


def _bound_frame(model: ObjectModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Every ``BOUND_STRIDE``-th model point, the symmetry rotations and
    translations stacked (identity first), and the model's reach
    max |p| + max |t_sym|, computed once per model (see ``_kept_on_model``).

    No point of any symmetry copy lies farther than the reach from the
    estimate's translation.
    """
    def compute(model: ObjectModel):
        pts = model.cloud.points
        syms = _sym_poses(model)
        sym_t = np.array([sym.translation for sym in syms])
        reach = (float(np.linalg.norm(pts, axis=1).max())
                 + float(np.linalg.norm(sym_t, axis=1).max()))
        return (np.ascontiguousarray(pts[::BOUND_STRIDE]),
                np.array([sym.rotation for sym in syms]), sym_t, reach)
    return _kept_on_model(model, "_bound_frame", compute)


class _PosedCopies:
    """One estimate's scores against its ground truth, sharing the posed model.

    The model is posed once by ``gt``. Each symmetry copy is posed by ``est``
    in full (``est.apply(sym.apply(pts))``, not the composed pose, which
    rounds differently) on first use, once; the identity copy is copy 0. MSSD
    and MSPD are the exact minima over the copies. Each visits the copies in
    order of a lower bound, the max over every ``BOUND_STRIDE``-th point, and
    stops at the first bound that cannot beat the best full value so far.
    The bound rows of every copy are posed once, on first use.
    """

    def __init__(self, model: ObjectModel, gt: Pose, est: Pose):
        if len(model.cloud) == 0:
            raise ValueError("empty model")
        self.model = model
        self.pts = model.cloud.points
        self.est = est
        self.syms = _sym_poses(model)
        self.gt_pts = gt.apply(self.pts)
        self._copies: dict[int, np.ndarray] = {}
        self._sub: np.ndarray | None = None
        self._frame = _bound_frame(model)
        reach = self._frame[3]
        self.scale = reach + float(np.linalg.norm(est.translation))
        # Smallest z any point of any copy can take.
        self.z_min = float(est.translation[2]) - reach

    def copy(self, i: int) -> np.ndarray:
        if i not in self._copies:
            self._copies[i] = self.est.apply(self.syms[i].apply(self.pts))
        return self._copies[i]

    def add(self) -> float:
        return float(np.linalg.norm(self.gt_pts - self.copy(0), axis=1).mean())

    def add_i(self) -> float:
        return float(cKDTree(self.copy(0)).query(self.gt_pts)[0].mean())

    def sub_copies(self) -> np.ndarray:
        """The bound rows of every copy, (copies, rows, 3), posed at once by
        the composed poses."""
        if self._sub is None:
            sub, sym_rot, sym_t, _ = self._frame
            rot = self.est.rotation @ sym_rot
            trans = sym_t @ self.est.rotation.T + self.est.translation
            self._sub = sub @ rot.transpose(0, 2, 1) + trans[:, None, :]
        return self._sub

    def _min(self, bounds, exact, scale: float) -> float:
        """``min(exact(i))`` over the copies; ``bounds()`` gives their lower bounds."""
        if len(self.syms) == 1:
            return exact(0)
        bounds = bounds()
        best = np.inf
        for i in np.argsort(bounds, kind="stable"):
            if bounds[i] - best > PRUNE_SLACK * (bounds[i] + scale):
                break
            best = min(best, exact(i))
        return best

    def mssd(self) -> float:
        """Max surface distance, minimized over the symmetry copies."""
        return self._min(
            lambda: np.linalg.norm(self.gt_pts[::BOUND_STRIDE] - self.sub_copies(),
                                   axis=2).max(axis=1),
            lambda i: float(np.linalg.norm(self.gt_pts - self.copy(i), axis=1).max()),
            self.scale)

    def mspd(self, cam: CameraIntrinsics) -> float:
        """Max projected pixel distance, minimized over the symmetry copies;
        infinite when a point of any copy lies at or behind the camera plane.

        Unless every copy lies safely in front of the camera, every copy is
        posed in full, checked, and scored.
        """
        safe = self.z_min > PRUNE_SLACK * self.scale
        if not safe and any(np.any(self.copy(i)[:, 2] <= 0) for i in range(len(self.syms))):
            return np.inf
        gt_px = project_points(self.gt_pts, cam)

        def exact(i: int) -> float:
            return float(np.linalg.norm(gt_px - project_points(self.copy(i), cam), axis=1).max())

        if not safe:
            return min(exact(i) for i in range(len(self.syms)))

        def bounds() -> np.ndarray:
            subs = self.sub_copies()
            px = project_points(subs.reshape(-1, 3), cam).reshape(*subs.shape[:2], 2)
            return np.linalg.norm(gt_px[::BOUND_STRIDE] - px, axis=2).max(axis=1)

        rho = self.scale / self.z_min
        return self._min(bounds, exact,
                         max(cam.fx, cam.fy) * (1.0 + rho) ** 2 + cam.width + cam.height)

    def vsd_errors(self, cam: CameraIntrinsics, scene_depth: np.ndarray) -> list[float]:
        """VSD errors of the identity copy at each ladder tolerance, then at
        ``VSD_TAU_FRACTION`` of the diagonal."""
        taus = [f * self.model.diagonal for f in (*LADDER_FRACTIONS, VSD_TAU_FRACTION)]
        return _vsd_errors(self.gt_pts, self.copy(0), cam, scene_depth, taus)


def mssd_score(model: ObjectModel, gt: Pose, est: Pose) -> float:
    """Max surface distance, minimized over the object's symmetry transforms."""
    return _PosedCopies(model, gt, est).mssd()


def mspd_score(model: ObjectModel, gt: Pose, est: Pose, cam: CameraIntrinsics) -> float:
    """Max projected pixel distance, minimized over symmetry transforms.

    Raises ValueError if a point of any symmetry copy lies at or behind the
    camera plane.
    """
    mspd = _PosedCopies(model, gt, est).mspd(cam)
    if np.isinf(mspd):
        raise ValueError("behind camera")
    return mspd


def _close_depth(depth: np.ndarray) -> np.ndarray:
    """Fill splat pinholes: 3x3 min filter then 3x3 max filter on the depth
    buffer, each over the window's pixels inside the buffer."""
    filled = box_max(box_min(np.where(depth > 0, depth, np.inf), 3), 3)
    return np.where(np.isfinite(filled), filled, 0.0)


def _vsd_errors(gt_pts: np.ndarray, est_pts: np.ndarray, cam: CameraIntrinsics,
                scene_depth: np.ndarray, taus: list[float]) -> list[float]:
    """VSD error for each tolerance in ``taus`` with one pair of renders.

    Both renders are full-frame. The closing and the visibility counts run on
    the union of the two footprints' bounding boxes grown by
    ``CLOSING_MARGIN``: outside it both closed depths are 0. The closing's
    filters read only pixels inside the window, and each window edge either
    lies on the image border or has only empty pixels beyond it, so they see
    what they would on the full frame.
    """
    if scene_depth.shape != (cam.height, cam.width):
        raise ValueError("depth image does not match camera")
    d_gt = render_depth(gt_pts, cam)
    d_est = render_depth(est_pts, cam)
    window = pixel_window((d_gt > 0) | (d_est > 0), CLOSING_MARGIN)
    if window is None:
        return [1.0] * len(taus)
    d_gt = _close_depth(d_gt[window])
    d_est = _close_depth(d_est[window])
    scene_depth = scene_depth[window]
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
    pts = model.cloud.points
    return _vsd_errors(gt.apply(pts), est.apply(pts), cam, scene_depth, [tau])[0]


def _ladder_recall(model: ObjectModel, cam: CameraIntrinsics, vsd_errs: list[float],
                   mssd: float, mspd: float) -> float:
    """VSD/MSSD/MSPD correctness averaged over the ladder, from scores already
    computed. ``vsd_errs`` starts with the errors at the ladder tolerances;
    any after them are not read."""
    vsd_hits = np.mean([err < f for err, f in zip(vsd_errs, LADDER_FRACTIONS)])
    mssd_hits = np.mean([mssd < f * model.diagonal for f in LADDER_FRACTIONS])
    px_scale = cam.width / MSPD_REFERENCE_WIDTH
    mspd_hits = np.mean([mspd < t * px_scale for t in MSPD_BASE_THRESHOLDS])
    return float((vsd_hits + mssd_hits + mspd_hits) / 3.0)


def recall_contribution(model: ObjectModel, gt: Pose, est: Pose,
                        cam: CameraIntrinsics, scene_depth: np.ndarray) -> float:
    """Per-estimate recall: VSD/MSSD/MSPD correctness averaged over the ladder.

    MSSD, MSPD and VSD (through the identity copy) read one ``_PosedCopies``,
    and each is computed once. An estimate that puts a model point at or
    behind the camera plane, in any symmetry copy, misses every MSPD
    threshold.
    """
    posed = _PosedCopies(model, gt, est)
    return _ladder_recall(model, cam, posed.vsd_errors(cam, scene_depth), posed.mssd(),
                          posed.mspd(cam))


def evaluate_pose(model: ObjectModel, gt: Pose, est: Pose, cam: CameraIntrinsics,
                  scene_depth: np.ndarray) -> MetricScore:
    """Compute every score for one estimate against its ground truth.

    Every score reads one ``_PosedCopies`` and is computed once; the ADD test
    and the BOP recall contribution are derived from the scores, by the rules
    of ``add_correct`` and ``recall_contribution``. As there, an estimate that
    puts a model point of any symmetry copy at or behind the camera plane gets
    an infinite MSPD.
    """
    posed = _PosedCopies(model, gt, est)
    add, add_i = posed.add(), posed.add_i()
    vsd_errs, mssd, mspd = posed.vsd_errors(cam, scene_depth), posed.mssd(), posed.mspd(cam)
    return MetricScore(add=add, add_i=add_i, vsd=vsd_errs[-1], mssd=mssd, mspd=mspd,
                       correct_add=_add_correct(model, lambda: add, lambda: add_i),
                       bop_recall_contribution=_ladder_recall(model, cam, vsd_errs, mssd, mspd))


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
