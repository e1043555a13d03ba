"""Desk-scale pose-estimation pipeline with the tunable parameter surface.

The neural candidate classifier and voter of a full system are replaced by
deterministic geometric surrogates (density/color seed scoring; nearest
keypoint voting against a jittered ground truth) that keep the parameter
semantics intact: the vote threshold trades match count against purity, and
every distance threshold scales with the object diagonal.
"""

from __future__ import annotations

import time
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np
from scipy.spatial import cKDTree

from .camera import box_max, box_min, erode_cross, pixel_window, render_depth
from .geometry import (ObjectModel, PointCloud, Pose, _kept_on_model, bbox_diagonal,
                       rotation_about_axis, voxel_downsample)
from .scenes import Scene
from .seeding import derive_rng

# Reference diagonal for diagonal-relative distance scaling (mm).
DIAGONAL_REF = 100.0
# Vote-oracle jitter standing in for network prediction error.
VOTE_ROT_SIGMA_DEG = 1.2
VOTE_TRANS_SIGMA = 1.2
# Residual decay scale of vote confidence, as a fraction of the diagonal.
# Small enough that the vote threshold genuinely trades match count against
# purity: tight thresholds starve RANSAC once scenes get noisy.
VOTE_CONF_FRACTION = 0.08
# Color-similarity decay for candidate scoring.
COLOR_SIM_SCALE = 0.3
# Scene depth jump treated as a geometric edge for the contour check (mm).
DEPTH_EDGE_JUMP = 20.0
# Pixels the depth check looks at beyond the render's bounding box: the 3x3
# dilation of the footprint reaches 1 px past it. The erosion of that dilated
# mask reads 1 px further; that pixel lies outside the window, where the
# erosion's zero border stands in for the unset pixel of the full frame.
SILHOUETTE_MARGIN = 1


@dataclass(frozen=True)
class FixedParams:
    """Structural constants of the pipeline; not subject to optimization."""

    icp_resolutions: int = 3
    input_points: int = 2048
    min_points: int = 512
    min_matches: int = 100
    scene_voxel: float = 1.0
    icp_model_voxel: float = 5.0
    ransac_chunk: int = 50


FIXED = FixedParams()


@dataclass(frozen=True)
class ContinuousParams:
    """The seven real-valued pipeline parameters (distances in mm)."""

    vote_threshold: float    # keep votes above this fraction of the best confidence
    ransac_dist: float       # RANSAC inlier distance
    icp_dist: float          # finest ICP correspondence cut-off
    icp_scale: float         # coarse-to-fine cut-off multiplier per stage
    background_dist: float   # scene-closer-than-model margin counted as violation
    accept_dist: float       # depth agreement margin for projected model pixels
    cut_radius: float        # candidate extraction radius

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.vote_threshold > 1:
            raise ValueError("vote_threshold must be <= 1")

    def as_dict(self) -> dict:
        return asdict(self)

    def as_vector(self) -> np.ndarray:
        return np.array(astuple(self))

    @staticmethod
    def from_vector(values) -> "ContinuousParams":
        return ContinuousParams(*[float(v) for v in values])


@dataclass(frozen=True)
class DiscreteParams:
    """Integer parameters trading recall against runtime."""

    classified: int      # candidate clouds scored by the classifier
    estimated: int       # best-ranked clouds carried into pose estimation
    ransac_iters: int
    depth_checked: int   # hypotheses refined and depth-checked per cloud
    icp_iters: int       # ICP iterations per resolution stage

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.estimated > self.classified:
            raise ValueError("estimated exceeds classified")
        if self.depth_checked > self.ransac_iters:
            raise ValueError("depth_checked exceeds ransac_iters")

    def as_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "DiscreteParams":
        return DiscreteParams(**{f.name: int(data[f.name]) for f in fields(DiscreteParams)})


@dataclass(frozen=True)
class PoseHypothesis:
    pose: Pose
    inlier_count: int
    depth_score: float = 0.0
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.inlier_count < 0:
            raise ValueError("inlier_count must be >= 0")
        if not 0.0 <= self.depth_score <= 1.0:
            raise ValueError("depth_score outside [0, 1]")


class InsufficientMatches(Exception):
    """Raised when voting leaves fewer matches than the pipeline minimum."""


@dataclass(frozen=True)
class Matches:
    """Scene-point to model-keypoint correspondences with vote confidences."""

    scene_points: np.ndarray
    model_points: np.ndarray
    confidences: np.ndarray

    def __len__(self) -> int:
        return len(self.confidences)


@dataclass
class ScenePrep:
    """Model-independent scene preprocessing shared across objects."""

    cloud: PointCloud
    tree: cKDTree | None
    seed_indices: np.ndarray
    seed_density: np.ndarray
    depth_edges: np.ndarray   # ``_depth_edges(scene.depth)``, shared by every depth check


def prepare_scene(scene: Scene, cp: ContinuousParams, dp: DiscreteParams,
                  seed=0) -> ScenePrep:
    """Voxel-downsample the scene, score uniform interest seeds by density, and
    find the scene's depth edges once for all depth checks."""
    cloud = voxel_downsample(scene.cloud, FIXED.scene_voxel)
    edges = _depth_edges(scene.depth)
    n = len(cloud)
    if n == 0:
        return ScenePrep(cloud, None, np.empty(0, dtype=np.int64), np.empty(0), edges)
    tree = cKDTree(cloud.points)
    n_seeds = min(max(4 * dp.classified, 8), n)
    rng = derive_rng(seed, "seeds")
    seed_idx = rng.choice(n, size=n_seeds, replace=False)
    density = tree.query_ball_point(cloud.points[seed_idx], cp.cut_radius / 2,
                                    return_length=True).astype(np.float64)
    return ScenePrep(cloud, tree, seed_idx, density, edges)


def _mean_color(model: ObjectModel) -> np.ndarray | None:
    if model.cloud.colors is None:
        return None
    color = model.cloud.colors.mean(axis=0)
    color.setflags(write=False)   # shared by every caller
    return color


def _model_color(model: ObjectModel) -> np.ndarray | None:
    """Mean colour of the model cloud, computed once per model."""
    return _kept_on_model(model, "_mean_color", _mean_color)


def _color_similarity(colors: np.ndarray | None, reference: np.ndarray | None) -> np.ndarray | float:
    if colors is None or reference is None:
        return 1.0
    return np.exp(-np.linalg.norm(np.atleast_2d(colors) - reference, axis=1) / COLOR_SIM_SCALE)


def candidates_from_prep(prep: ScenePrep, model: ObjectModel, cp: ContinuousParams,
                         dp: DiscreteParams, seed=0) -> list[PointCloud]:
    """Up to ``dp.classified`` local clouds of 512..2048 points around interest seeds."""
    if prep.tree is None or len(prep.seed_indices) == 0:
        return []
    cloud = prep.cloud
    sim = _color_similarity(
        None if cloud.colors is None else cloud.colors[prep.seed_indices],
        _model_color(model))
    scores = (prep.seed_density / prep.seed_density.max()) * sim
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))

    centers: list[np.ndarray] = []
    candidates: list[PointCloud] = []
    for rank in order:
        if len(centers) >= dp.classified:
            break
        center = cloud.points[prep.seed_indices[rank]]
        if any(np.linalg.norm(center - c) < cp.cut_radius / 2 for c in centers):
            continue
        centers.append(center)
        idx = np.array(prep.tree.query_ball_point(center, cp.cut_radius), dtype=np.int64)
        if len(idx) < FIXED.min_points:
            continue
        if len(idx) > FIXED.input_points:
            rng = derive_rng(seed, "cand-sub", model.object_id, len(candidates))
            idx = idx[np.sort(rng.choice(len(idx), FIXED.input_points, replace=False))]
        candidates.append(cloud.select(np.sort(idx)))
    return candidates


def _objectness(candidate: PointCloud, model: ObjectModel) -> float:
    size_factor = len(candidate) / FIXED.input_points
    extent = bbox_diagonal(candidate)
    geom = np.exp(-abs(extent - model.diagonal) / model.diagonal)
    color = _color_similarity(
        None if candidate.colors is None else candidate.colors.mean(axis=0, keepdims=True),
        _model_color(model))
    return float(size_factor * geom * np.atleast_1d(color)[0])


def rank_candidates(candidates: list[PointCloud], model: ObjectModel) -> list[PointCloud]:
    """Candidates sorted by descending objectness; ties keep extraction order."""
    scores = [_objectness(c, model) for c in candidates]
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], i))
    return [candidates[i] for i in order]


def generate_votes(candidate: PointCloud, model: ObjectModel, vote_threshold: float,
                   gt_pose: Pose, seed=0) -> Matches:
    """Match candidate points to nearest model keypoints under a jittered truth.

    Confidence decays with the match residual; votes below
    ``vote_threshold * max_confidence`` are dropped. Fewer than the pipeline
    minimum of surviving matches raises InsufficientMatches.
    """
    if not 0.0 < vote_threshold <= 1.0:
        raise ValueError("vote_threshold must lie in (0, 1]")
    rng = derive_rng(seed, "votes")
    jitter_rot = rotation_about_axis(rng.normal(size=3),
                                     np.deg2rad(rng.normal(0.0, VOTE_ROT_SIGMA_DEG)))
    jitter = Pose(jitter_rot @ gt_pose.rotation,
                  jitter_rot @ gt_pose.translation + rng.normal(0.0, VOTE_TRANS_SIGMA, 3))
    keypoints_world = jitter.apply(model.keypoints)
    dist, nearest = cKDTree(keypoints_world).query(candidate.points)
    confidence = np.exp(-dist / (VOTE_CONF_FRACTION * model.diagonal))
    keep = confidence >= vote_threshold * confidence.max()
    if keep.sum() < FIXED.min_matches:
        raise InsufficientMatches(
            f"{int(keep.sum())} matches below the minimum of {FIXED.min_matches}")
    return Matches(candidate.points[keep], model.keypoints[nearest[keep]],
                   confidence[keep])


def kabsch(src: np.ndarray, dst: np.ndarray) -> Pose:
    """Least-squares rigid transform mapping ``src`` onto ``dst``."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    u, _, vt = np.linalg.svd((src - cs).T @ (dst - cd))
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return Pose(rot, cd - rot @ cs)


def _batched_rigid(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rigid transforms for (K, 3, 3) correspondence triples, vectorized."""
    cs = src.mean(axis=1, keepdims=True)
    cd = dst.mean(axis=1, keepdims=True)
    h = np.einsum("kni,knj->kij", src - cs, dst - cd)
    u, _, vt = np.linalg.svd(h)
    v = np.swapaxes(vt, 1, 2)
    ut = np.swapaxes(u, 1, 2)
    flip = np.repeat(np.eye(3)[None], len(src), axis=0)
    flip[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    rot = v @ flip @ ut
    trans = cd[:, 0] - np.einsum("kij,kj->ki", rot, cs[:, 0])
    return rot, trans


def _residual_features(s: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-match terms of ||R s + t - d||^2 that do not depend on (R, t).

    With s, d centred on their means and t' = R mean(s) + t - mean(d),
    ||R s + t - d||^2 = ||s||^2 + ||d||^2 - 2 vec(R).vec(d s^T)
    + 2 (R^T t').s - 2 t'.d + ||t'||^2. Takes the centred s, d and returns
    the (16, n) features [vec(d s^T), s, d, 1] and the (n,) constant
    ||s||^2 + ||d||^2; pair them with ``_residual_weights``.
    """
    outer = (d[:, :, None] * s[:, None, :]).reshape(-1, 9)
    features = np.hstack([outer, s, d, np.ones((len(s), 1))]).T.copy()
    return features, np.einsum("ni,ni->n", s, s) + np.einsum("ni,ni->n", d, d)


def _residual_weights(rot: np.ndarray, trans: np.ndarray, src_mean: np.ndarray,
                      dst_mean: np.ndarray) -> np.ndarray:
    """(k, 16) weights that turn ``_residual_features`` into squared residuals."""
    shift = np.einsum("kij,j->ki", rot, src_mean) + trans - dst_mean
    return np.hstack([-2.0 * rot.reshape(-1, 9),
                      2.0 * np.einsum("kji,kj->ki", rot, shift),
                      -2.0 * shift,
                      np.einsum("ki,ki->k", shift, shift)[:, None]])


def ransac_pose(matches: Matches, ransac_dist: float, iterations: int,
                diagonal: float, seed=0) -> list[PoseHypothesis]:
    """Chunked RANSAC over the matches; one refined hypothesis per chunk of 50.

    The inlier distance is ``ransac_dist`` rescaled by diagonal/100. The
    squared residuals of a chunk's 3-sample solutions come from one
    (k x 16)(16 x n) product with per-match features computed once per call
    (see ``_residual_features``). Each chunk's best solution is refit on its
    inliers. Hypotheses come back sorted by inlier count. Collinear samples
    are redrawn.
    """
    if ransac_dist <= 0 or iterations < 1:
        raise ValueError("ransac_dist and iterations must be positive")
    n = len(matches)
    if n < 3:
        raise ValueError("need at least 3 matches")
    threshold_sq = (ransac_dist * diagonal / DIAGONAL_REF) ** 2
    src_all, dst_all = matches.model_points, matches.scene_points
    src_mean, dst_mean = src_all.mean(axis=0), dst_all.mean(axis=0)
    features, constant = _residual_features(src_all - src_mean, dst_all - dst_mean)
    hypotheses: list[PoseHypothesis] = []
    chunk_starts = range(0, iterations, FIXED.ransac_chunk)
    for chunk_id, start in enumerate(chunk_starts):
        k = min(FIXED.ransac_chunk, iterations - start)
        rng = derive_rng(seed, "ransac", chunk_id)
        picks = rng.integers(0, n, size=(k, 3))
        src = src_all[picks]
        # duplicate indices and collinear triples give no stable pose; redraw
        for _ in range(4):
            area = np.linalg.norm(np.cross(src[:, 1] - src[:, 0],
                                           src[:, 2] - src[:, 0]), axis=1)
            bad = area < 1e-9 * diagonal * diagonal
            if not bad.any():
                break
            picks[bad] = rng.integers(0, n, size=(int(bad.sum()), 3))
            src = src_all[picks]
        rot, trans = _batched_rigid(src, dst_all[picks])
        weights = _residual_weights(rot, trans, src_mean, dst_mean)
        inliers = weights @ features + constant < threshold_sq
        counts = inliers.sum(axis=1)
        best = int(np.argmax(counts))
        if counts[best] < 3:
            continue
        mask = inliers[best]
        pose = kabsch(src_all[mask], dst_all[mask])
        residual = pose.apply(src_all) - dst_all
        refined = np.einsum("ni,ni->n", residual, residual) < threshold_sq
        hypotheses.append(PoseHypothesis(pose, int(refined.sum())))
    hypotheses.sort(key=lambda h: -h.inlier_count)
    return hypotheses


def icp_model_points(model: ObjectModel) -> PointCloud:
    """The model cloud at the ICP voxel size, points and normals, computed once
    per model (see ``_kept_on_model``).

    ICP matches only the points that face the camera at the hypothesis,
    (R n) . (R p + t) < 0 (``facing_points``). The normals it reads are the
    model's analytic normals, voxel-averaged here, never the DR-noised scene
    normals. A model without normals raises ``ValueError``.
    """
    if model.cloud.normals is None:
        raise ValueError(f"model {model.object_id!r} has no normals; ICP keeps only "
                         f"the model points that face the camera and needs them")
    return _kept_on_model(model, "_icp_cloud",
                          lambda m: voxel_downsample(m.cloud, FIXED.icp_model_voxel))


def facing_points(cloud: PointCloud, pose: Pose) -> np.ndarray:
    """The points of ``cloud`` that face the camera at ``pose``.

    A point p with normal n faces the camera (at the origin, looking down +z)
    when (R n) . (R p + t) < 0. A point facing away can have no sensor return,
    so under this pose its ICP match could only be missing or a wrong match
    to clutter (normal-compatibility selection, Rusinkiewicz & Levoy, 3DIM
    2001).
    """
    posed = pose.apply(cloud.points)
    facing = np.einsum("ni,ni->n", cloud.normals @ pose.rotation.T, posed) < 0
    return cloud.points[facing]


def _icp_refine(hypothesis: PoseHypothesis, tree: cKDTree, target: np.ndarray,
                model_pts: np.ndarray, diagonal: float, icp_dist: float,
                icp_scale: float, icp_iters: int) -> PoseHypothesis:
    """Point-to-point ICP stages with a shrinking correspondence cut-off.

    Stage k of ``FIXED.icp_resolutions`` uses the cut-off
    ``icp_dist * icp_scale**(icp_resolutions - 1 - k)`` rescaled by
    diagonal/100. If no stage finds 3 correspondences, the hypothesis comes
    back unchanged and flagged "icp stalled".

    The KD query is bounded by the stage's cut-off, so the search stops at it;
    a model point with no target point that close gets no correspondence
    (Rusinkiewicz & Levoy, 3DIM 2001).

    A stage stops at a fixed point: when an iteration finds the same
    ``mask`` and matched indices as those that produced the current pose,
    ``kabsch`` would return that pose bit for bit, and so would every later
    iteration of the stage. Every step taken still builds its pose through
    ``kabsch``.
    """
    pose = hypothesis.pose
    moved = False
    produced_by = None   # the (mask, matched indices) that ``pose`` was fitted to
    for stage in range(FIXED.icp_resolutions):
        cutoff = icp_dist * icp_scale ** (FIXED.icp_resolutions - 1 - stage) \
            * diagonal / DIAGONAL_REF
        for _ in range(icp_iters):
            dist, nearest = tree.query(pose.apply(model_pts), distance_upper_bound=cutoff)
            mask = dist < cutoff
            if mask.sum() < 3:
                break
            matched = nearest[mask]
            if produced_by is not None and np.array_equal(mask, produced_by[0]) \
                    and np.array_equal(matched, produced_by[1]):
                break
            pose = kabsch(model_pts[mask], target[matched])
            produced_by = (mask, matched)
            moved = True
    if not moved:
        return replace(hypothesis, flags=hypothesis.flags + ("icp stalled",))
    return replace(hypothesis, pose=pose)


def depth_check(hypothesis: PoseHypothesis, scene: Scene, model: ObjectModel,
                background_dist: float, accept_dist: float,
                depth_edges: np.ndarray) -> PoseHypothesis:
    """Score the hypothesis by rendered-depth agreement plus contour support.

    Rendered model pixels where the scene is closer by more than
    ``background_dist`` belong to foreground occluders and are excused.
    Among the rest, agreement counts pixels whose scene depth lies within
    ``accept_dist``, and pixels where the scene surface sits farther than
    the claimed model surface by more than ``background_dist`` contradict
    the hypothesis (the sensor saw through it) and count as violations.
    The contour term is the fraction of model silhouette pixels within
    2 px of a scene depth discontinuity. The final score is
    0.5*agreement*(1-violation) + 0.5*contour. ``depth_edges`` is the scene's
    ``_depth_edges`` mask, computed once per scene (``ScenePrep``).

    The render is full-frame; every comparison and filter after it runs on
    the rendered pixels' bounding box grown by ``SILHOUETTE_MARGIN``. Outside
    that window every mask is False, and each window edge either lies on the
    image border or sees only unset pixels beyond it. So the dilation, which
    reads only pixels inside the window, and the erosion, which treats every
    pixel past the window as unset, give what they would on the full frame.
    """
    model_depth = render_depth(hypothesis.pose.apply(model.cloud.points), scene.cam)
    window = pixel_window(model_depth > 0, SILHOUETTE_MARGIN)
    if window is None:
        return replace(hypothesis, depth_score=0.0)
    model_depth = model_depth[window]
    rendered = model_depth > 0
    scene_depth = scene.depth[window]
    valid = scene_depth > 0
    overlap = rendered & valid
    diff = scene_depth - model_depth
    foreground = overlap & (diff < -background_dist)
    considered = int(rendered.sum() - foreground.sum())
    if considered == 0:
        return replace(hypothesis, depth_score=0.0)
    agreement = float((overlap & (np.abs(diff) <= accept_dist)).sum()) / considered
    violation = float((overlap & (diff > background_dist)).sum()) / considered

    solid = box_max(rendered, 3)
    silhouette = solid & ~erode_cross(solid)
    contour = 0.0
    if silhouette.any():
        contour = float(np.mean(depth_edges[window][silhouette]))
    score = float(np.clip(0.5 * agreement * (1.0 - violation) + 0.5 * contour, 0.0, 1.0))
    return replace(hypothesis, depth_score=score)


def _depth_edges(scene_depth: np.ndarray) -> np.ndarray:
    """Pixels within 2 px of a depth discontinuity or a data-validity border."""
    valid = scene_depth > 0
    dmax = box_max(np.where(valid, scene_depth, -np.inf), 3)
    dmin = box_min(np.where(valid, scene_depth, np.inf), 3)
    jump = np.isfinite(dmax) & np.isfinite(dmin) & (dmax - dmin > DEPTH_EDGE_JUMP)
    solid_valid = box_max(valid, 3)
    border = solid_valid & ~erode_cross(solid_valid)
    return box_max(jump | border, 5)


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of one (scene, object) estimation."""

    found: bool
    hypothesis: PoseHypothesis | None
    reason: str = ""


STAGE_KEYS = ("t_pre", "t_net", "t_ran", "t_icp", "t_depth")


def _estimate_prepared(prep: ScenePrep, scene: Scene, model: ObjectModel,
                       cp: ContinuousParams, dp: DiscreteParams, seed: int,
                       timings: dict[str, float]) -> EstimateResult:
    """One object on a prepared scene: candidates, ranking, votes, RANSAC,
    coarse-to-fine ICP and the depth check; stage times are added to ``timings``.

    Each hypothesis is refined against only the ICP model points that face the
    camera at its RANSAC pose, (R n) . (R p + t) < 0 (``facing_points``),
    chosen once per hypothesis and kept for all its ICP stages. The normals are
    the model's analytic ones (``icp_model_points``), so the DR ``normal_sigma``
    channel still reaches no estimator stage.
    """
    t0 = time.perf_counter()
    candidates = candidates_from_prep(prep, model, cp, dp, seed)
    ranked = rank_candidates(candidates, model)[:dp.estimated]
    gt_pose = scene.gt_poses.get(model.object_id)
    votes: list[Matches | None] = []
    for ci, candidate in enumerate(ranked):
        if gt_pose is None:
            votes.append(None)
            continue
        try:
            votes.append(generate_votes(candidate, model, cp.vote_threshold, gt_pose,
                                        seed=(seed, model.object_id, ci)))
        except InsufficientMatches:
            votes.append(None)
    timings["t_net"] += time.perf_counter() - t0

    best: PoseHypothesis | None = None
    for ci, (candidate, matches) in enumerate(zip(ranked, votes)):
        if matches is None:
            continue
        t0 = time.perf_counter()
        hypotheses = ransac_pose(matches, cp.ransac_dist, dp.ransac_iters,
                                 model.diagonal, seed=(seed, model.object_id, ci))
        timings["t_ran"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        model_icp = icp_model_points(model)
        tree = cKDTree(candidate.points)
        refined = [_icp_refine(h, tree, candidate.points, facing_points(model_icp, h.pose),
                               model.diagonal, cp.icp_dist, cp.icp_scale, dp.icp_iters)
                   for h in hypotheses[:dp.depth_checked]]
        timings["t_icp"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        for hyp in refined:
            checked = depth_check(hyp, scene, model, cp.background_dist,
                                  cp.accept_dist, prep.depth_edges)
            if best is None or checked.depth_score > best.depth_score:
                best = checked
        timings["t_depth"] += time.perf_counter() - t0

    if best is None:
        return EstimateResult(False, None, reason="no detection")
    return EstimateResult(True, best)


@dataclass(frozen=True)
class SceneEstimate:
    """Per-object results plus the stage times, kept per image only: the shared
    preprocessing, then each later stage summed over the objects."""

    results: dict[str, EstimateResult]
    timings: dict[str, float]

    @property
    def total_time(self) -> float:
        return float(sum(self.timings.values()))


def estimate_all(scene: Scene, models: list[ObjectModel], cp: ContinuousParams,
                 dp: DiscreteParams, seed=0) -> SceneEstimate:
    """Estimate every object in one scene, preprocessing the scene once; the
    stage times are the image's (see ``SceneEstimate``)."""
    image = dict.fromkeys(STAGE_KEYS, 0.0)
    t0 = time.perf_counter()
    prep = prepare_scene(scene, cp, dp, seed)
    image["t_pre"] = time.perf_counter() - t0
    results = {model.object_id: _estimate_prepared(prep, scene, model, cp, dp, seed, image)
               for model in models}
    return SceneEstimate(results, image)
