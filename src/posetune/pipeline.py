"""Desk-scale pose-estimation pipeline with the tunable parameter surface.

The neural candidate classifier and voter of a full system are replaced by
deterministic geometric surrogates (density/color seed scoring; nearest
keypoint voting against a jittered ground truth) that keep the parameter
semantics intact: the vote threshold trades match count against purity, and
every distance threshold scales with the object diagonal.

A candidate is a sorted index array into the prepared scene cloud
(``PreparedScene.cloud``). The ranking reads its points and colours; votes,
RANSAC and ICP take only the ``(n, 3)`` points of the ranked candidates.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, fields

import numpy as np
from scipy.spatial import cKDTree

from .camera import box_max, box_min, erode_cross, pixel_window, render_depth
from .geometry import (ObjectModel, PointCloud, Pose, _kept_on_model, rotation_about_axis,
                       voxel_downsample)
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
# Structural constants; not subject to optimization.
ICP_RESOLUTIONS = 3      # coarse-to-fine ICP stages
INPUT_POINTS = 2048      # largest candidate; a larger ball is subsampled
MIN_POINTS = 512         # smallest candidate
MIN_MATCHES = 100        # fewest votes that go on to RANSAC
SCENE_VOXEL = 1.0        # scene voxel size (mm)
ICP_MODEL_VOXEL = 5.0    # voxel size of the model points ICP matches (mm)
RANSAC_CHUNK = 50        # RANSAC samples per refined hypothesis

# The only clock the pipeline reads: ``prepare`` and ``_staged`` time their
# work with it. Tests put a counting clock in its place.
clock = time.perf_counter


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
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")
        if self.vote_threshold > 1:
            raise ValueError("vote_threshold must be <= 1")

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
    depth_checked: int   # best RANSAC hypotheses refined and depth-checked per
                         # cloud; one that repeats an earlier pose is done once
    icp_iters: int       # ICP iterations per resolution stage

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{f.name} must be an integer >= 1, not {value!r}")
        if self.estimated > self.classified:
            raise ValueError("estimated exceeds classified")
        if self.depth_checked > self.ransac_iters:
            raise ValueError("depth_checked exceeds ransac_iters")

    @staticmethod
    def from_dict(data: dict) -> "DiscreteParams":
        """``DiscreteParams(**data)``: the constructor checks every value and
        converts none. Kept as a name because the benchmark reads it
        (``READ_NAMES`` in ``tests/test_bench_contract.py``)."""
        return DiscreteParams(**data)


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
    """Scene-point to model-keypoint correspondences."""

    scene_points: np.ndarray
    model_points: np.ndarray

    def __len__(self) -> int:
        return len(self.scene_points)


@dataclass(frozen=True)
class PreparedScene:
    """The preprocessing of one scene that no parameter reads (``prepare``).

    The voxelized cloud, its KD-tree (built on an empty cloud too), the
    ``_depth_edges`` mask that every depth check reads, and ``seconds``, the
    wall time all three took. A caller that estimates one scene under many
    parameter sets prepares it once and passes it to every ``estimate_all``
    call; each call charges ``seconds`` to its ``t_pre``, so the stage times
    still state what a fresh image costs.
    """

    cloud: PointCloud
    tree: cKDTree
    depth_edges: np.ndarray
    seconds: float


def prepare(scene: Scene) -> PreparedScene:
    """Voxel-downsample the scene, build its KD-tree and find its depth edges."""
    t0 = clock()
    cloud = voxel_downsample(scene.cloud, SCENE_VOXEL)
    edges = _depth_edges(scene.depth)
    return PreparedScene(cloud, cKDTree(cloud.points), edges, clock() - t0)


def choose_seeds(prepared: PreparedScene, cp: ContinuousParams, dp: DiscreteParams,
                 seed=0) -> tuple[np.ndarray, np.ndarray]:
    """Uniform interest seeds on the prepared cloud, as ``(indices, density)``.

    The seed count reads ``dp.classified`` and the draw the seed; a seed's
    density is its neighbour count within ``cp.cut_radius / 2``. An empty
    cloud gives no seeds.
    """
    n = len(prepared.cloud)
    n_seeds = min(max(4 * dp.classified, 8), n)
    rng = derive_rng(seed, "seeds")
    seed_idx = rng.choice(n, size=n_seeds, replace=False)
    density = prepared.tree.query_ball_point(prepared.cloud.points[seed_idx],
                                             cp.cut_radius / 2,
                                             return_length=True).astype(np.float64)
    return seed_idx, density


def _mean_color(model: ObjectModel) -> np.ndarray:
    color = model.cloud.colors.mean(axis=0)
    color.setflags(write=False)   # shared by every caller
    return color


def _model_color(model: ObjectModel) -> np.ndarray:
    """Mean colour of the model cloud, computed once per model."""
    return _kept_on_model(model, "_mean_color", _mean_color)


def _color_similarity(colors: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per row of ``colors`` (n, 3): exp(-|colour - reference| / COLOR_SIM_SCALE)."""
    return np.exp(-np.linalg.norm(colors - reference, axis=1) / COLOR_SIM_SCALE)


def objectness(points: np.ndarray, colors: np.ndarray, model: ObjectModel) -> float:
    """How much a candidate looks like ``model``: its size against
    ``INPUT_POINTS``, its bounding-box diagonal against the model's, and its
    mean colour against the model's."""
    size_factor = len(points) / INPUT_POINTS
    extent = float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))
    geom = np.exp(-abs(extent - model.diagonal) / model.diagonal)
    color = _color_similarity(colors.mean(axis=0, keepdims=True), _model_color(model))[0]
    return float(size_factor * geom * color)


def ranked_candidates(prepared: PreparedScene, seeds: tuple[np.ndarray, np.ndarray],
                      model: ObjectModel, cp: ContinuousParams, dp: DiscreteParams,
                      seed=0) -> list[np.ndarray]:
    """The points of every candidate extracted around ``seeds``, best first.

    Seeds are visited by density times colour similarity to the model; each
    one farther than ``cp.cut_radius / 2`` from every earlier centre, up to
    ``dp.classified`` centres, extracts its ``cp.cut_radius`` ball of the
    prepared cloud as a sorted index array. A ball of fewer than
    ``MIN_POINTS`` is skipped; one above ``INPUT_POINTS`` is subsampled to
    that many. Each candidate's points are gathered once, scored by
    ``objectness`` and returned as an ``(n, 3)`` array, ranked by descending
    score (ties keep extraction order). Of ``dp`` only ``classified`` is
    read: ``estimate_all`` carries the first ``dp.estimated`` on.
    """
    seed_idx, density = seeds
    if len(seed_idx) == 0:
        return []
    cloud, tree = prepared.cloud, prepared.tree
    sim = _color_similarity(cloud.colors[seed_idx], _model_color(model))
    scores = (density / density.max()) * sim
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))

    centers: list[np.ndarray] = []
    scored: list[tuple[float, np.ndarray]] = []   # (-objectness, points)
    for rank in order:
        if len(centers) >= dp.classified:
            break
        center = cloud.points[seed_idx[rank]]
        if any(np.linalg.norm(center - c) < cp.cut_radius / 2 for c in centers):
            continue
        centers.append(center)
        idx = np.array(tree.query_ball_point(center, cp.cut_radius), dtype=np.int64)
        if len(idx) < MIN_POINTS:
            continue
        if len(idx) > INPUT_POINTS:
            rng = derive_rng(seed, "cand-sub", model.object_id, len(scored))
            idx = idx[np.sort(rng.choice(len(idx), INPUT_POINTS, replace=False))]
        idx = np.sort(idx)
        points = cloud.points[idx]
        scored.append((-objectness(points, cloud.colors[idx], model), points))

    # sorted() is stable, so ties keep extraction order
    return [points for _, points in sorted(scored, key=lambda entry: entry[0])]


def generate_votes(points: np.ndarray, model: ObjectModel, vote_threshold: float,
                   gt_pose: Pose, seed=0) -> Matches:
    """Match a candidate's points to nearest model keypoints under a jittered truth.

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
    dist, nearest = cKDTree(keypoints_world).query(points)
    confidence = np.exp(-dist / (VOTE_CONF_FRACTION * model.diagonal))
    keep = confidence >= vote_threshold * confidence.max()
    if keep.sum() < MIN_MATCHES:
        raise InsufficientMatches(
            f"{int(keep.sum())} matches below the minimum of {MIN_MATCHES}")
    return Matches(points[keep], model.keypoints[nearest[keep]])


def _rigid_fit(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rotation and translation mapping ``src`` onto ``dst``
    (Kabsch), as arrays: no ``Pose`` is built or validated."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    u, _, vt = np.linalg.svd((src - cs).T @ (dst - cd))
    v = vt.T
    d = np.sign(np.linalg.det(v @ u.T))
    rot = (v * [1.0, 1.0, d]) @ u.T
    return rot, cd - rot @ cs


def _batched_rigid(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rigid transforms for (K, 3, 3) correspondence triples, vectorized."""
    cs = src.mean(axis=1, keepdims=True)
    cd = dst.mean(axis=1, keepdims=True)
    h = np.einsum("kni,knj->kij", src - cs, dst - cd)
    u, _, vt = np.linalg.svd(h)
    v = np.swapaxes(vt, 1, 2)
    ut = np.swapaxes(u, 1, 2)
    # v's last column, a view of vt's last row, times sign(det): no reflection
    vt[:, 2] *= np.sign(np.linalg.det(v @ ut))[:, None]
    rot = v @ ut
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
    inliers, the local optimisation of LO-RANSAC (Chum, Matas & Kittler, DAGM
    2003). A distinct inlier mask is refit once per call: a chunk whose best
    mask equals an earlier chunk's reuses that chunk's hypothesis, which the
    refit would return bit for bit. Hypotheses come back sorted by inlier
    count (stable, so equal counts keep chunk order). Collinear samples are
    redrawn.
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
    refits: dict[bytes, PoseHypothesis] = {}   # per distinct best inlier mask
    chunk_starts = range(0, iterations, RANSAC_CHUNK)
    for chunk_id, start in enumerate(chunk_starts):
        k = min(RANSAC_CHUNK, iterations - start)
        rng = derive_rng(seed, "ransac", chunk_id)
        picks = rng.integers(0, n, size=(k, 3))
        src = src_all[picks]
        # duplicate indices and collinear triples give no stable pose; redraw
        for _ in range(4):
            # |a x b| written out: np.cross spends most of its time moving axes
            a, b = src[:, 1] - src[:, 0], src[:, 2] - src[:, 0]
            c0 = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
            c1 = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
            c2 = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
            area = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
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
        key = mask.tobytes()
        if key not in refits:
            pose = Pose(*_rigid_fit(src_all[mask], dst_all[mask]))
            residual = pose.apply(src_all) - dst_all
            refined = np.einsum("ni,ni->n", residual, residual) < threshold_sq
            refits[key] = PoseHypothesis(pose, int(refined.sum()))
        hypotheses.append(refits[key])
    hypotheses.sort(key=lambda h: -h.inlier_count)
    return hypotheses


def icp_model_points(model: ObjectModel) -> PointCloud:
    """The model cloud at the ICP voxel size, points and normals, computed once
    per model (see ``_kept_on_model``).

    ICP matches only the points that face the camera at the hypothesis,
    (R n) . (R p + t) < 0 (``facing_points``). The normals it reads are the
    model's analytic normals, voxel-averaged here, never the DR-noised scene
    normals.
    """
    return _kept_on_model(model, "_icp_cloud",
                          lambda m: voxel_downsample(m.cloud, ICP_MODEL_VOXEL))


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


def _icp_refine(pose: Pose, tree: cKDTree, model_pts: np.ndarray, diagonal: float,
                icp_dist: float, icp_scale: float, icp_iters: int) -> Pose | None:
    """``pose`` refined by point-to-point ICP stages with a shrinking
    correspondence cut-off, matching ``model_pts`` to the points of ``tree``.

    Stage k of ``ICP_RESOLUTIONS`` uses the cut-off
    ``icp_dist * icp_scale**(ICP_RESOLUTIONS - 1 - k)`` rescaled by
    diagonal/100. If no stage finds 3 correspondences, ICP stalled and the
    result is None.

    The KD query is bounded by the stage's cut-off, so the search stops at it;
    a model point with no target point that close gets no correspondence
    (Rusinkiewicz & Levoy, 3DIM 2001).

    A stage stops at a fixed point: when an iteration finds the same
    ``mask`` and matched indices as those that produced the current pose,
    ``_rigid_fit`` would return that pose bit for bit, and so would every
    later iteration of the stage. Every step taken still fits its pose
    through ``_rigid_fit``. The steps keep the pose as arrays and transform
    as ``Pose.apply`` does; the ``Pose`` is built once, on the way out.
    """
    rot, trans = pose.rotation, pose.translation
    target = tree.data
    produced_by = None   # the (mask, matched indices) that (rot, trans) was fitted to
    for stage in range(ICP_RESOLUTIONS):
        cutoff = icp_dist * icp_scale ** (ICP_RESOLUTIONS - 1 - stage) \
            * diagonal / DIAGONAL_REF
        for _ in range(icp_iters):
            dist, nearest = tree.query(model_pts @ rot.T + trans, distance_upper_bound=cutoff)
            mask = dist < cutoff
            if mask.sum() < 3:
                break
            matched = nearest[mask]
            if produced_by is not None and np.array_equal(mask, produced_by[0]) \
                    and np.array_equal(matched, produced_by[1]):
                break
            rot, trans = _rigid_fit(model_pts[mask], target[matched])
            produced_by = (mask, matched)
    return None if produced_by is None else Pose(rot, trans)


def depth_check(pose: Pose, scene: Scene, model: ObjectModel, background_dist: float,
                accept_dist: float, depth_edges: np.ndarray) -> float:
    """Score ``pose`` in [0, 1] by rendered-depth agreement plus contour support.

    Rendered model pixels where the scene is closer by more than
    ``background_dist`` belong to foreground occluders and are excused.
    Among the rest, agreement counts pixels whose scene depth lies within
    ``accept_dist``, and pixels where the scene surface sits farther than
    the claimed model surface by more than ``background_dist`` contradict
    the pose (the sensor saw through it) and count as violations.
    The contour term is the fraction of model silhouette pixels within
    2 px of a scene depth discontinuity. The final score is
    0.5*agreement*(1-violation) + 0.5*contour. ``depth_edges`` is the scene's
    ``_depth_edges`` mask, computed once per scene (``PreparedScene``).

    The render is full-frame; every comparison and filter after it runs on
    the rendered pixels' bounding box grown by ``SILHOUETTE_MARGIN``. Outside
    that window every mask is False, and each window edge either lies on the
    image border or sees only unset pixels beyond it. So the dilation, which
    reads only pixels inside the window, and the erosion, which treats every
    pixel past the window as unset, give what they would on the full frame.
    """
    model_depth = render_depth(pose.apply(model.cloud.points), scene.cam)
    window = pixel_window(model_depth > 0, SILHOUETTE_MARGIN)
    if window is None:
        return 0.0
    model_depth = model_depth[window]
    rendered = model_depth > 0
    scene_depth = scene.depth[window]
    valid = scene_depth > 0
    overlap = rendered & valid
    diff = scene_depth - model_depth
    foreground = overlap & (diff < -background_dist)
    considered = int(rendered.sum() - foreground.sum())
    if considered == 0:
        return 0.0
    agreement = float((overlap & (np.abs(diff) <= accept_dist)).sum()) / considered
    violation = float((overlap & (diff > background_dist)).sum()) / considered

    solid = box_max(rendered, 3)
    silhouette = solid & ~erode_cross(solid)
    contour = 0.0
    if silhouette.any():
        contour = float(np.mean(depth_edges[window][silhouette]))
    return float(np.clip(0.5 * agreement * (1.0 - violation) + 0.5 * contour, 0.0, 1.0))


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

    hypothesis: PoseHypothesis | None
    reason: str = ""

    @property
    def found(self) -> bool:
        return self.hypothesis is not None


STAGE_KEYS = ("t_pre", "t_net", "t_ran", "t_icp", "t_depth")


def _staged(memo: dict | None, key: tuple, timings: dict[str, float], stage: str, compute):
    """``compute()``, or the value ``memo`` keeps under ``key``; either way the
    seconds it took are added to ``timings[stage]``.

    A miss times ``compute()`` with ``clock`` and, when ``memo`` is a dict,
    keeps ``(value, seconds)`` under ``key``. A hit charges the seconds
    measured on the miss, so a reused stage still costs what computing it did.
    """
    entry = None if memo is None else memo.get(key)
    if entry is None:
        t0 = clock()
        value = compute()
        entry = (value, clock() - t0)
        if memo is not None:
            memo[key] = entry
    timings[stage] += entry[1]
    return entry[0]


def _pose_key(pose: Pose) -> tuple[bytes, bytes]:
    return pose.rotation.tobytes(), pose.translation.tobytes()


def _votes_or_none(candidate: np.ndarray, model: ObjectModel, cp: ContinuousParams,
                   gt_pose: Pose, seed) -> Matches | None:
    try:
        return generate_votes(candidate, model, cp.vote_threshold, gt_pose, seed=seed)
    except InsufficientMatches:
        return None


def _estimate_prepared(prepared: PreparedScene, seeds: tuple[np.ndarray, np.ndarray],
                       scene: Scene, model: ObjectModel, cp: ContinuousParams,
                       dp: DiscreteParams, seed: int, timings: dict[str, float],
                       memo: dict | None) -> EstimateResult:
    """One object on a prepared scene and its seeds: candidates, ranking,
    votes, RANSAC, coarse-to-fine ICP and the depth check; stage times are
    added to ``timings``.

    Every stage runs through ``_staged``: the ranking (``ranked_candidates``),
    then per candidate among the first ``dp.estimated`` its votes, its RANSAC
    hypotheses and the KD-tree of its points, then per hypothesis its ICP
    refinement and its depth check. Each stage's memo key names the stage and
    what it reads, and its entry holds what it computes:

    - the ranking: ``cp``, the seed, the object and ``classified``; every
      candidate's points, best first;
    - the votes and the tree: those and the candidate index ``ci`` into that
      ranking; the matches (None when too few) and the tree;
    - RANSAC: those and ``ransac_iters``; the hypotheses;
    - ICP: the candidate's key, the RANSAC pose's rotation and translation
      bytes, and ``icp_iters``; the refined pose, or None when ICP stalled.
      RANSAC seeds each chunk by its number, so a 300-iteration run repeats a
      100-iteration run's first chunks and often finds the same poses; those
      are refined once;
    - the depth check: ``cp``, the object and the checked pose's bytes; the
      score.

    The one ``PoseHypothesis`` kept is built here, when a score is strictly
    greater than the best so far: the refined pose (the RANSAC pose, flagged
    "icp stalled", when ICP stalled), that RANSAC hypothesis's inlier count
    and the score. Of the first ``dp.depth_checked`` hypotheses, one whose
    pose bytes equal an earlier one's is skipped before ICP: it would refine
    and check to the same score, which replaces nothing. So each distinct pose
    is refined and checked once per call, and a skipped repeat charges no
    time, as a fresh image does not compute it.

    Each hypothesis is refined against only the ICP model points that face the
    camera at its RANSAC pose, (R n) . (R p + t) < 0 (``facing_points``),
    chosen once per hypothesis and kept for all its ICP stages. The normals are
    the model's analytic ones (``icp_model_points``), so the DR ``normal_sigma``
    channel still reaches no estimator stage.
    """
    head = (cp, seed, model.object_id, dp.classified)
    ranked = _staged(memo, ("ranked", *head), timings, "t_net",
                     lambda: ranked_candidates(prepared, seeds, model, cp, dp, seed))
    gt_pose = scene.gt_poses.get(model.object_id)
    if gt_pose is None:
        return EstimateResult(None, "no detection")

    best: PoseHypothesis | None = None
    for ci, candidate in enumerate(ranked[:dp.estimated]):
        stage_seed = (seed, model.object_id, ci)
        matches = _staged(memo, ("votes", *head, ci), timings, "t_net",
                          lambda: _votes_or_none(candidate, model, cp, gt_pose, stage_seed))
        if matches is None:
            continue
        hypotheses = _staged(memo, ("ransac", *head, ci, dp.ransac_iters), timings, "t_ran",
                             lambda: ransac_pose(matches, cp.ransac_dist, dp.ransac_iters,
                                                 model.diagonal, seed=stage_seed))
        tree = _staged(memo, ("tree", *head, ci), timings, "t_icp",
                       lambda: cKDTree(candidate))
        poses = set()   # (rotation, translation) bytes refined so far
        for hypothesis in hypotheses[:dp.depth_checked]:
            pose_key = _pose_key(hypothesis.pose)
            if pose_key in poses:
                continue
            poses.add(pose_key)
            refined = _staged(memo, ("icp", *head, ci, *pose_key, dp.icp_iters), timings,
                              "t_icp", lambda: _icp_refine(
                                  hypothesis.pose, tree,
                                  facing_points(icp_model_points(model), hypothesis.pose),
                                  model.diagonal, cp.icp_dist, cp.icp_scale, dp.icp_iters))
            pose = hypothesis.pose if refined is None else refined
            score = _staged(memo, ("depth", cp, model.object_id, *_pose_key(pose)),
                            timings, "t_depth", lambda: depth_check(
                                pose, scene, model, cp.background_dist, cp.accept_dist,
                                prepared.depth_edges))
            if best is None or score > best.depth_score:
                best = PoseHypothesis(pose, hypothesis.inlier_count, score,
                                      ("icp stalled",) if refined is None else ())

    if best is None:
        return EstimateResult(None, "no detection")
    return EstimateResult(best)


@dataclass(frozen=True)
class SceneEstimate:
    """Per-object results plus the stage times, kept per image only: the shared
    preprocessing, then each later stage summed over the objects.

    The stage times are what a fresh image costs. ``t_pre`` holds the prepared
    scene's measured ``seconds`` plus the seed choice, also when the call
    reused a preparation made earlier, and a stage taken from a memo charges
    the seconds measured when it was computed.
    """

    results: dict[str, EstimateResult]
    timings: dict[str, float]


def estimate_all(scene: Scene, models: list[ObjectModel], cp: ContinuousParams,
                 dp: DiscreteParams, seed=0, prepared: PreparedScene | None = None,
                 memo: dict | None = None) -> SceneEstimate:
    """Estimate every object in one scene, preprocessing the scene once; the
    stage times are the image's (see ``SceneEstimate``).

    The seeds are chosen once per call and shared by the objects. Each
    object's candidates are index sets into the prepared cloud; its later
    stages read only the points of the first ``dp.estimated`` of its ranking
    (``ranked_candidates``).

    ``prepared`` is ``prepare(scene)``, passed by a caller that estimates the
    same scene under many parameter sets; without it the call prepares the
    scene itself. Either way ``t_pre`` charges the preparation's measured
    ``seconds`` plus this call's own seed choice.

    ``memo`` is a dict that keeps stage results across calls on this one
    scene and these models (see ``_staged``), for a caller that runs many
    tuples at fixed ``cp`` and seed. Each key names its stage and what the
    stage reads, and each entry holds what the stage computes: the seed
    choice is kept under ``cp``, the seed and ``classified``; every other key
    also names the object; the ranking is not cut, and ICP and the depth
    check are keyed by the pose they read (``_estimate_prepared``). So a memo
    returns only what this ``cp`` and seed would compute, tuples that share
    ``classified`` share the ranking, tuples that find the same pose refine
    and check it once, and each reused stage charges the seconds it took
    when computed.
    """
    if prepared is None:
        prepared = prepare(scene)
    image = dict.fromkeys(STAGE_KEYS, 0.0)
    image["t_pre"] = prepared.seconds
    seeds = _staged(memo, ("seeds", cp, seed, dp.classified), image, "t_pre",
                    lambda: choose_seeds(prepared, cp, dp, seed))
    results = {model.object_id: _estimate_prepared(prepared, seeds, scene, model, cp, dp, seed,
                                                   image, memo)
               for model in models}
    return SceneEstimate(results, image)
