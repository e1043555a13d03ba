import itertools
import time
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from scipy import ndimage
from scipy.spatial import cKDTree

from posetune import pipeline
from posetune.geometry import ObjectModel, PointCloud, Pose, random_rotation, rotation_about_axis, transform_cloud, voxel_downsample
from posetune.metrics import add_correct, add_score
from posetune.objects import make_box
from posetune.pipeline import (
    DIAGONAL_REF,
    ContinuousParams,
    DiscreteParams,
    InsufficientMatches,
    Matches,
    PoseHypothesis,
    choose_seeds,
    depth_check,
    estimate_all,
    facing_points,
    generate_votes,
    icp_model_points,
    objectness,
    prepare,
    ranked_candidates,
    ransac_pose,
)
from posetune.scenes import NoiseConfig, Scene, apply_domain_randomization, generate_scene
from posetune.seeding import derive_rng
from posetune.camera import default_camera, render_depth

from clouds import cloud_of

OPTIMIZED = ContinuousParams(vote_threshold=0.174, ransac_dist=19.88, icp_dist=4.85,
                             icp_scale=1.24, background_dist=86.0, accept_dist=12.0,
                             cut_radius=108.0)
SMALL_DP = DiscreteParams(classified=8, estimated=2, ransac_iters=500,
                          depth_checked=2, icp_iters=10)


@pytest.fixture(scope="module")
def box():
    return make_box("crate", [45, 60, 35], [0.85, 0.25, 0.2])


@pytest.fixture(scope="module")
def clean_scene(box):
    return generate_scene([box], clutter_level=0.0, occlusion_level=0.0, seed=31)


@pytest.fixture(scope="module")
def cluttered_scene(box):
    return generate_scene([box], clutter_level=0.75, occlusion_level=0.0, seed=37)


def empty_scene():
    cam = default_camera()
    return Scene(cloud_of(np.empty((0, 3))), {}, cam, 0)


class TestParameterTypes:
    def test_continuous_validation(self):
        with pytest.raises(ValueError):
            ContinuousParams(1.2, 10, 2, 2, 10, 5, 72)
        with pytest.raises(ValueError):
            ContinuousParams(0.5, -1, 2, 2, 10, 5, 72)

    def test_discrete_feasibility(self):
        with pytest.raises(ValueError, match="estimated"):
            DiscreteParams(8, 10, 500, 1, 10)
        with pytest.raises(ValueError, match="depth_checked"):
            DiscreteParams(8, 2, 5, 10, 10)

    @pytest.mark.parametrize("value", [2.7, True])
    def test_from_dict_converts_nothing(self, value):
        data = dict(asdict(SMALL_DP), classified=value)
        with pytest.raises(ValueError, match="classified must be an integer"):
            DiscreteParams.from_dict(data)

    def test_vector_roundtrip(self):
        params = OPTIMIZED
        again = ContinuousParams.from_vector(params.as_vector())
        assert again == params

    def test_hypothesis_score_range(self):
        with pytest.raises(ValueError):
            PoseHypothesis(Pose.identity(), 3, depth_score=1.5)


def ranked(scene, model, dp, seed=0):
    """``ranked_candidates`` on the scene's preparation and seeds."""
    prepared = prepare(scene)
    return ranked_candidates(prepared, choose_seeds(prepared, OPTIMIZED, dp, seed), model,
                             OPTIMIZED, dp, seed)


def extracted_in_order(scene, model, dp, seed, monkeypatch, score=lambda points: 0.5):
    """``ranked`` with ``objectness`` replaced by ``score``, plus the points of
    every extracted candidate in the order ``objectness`` saw them."""
    seen = []
    monkeypatch.setattr(pipeline, "objectness",
                        lambda points, colors, model: seen.append(points) or score(points))
    return ranked(scene, model, dp, seed), seen


class RecordingTree:
    """A KD-tree that records the ball of every single-centre query, in order."""

    def __init__(self, tree):
        self.tree, self.balls = tree, []

    def query_ball_point(self, x, r, **kwargs):
        found = self.tree.query_ball_point(x, r, **kwargs)
        if np.ndim(x) == 1:
            self.balls.append(found)
        return found


class TestExtractCandidates:
    def test_single_object_scene_yields_centered_candidate(self, box, clean_scene):
        candidates = ranked(clean_scene, box, DiscreteParams(1, 1, 500, 1, 10))
        assert len(candidates) == 1
        center = clean_scene.gt_poses["crate"].translation
        offset = np.linalg.norm(candidates[0].mean(axis=0) - center)
        assert offset < OPTIMIZED.cut_radius

    def test_empty_scene_gives_no_candidates(self, box):
        assert ranked(empty_scene(), box, SMALL_DP) == []

    def test_size_constraints_on_cluttered_scene(self, box, cluttered_scene):
        candidates = ranked(cluttered_scene, box, DiscreteParams(8, 8, 500, 1, 10), seed=1)
        assert 0 < len(candidates) <= 8
        for cand in candidates:
            assert cand.shape[1] == 3
            assert pipeline.MIN_POINTS <= len(cand) <= pipeline.INPUT_POINTS
            # distinct rows of the prepared cloud
            assert len(np.unique(cand, axis=0)) == len(cand)


class TestRankCandidates:
    def test_object_candidate_outranks_clutter(self, box, clean_scene):
        g = np.random.default_rng(3)
        pick = g.choice(len(clean_scene.cloud), 600, replace=False)
        plane = np.column_stack([g.uniform(-150, 150, (600, 2)),
                                 np.full(600, 800.0)])
        assert objectness(clean_scene.cloud.points[pick], clean_scene.cloud.colors[pick], box) \
            > objectness(plane, np.full((600, 3), 0.5), box)

    def test_single_candidate_identity(self, box, clean_scene, monkeypatch):
        out, seen = extracted_in_order(clean_scene, box, DiscreteParams(1, 1, 500, 1, 10), 0,
                                       monkeypatch)
        assert len(seen) == 1 and len(out) == 1
        np.testing.assert_array_equal(out[0], seen[0])

    def test_ties_keep_input_order(self, box, cluttered_scene, monkeypatch):
        monkeypatch.setattr(pipeline, "objectness", lambda points, colors, model: 0.5)
        prepared = prepare(cluttered_scene)
        tree = RecordingTree(prepared.tree)
        prepared = replace(prepared, tree=tree)
        dp = DiscreteParams(8, 8, 500, 1, 10)
        out = ranked_candidates(prepared, choose_seeds(prepared, OPTIMIZED, dp, 1), box,
                                OPTIMIZED, dp, 1)
        # the balls kept as candidates, in extraction order
        balls = [set(ball) for ball in tree.balls if len(ball) >= pipeline.MIN_POINTS]
        assert len(out) == len(balls) > 2
        row = {tuple(p): i for i, p in enumerate(prepared.cloud.points)}
        for points, ball in zip(out, balls):
            assert {row[tuple(p)] for p in points} <= ball

    def test_ranked_by_descending_objectness(self, box, cluttered_scene, monkeypatch):
        # score each candidate by its first coordinate: the ranking must sort
        # every extracted candidate by it, whatever ``estimated`` is
        dp = DiscreteParams(8, 3, 500, 1, 10)
        out, seen = extracted_in_order(cluttered_scene, box, dp, 1, monkeypatch,
                                       score=lambda points: float(points[0, 0]))
        assert len(seen) > 3
        best = sorted(seen, key=lambda points: -points[0, 0])
        assert len(out) == len(seen)
        for got, want in zip(out, best):
            # the array objectness scored is the one returned
            assert got is want


class TestGenerateVotes:
    def make_candidate(self, box, clean_scene):
        return ranked(clean_scene, box, DiscreteParams(1, 1, 500, 1, 10))[0]

    def test_threshold_off_keeps_every_point(self, box, clean_scene):
        candidate = self.make_candidate(box, clean_scene)
        gt = clean_scene.gt_poses["crate"]
        matches = generate_votes(candidate, box, 1e-9, gt, seed=0)
        assert len(matches) == len(candidate)

    def test_degenerate_threshold_rejects(self, box, clean_scene):
        candidate = self.make_candidate(box, clean_scene)
        gt = clean_scene.gt_poses["crate"]
        with pytest.raises(InsufficientMatches):
            generate_votes(candidate, box, 1.0, gt, seed=0)

    def test_published_threshold_passes_on_clean_candidate(self, box, clean_scene):
        candidate = self.make_candidate(box, clean_scene)
        gt = clean_scene.gt_poses["crate"]
        matches = generate_votes(candidate, box, 0.174, gt, seed=0)
        assert len(matches) >= pipeline.MIN_MATCHES

    def test_match_pairs_are_scene_to_keypoint(self, box, clean_scene):
        candidate = self.make_candidate(box, clean_scene)
        gt = clean_scene.gt_poses["crate"]
        matches = generate_votes(candidate, box, 0.3, gt, seed=0)
        keypoint_set = {tuple(k) for k in box.keypoints}
        assert all(tuple(k) in keypoint_set for k in matches.model_points[:20])


def synthetic_matches(model, pose, n_inliers, n_outliers, noise, seed):
    g = np.random.default_rng(seed)
    src = model.cloud.points[g.choice(len(model.cloud), n_inliers, replace=False)]
    dst = pose.apply(src) + g.normal(0, noise, (n_inliers, 3))
    out_src = model.cloud.points[g.choice(len(model.cloud), n_outliers)] \
        if n_outliers else np.empty((0, 3))
    out_dst = pose.translation + g.uniform(-80, 80, (n_outliers, 3))
    return Matches(np.vstack([dst, out_dst]), np.vstack([src, out_src]))


class TestRansac:
    def test_exact_matches_recover_pose(self, box):
        g = np.random.default_rng(5)
        pose = Pose(random_rotation(g), [10, -20, 500.0])
        matches = synthetic_matches(box, pose, 200, 0, 0.0, seed=6)
        hyps = ransac_pose(matches, 10.0, 200, box.diagonal, seed=0)
        best = hyps[0]
        assert best.inlier_count == 200
        np.testing.assert_allclose(best.pose.rotation, pose.rotation, atol=1e-6)
        np.testing.assert_allclose(best.pose.translation, pose.translation, atol=1e-6)

    def test_robust_to_half_outliers(self, box):
        g = np.random.default_rng(7)
        failures = 0
        for trial in range(20):
            pose = Pose(random_rotation(g), [g.uniform(-30, 30), 0, 500.0])
            matches = synthetic_matches(box, pose, 100, 100, 0.5, seed=100 + trial)
            hyps = ransac_pose(matches, 10.0, 1500, box.diagonal, seed=trial)
            if add_score(box, pose, hyps[0].pose) > 0.02 * box.diagonal:
                failures += 1
        assert failures == 0

    def test_pure_outliers_leave_tiny_consensus(self, box):
        g = np.random.default_rng(9)
        pose = Pose(random_rotation(g), [0, 0, 500.0])
        matches = synthetic_matches(box, pose, 0, 150, 0.0, seed=11)
        hyps = ransac_pose(matches, 5.0, 500, box.diagonal, seed=0)
        assert hyps[0].inlier_count <= 15

    def test_hypotheses_sorted_by_inliers(self, box):
        g = np.random.default_rng(13)
        pose = Pose(random_rotation(g), [0, 0, 500.0])
        matches = synthetic_matches(box, pose, 120, 80, 0.5, seed=15)
        hyps = ransac_pose(matches, 10.0, 500, box.diagonal, seed=0)
        counts = [h.inlier_count for h in hyps]
        assert counts == sorted(counts, reverse=True)
        assert len(hyps) == 10  # 500 iterations in chunks of 50

    def test_scale_equivariant_decisions(self, box):
        # doubling all geometry leaves diagonal-relative correctness unchanged
        doubled = ObjectModel(
            "big", PointCloud(box.cloud.points * 2.0, box.cloud.normals,
                              box.cloud.colors))
        g = np.random.default_rng(17)
        for trial in range(10):
            rot = random_rotation(g)
            pose1 = Pose(rot, [5.0, 8.0, 500.0])
            pose2 = Pose(rot, [10.0, 16.0, 1000.0])
            m1 = synthetic_matches(box, pose1, 120, 60, 0.4, seed=trial)
            m2 = Matches(m1.scene_points * 2.0, m1.model_points * 2.0)
            h1 = ransac_pose(m1, 10.0, 500, box.diagonal, seed=trial)[0]
            h2 = ransac_pose(m2, 10.0, 500, doubled.diagonal, seed=trial)[0]
            assert add_correct(box, pose1, h1.pose) == add_correct(doubled, pose2, h2.pose)

    @staticmethod
    def direct_residual_reference(matches, ransac_dist, iterations, diagonal, seed):
        """The earlier formulation: residuals R s + t - d of a chunk as (k, n, 3)."""
        n = len(matches)
        threshold_sq = (ransac_dist * diagonal / DIAGONAL_REF) ** 2
        src_all, dst_all = matches.model_points, matches.scene_points
        hypotheses = []
        for chunk_id, start in enumerate(range(0, iterations, pipeline.RANSAC_CHUNK)):
            k = min(pipeline.RANSAC_CHUNK, iterations - start)
            rng = derive_rng(seed, "ransac", chunk_id)
            picks = rng.integers(0, n, size=(k, 3))
            src = src_all[picks]
            for _ in range(4):
                area = np.linalg.norm(np.cross(src[:, 1] - src[:, 0],
                                               src[:, 2] - src[:, 0]), axis=1)
                bad = area < 1e-9 * diagonal * diagonal
                if not bad.any():
                    break
                picks[bad] = rng.integers(0, n, size=(int(bad.sum()), 3))
                src = src_all[picks]
            rot, trans = pipeline._batched_rigid(src, dst_all[picks])
            moved = np.einsum("kij,nj->kni", rot, src_all) + trans[:, None, :]
            moved -= dst_all[None]
            inliers = np.einsum("kni,kni->kn", moved, moved) < threshold_sq
            counts = inliers.sum(axis=1)
            best = int(np.argmax(counts))
            if counts[best] < 3:
                continue
            pose = Pose(*pipeline._rigid_fit(src_all[inliers[best]], dst_all[inliers[best]]))
            residual = pose.apply(src_all) - dst_all
            refined = np.einsum("ni,ni->n", residual, residual) < threshold_sq
            hypotheses.append(PoseHypothesis(pose, int(refined.sum())))
        hypotheses.sort(key=lambda h: -h.inlier_count)
        return hypotheses

    @pytest.mark.parametrize("trial", range(6))
    def test_matches_direct_residual_reference(self, box, trial):
        g = np.random.default_rng(200 + trial)
        pose = Pose(random_rotation(g), [g.uniform(-60, 60), g.uniform(-60, 60), 700.0])
        matches = synthetic_matches(box, pose, 60 + 40 * trial, 30 * trial, 0.8,
                                    seed=300 + trial)
        ransac_dist = (4.0, 10.0, 19.88)[trial % 3]
        got = ransac_pose(matches, ransac_dist, 500, box.diagonal, seed=trial)
        ref = self.direct_residual_reference(matches, ransac_dist, 500, box.diagonal,
                                             seed=trial)
        assert [h.inlier_count for h in got] == [h.inlier_count for h in ref]
        for a, b in zip(got, ref):
            np.testing.assert_allclose(a.pose.rotation, b.pose.rotation, atol=1e-9)
            np.testing.assert_allclose(a.pose.translation, b.pose.translation, atol=1e-9)

    @pytest.mark.parametrize("trial", range(3))
    def test_each_distinct_mask_is_refit_once(self, box, trial, monkeypatch):
        # clean matches: every chunk's best solution saturates the inlier set,
        # so all chunks land on one mask
        g = np.random.default_rng(400 + trial)
        pose = Pose(random_rotation(g), [g.uniform(-60, 60), g.uniform(-60, 60), 600.0])
        matches = synthetic_matches(box, pose, 80 + 60 * trial, 0, 0.0, seed=500 + trial)
        fitted = []
        original = pipeline._rigid_fit
        monkeypatch.setattr(pipeline, "_rigid_fit",
                            lambda src, dst: fitted.append(src.tobytes()) or original(src, dst))
        ref = self.direct_residual_reference(matches, 10.0, 500, box.diagonal, seed=trial)
        assert len(fitted) == 10   # the reference refits every chunk
        distinct = len(set(fitted))
        fitted.clear()
        got = ransac_pose(matches, 10.0, 500, box.diagonal, seed=trial)
        assert len(fitted) == distinct == 1
        assert [h.inlier_count for h in got] == [h.inlier_count for h in ref]
        for a, b in zip(got, ref):
            assert a.pose.rotation.tobytes() == b.pose.rotation.tobytes()
            assert a.pose.translation.tobytes() == b.pose.translation.tobytes()


class TestC2fIcp:
    def test_truth_is_fixed_point(self, box):
        pose = Pose(rotation_about_axis([0, 1, 0], 0.4), [5, -8, 520.0])
        model_icp = voxel_downsample(box.cloud, pipeline.ICP_MODEL_VOXEL)
        candidate = pose.apply(model_icp.points)
        out = pipeline._icp_refine(pose, cKDTree(candidate), model_icp.points, box.diagonal,
                                   4.0, 2.0, 5)
        np.testing.assert_allclose(out.rotation, pose.rotation, atol=1e-6)
        np.testing.assert_allclose(out.translation, pose.translation, atol=1e-6)

    def test_converges_from_small_offset(self, box):
        g = np.random.default_rng(19)
        pose = Pose(random_rotation(g), [0, 0, 520.0])
        candidate = transform_cloud(box.cloud, pose)
        start = Pose(pose.rotation, pose.translation + [2.0, 0, 0])
        out = pipeline._icp_refine(start, cKDTree(candidate.points),
                                   icp_model_points(box).points, box.diagonal, 4.85, 1.24, 10)
        assert add_score(box, pose, out) < 0.5

    def test_stalls_when_nothing_in_reach(self, box):
        pose = Pose(np.eye(3), [0, 0, 520.0])
        candidate = pose.apply(box.cloud.points) + [500.0, 0, 0]
        out = pipeline._icp_refine(pose, cKDTree(candidate), icp_model_points(box).points,
                                   box.diagonal, 2.0, 1.0, 5)
        assert out is None

    def test_bounded_query_matches_unbounded(self, box, cluttered_scene):
        gt = cluttered_scene.gt_poses["crate"]
        # the box's visible points plus surrounding clutter and floor
        near = np.linalg.norm(cluttered_scene.cloud.points - gt.translation, axis=1) < 90
        target = cluttered_scene.cloud.points[near]
        tree = cKDTree(target)
        model_pts = icp_model_points(box).points
        g = np.random.default_rng(43)
        for _ in range(4):
            start = Pose(rotation_about_axis(g.normal(size=3), 0.08) @ gt.rotation,
                         gt.translation + g.normal(0, 3.0, 3))
            out = pipeline._icp_refine(start, tree, model_pts, box.diagonal, 4.85, 1.24, 10)
            # reference: unbounded query, far matches dropped by the mask only
            pose = start
            for stage in range(pipeline.ICP_RESOLUTIONS):
                cutoff = 4.85 * 1.24 ** (pipeline.ICP_RESOLUTIONS - 1 - stage) \
                    * box.diagonal / DIAGONAL_REF
                for _ in range(10):
                    dist, nearest = tree.query(pose.apply(model_pts))
                    mask = dist < cutoff
                    if mask.sum() < 3:
                        break
                    pose = Pose(*pipeline._rigid_fit(model_pts[mask], target[nearest[mask]]))
            np.testing.assert_array_equal(out.rotation, pose.rotation)
            np.testing.assert_array_equal(out.translation, pose.translation)

    def test_fixed_point_exit_matches_every_iteration(self, box, cluttered_scene, monkeypatch):
        gt = cluttered_scene.gt_poses["crate"]
        near = np.linalg.norm(cluttered_scene.cloud.points - gt.translation, axis=1) < 90
        target = cluttered_scene.cloud.points[near]
        tree = cKDTree(target)
        model_pts = icp_model_points(box).points
        original = pipeline._rigid_fit
        fits = []
        monkeypatch.setattr(pipeline, "_rigid_fit",
                            lambda src, dst: fits.append(1) or original(src, dst))
        g = np.random.default_rng(7)
        steps = 0
        # at icp_dist 40 every model point stays in reach, so only the matches change
        for icp_dist in (4.85, 40.0):
            for _ in range(3):
                start = Pose(rotation_about_axis(g.normal(size=3), 0.08) @ gt.rotation,
                             gt.translation + g.normal(0, 3.0, 3))
                out = pipeline._icp_refine(start, tree, model_pts, box.diagonal, icp_dist,
                                           1.24, 10)
                # reference: every iteration of every stage runs
                pose = start
                for stage in range(pipeline.ICP_RESOLUTIONS):
                    cutoff = icp_dist * 1.24 ** (pipeline.ICP_RESOLUTIONS - 1 - stage) \
                        * box.diagonal / DIAGONAL_REF
                    for _ in range(10):
                        dist, nearest = tree.query(pose.apply(model_pts),
                                                   distance_upper_bound=cutoff)
                        mask = dist < cutoff
                        if mask.sum() < 3:
                            break
                        pose = Pose(*original(model_pts[mask], target[nearest[mask]]))
                        steps += 1
                np.testing.assert_array_equal(out.rotation, pose.rotation)
                np.testing.assert_array_equal(out.translation, pose.translation)
        assert len(fits) < steps  # the exit fired

    def test_model_cloud_voxelized_once_per_model(self, cluttered_scene, monkeypatch):
        model = make_box("crate", [45, 60, 35], [0.85, 0.25, 0.2])
        voxels = []
        original = pipeline.voxel_downsample

        def counted(cloud, voxel):
            voxels.append(voxel)
            return original(cloud, voxel)

        monkeypatch.setattr(pipeline, "voxel_downsample", counted)
        for seed in range(2):
            estimate_all(cluttered_scene, [model], OPTIMIZED, SMALL_DP, seed=seed)
        assert voxels.count(pipeline.ICP_MODEL_VOXEL) == 1
        assert voxels.count(pipeline.SCENE_VOXEL) == 2
        expected = original(model.cloud, pipeline.ICP_MODEL_VOXEL)
        np.testing.assert_array_equal(icp_model_points(model).points, expected.points)
        np.testing.assert_array_equal(icp_model_points(model).normals, expected.normals)


def facing_reference(cloud, pose):
    """Row mask of the points whose rotated normal has a negative dot product
    with their posed position, one point at a time."""
    return np.array([(pose.rotation @ n) @ (pose.rotation @ p + pose.translation) < 0
                     for p, n in zip(cloud.points, cloud.normals)])


class TestFacingPoints:
    def test_face_on_box_keeps_the_near_face(self, box):
        cloud = icp_model_points(box)
        pose = Pose(np.eye(3), [0.0, 0.0, 520.0])
        kept = facing_points(cloud, pose)
        np.testing.assert_array_equal(kept, cloud.points[facing_reference(cloud, pose)])
        near = cloud.normals[:, 2] == -1.0
        far = cloud.normals[:, 2] == 1.0
        assert near.any() and far.any()
        kept_rows = {tuple(p) for p in kept}
        assert all(tuple(p) in kept_rows for p in cloud.points[near])
        assert not any(tuple(p) in kept_rows for p in cloud.points[far])
        # every kept point lies on the camera's side of the box centre
        assert (kept[:, 2] < 0).all()

    def test_turned_and_offset_box(self, box):
        cloud = icp_model_points(box)
        g = np.random.default_rng(47)
        for _ in range(5):
            pose = Pose(random_rotation(g), [g.uniform(-80, 80), g.uniform(-60, 60), 520.0])
            mask = facing_reference(cloud, pose)
            assert 0 < mask.sum() < len(cloud)
            np.testing.assert_array_equal(facing_points(cloud, pose), cloud.points[mask])

    def test_icp_gets_the_facing_subset_of_every_hypothesis(self, box, cluttered_scene,
                                                              monkeypatch):
        original = pipeline._icp_refine
        calls = []

        def recorded(pose, tree, model_pts, *args):
            calls.append((pose, model_pts))
            return original(pose, tree, model_pts, *args)

        monkeypatch.setattr(pipeline, "_icp_refine", recorded)
        estimate_all(cluttered_scene, [box], OPTIMIZED, SMALL_DP, seed=0)
        assert calls
        cloud = icp_model_points(box)
        for pose, model_pts in calls:
            mask = facing_reference(cloud, pose)
            assert mask.sum() < len(cloud)
            np.testing.assert_array_equal(model_pts, cloud.points[mask])

    def test_model_color_kept_on_the_model(self):
        model = make_box("crate", [45, 60, 35], [0.85, 0.25, 0.2])
        first = pipeline._model_color(model)
        assert pipeline._model_color(model) is first
        assert not first.flags.writeable
        np.testing.assert_array_equal(first, model.cloud.colors.mean(axis=0))


def ndimage_depth_edges(scene_depth):
    """``pipeline._depth_edges`` with the ``scipy.ndimage`` filters it was first
    written with."""
    valid = scene_depth > 0
    dmax = ndimage.maximum_filter(np.where(valid, scene_depth, -np.inf), size=3)
    dmin = ndimage.minimum_filter(np.where(valid, scene_depth, np.inf), size=3)
    jump = np.isfinite(dmax) & np.isfinite(dmin) & (dmax - dmin > pipeline.DEPTH_EDGE_JUMP)
    solid_valid = ndimage.maximum_filter(valid, size=3)
    border = solid_valid & ~ndimage.binary_erosion(solid_valid)
    return ndimage.maximum_filter(jump | border, size=5)


class TestDepthEdges:
    def test_matches_ndimage_reference(self, clean_scene, cluttered_scene):
        levels = NoiseConfig(xyz_sigma=4.0, normal_sigma=0.04, rgb_sigma=0.035,
                             rgb_shift=0.07, rotation_max=6.25, flatten_frac=0.02)
        depths = [clean_scene.depth, cluttered_scene.depth,
                  apply_domain_randomization(cluttered_scene, levels, seed=1).depth]
        g = np.random.default_rng(8)
        patch = g.uniform(400.0, 800.0, (240, 320))
        patch[g.random(patch.shape) < 0.3] = 0.0     # holes touching every border
        depths += [patch, np.zeros((240, 320)), np.full((240, 320), 500.0),
                   patch[:1], patch[:, :1], patch[:2, :2], patch[:5, :5]]
        for depth in depths:
            got = pipeline._depth_edges(depth)
            assert got.dtype == bool
            np.testing.assert_array_equal(got, ndimage_depth_edges(depth))


class TestDepthCheck:
    def test_exact_pose_scores_high(self, box, clean_scene):
        gt = clean_scene.gt_poses["crate"]
        score = depth_check(gt, clean_scene, box, background_dist=86.0, accept_dist=12.0,
                            depth_edges=pipeline._depth_edges(clean_scene.depth))
        assert score >= 0.95

    def test_displaced_pose_scores_low(self, box, clean_scene):
        gt = clean_scene.gt_poses["crate"]
        moved = Pose(gt.rotation, gt.translation + [160.0, 0, 0])
        score = depth_check(moved, clean_scene, box, background_dist=86.0, accept_dist=12.0,
                            depth_edges=pipeline._depth_edges(clean_scene.depth))
        assert score < 0.2

    def test_huge_background_dist_disables_violation(self, box, cluttered_scene):
        # floating above the ground plane: penalized only when bd is finite
        pose = Pose(np.eye(3), [0, 0, 600.0])
        edges = pipeline._depth_edges(cluttered_scene.depth)
        tight = depth_check(pose, cluttered_scene, box, background_dist=5.0, accept_dist=5.0,
                            depth_edges=edges)
        loose = depth_check(pose, cluttered_scene, box, background_dist=1e9, accept_dist=5.0,
                            depth_edges=edges)
        assert loose >= tight

    def test_precomputed_edges_give_same_score(self, box, cluttered_scene):
        edges = prepare(cluttered_scene).depth_edges
        gt = cluttered_scene.gt_poses["crate"]
        for offset in ([0, 0, 0], [6.0, -3.0, 0], [40.0, 0, 10.0], [160.0, 0, 0]):
            pose = Pose(gt.rotation, gt.translation + offset)
            shared = depth_check(pose, cluttered_scene, box, 86.0, 12.0, depth_edges=edges)
            assert shared == self.full_frame_reference(pose, cluttered_scene, box, 86.0, 12.0)


    @staticmethod
    def full_frame_reference(pose, scene, model, background_dist, accept_dist):
        """``depth_check``'s score with every step on the full frame."""
        model_depth = render_depth(pose.apply(model.cloud.points), scene.cam)
        rendered = model_depth > 0
        if not rendered.any():
            return 0.0
        valid = scene.depth > 0
        overlap = rendered & valid
        diff = scene.depth - model_depth
        foreground = overlap & (diff < -background_dist)
        considered = int(rendered.sum() - foreground.sum())
        if considered == 0:
            return 0.0
        agreement = float((overlap & (np.abs(diff) <= accept_dist)).sum()) / considered
        violation = float((overlap & (diff > background_dist)).sum()) / considered
        solid = ndimage.maximum_filter(rendered, size=3)
        silhouette = solid & ~ndimage.binary_erosion(solid)
        contour = 0.0
        if silhouette.any():
            contour = float(np.mean(ndimage_depth_edges(scene.depth)[silhouette]))
        return float(np.clip(0.5 * agreement * (1.0 - violation) + 0.5 * contour, 0.0, 1.0))

    @staticmethod
    def border_poses(model, scene):
        """A pose at the image centre, then poses whose footprint ends a few
        pixels inside, on, or past each image border."""
        cam = scene.cam
        rot = scene.gt_poses["crate"].rotation
        z = 520.0
        centre = Pose(rot, [0.0, 0.0, z])
        footprint = render_depth(centre.apply(model.cloud.points), cam) > 0
        rows = np.flatnonzero(footprint.any(axis=1))
        cols = np.flatnonzero(footprint.any(axis=0))
        poses = [centre]
        for gap in (-12, -2, -1, 0, 1, 2, 3):   # px left between footprint and border
            for du, dv in ((gap - cols[0], 0), (cam.width - 1 - cols[-1] - gap, 0),
                           (0, gap - rows[0]), (0, cam.height - 1 - rows[-1] - gap)):
                poses.append(Pose(rot, [du * z / cam.fx, dv * z / cam.fy, z]))
        return poses

    def test_window_matches_full_frame_reference(self, box, cluttered_scene):
        edges = pipeline._depth_edges(cluttered_scene.depth)
        poses = self.border_poses(box, cluttered_scene)
        gt = cluttered_scene.gt_poses["crate"]
        poses += [gt, Pose(gt.rotation, gt.translation + [6.0, -3.0, 0])]
        for pose in poses:
            expected = self.full_frame_reference(pose, cluttered_scene, box, 86.0, 12.0)
            assert depth_check(pose, cluttered_scene, box, 86.0, 12.0,
                               depth_edges=edges) == expected


class TestEstimate:
    def test_clean_scene_with_published_params(self, box, clean_scene):
        result = estimate_all(clean_scene, [box], OPTIMIZED, SMALL_DP, seed=0).results["crate"]
        assert result.found
        gt = clean_scene.gt_poses["crate"]
        assert add_correct(box, gt, result.hypothesis.pose)

    def test_missing_object_reports_no_detection(self, clean_scene):
        stranger = make_box("stranger", [40, 40, 40], [0.1, 0.8, 0.2])
        bundle = estimate_all(clean_scene, [stranger], OPTIMIZED, SMALL_DP, seed=0)
        result = bundle.results["stranger"]
        assert not result.found
        assert result.reason == "no detection"

    def test_timings_nonnegative_and_bounded_by_wall(self, box, cluttered_scene):
        t0 = time.perf_counter()
        bundle = estimate_all(cluttered_scene, [box], OPTIMIZED, SMALL_DP, seed=0)
        wall = time.perf_counter() - t0
        assert all(v >= 0 for v in bundle.timings.values())
        assert sum(bundle.timings.values()) <= wall

    def test_deterministic(self, box, cluttered_scene):
        a = estimate_all(cluttered_scene, [box], OPTIMIZED, SMALL_DP, seed=4).results["crate"]
        b = estimate_all(cluttered_scene, [box], OPTIMIZED, SMALL_DP, seed=4).results["crate"]
        assert a.found == b.found
        np.testing.assert_array_equal(a.hypothesis.pose.rotation,
                                      b.hypothesis.pose.rotation)
        np.testing.assert_array_equal(a.hypothesis.pose.translation,
                                      b.hypothesis.pose.translation)

    def test_estimate_all_shares_preprocessing(self, box, cluttered_scene):
        other = make_box("slab", [30, 50, 60], [0.2, 0.45, 0.8])
        scene = generate_scene([box, other], 0.5, 0.0, seed=41)
        bundle = estimate_all(scene, [box, other], OPTIMIZED, SMALL_DP, seed=0)
        assert set(bundle.results) == {"crate", "slab"}
        assert bundle.timings["t_pre"] > 0
        assert sum(bundle.timings.values()) > 0
        solo = estimate_all(scene, [box], OPTIMIZED, SMALL_DP, seed=0).results["crate"]
        joint = bundle.results["crate"]
        np.testing.assert_allclose(solo.hypothesis.pose.translation,
                                   joint.hypothesis.pose.translation, atol=1e-9)

    def test_only_the_first_estimated_candidates_are_voted_on(self, box, cluttered_scene,
                                                               monkeypatch):
        # the ranking is not cut; estimate_all carries its first ``estimated`` on
        dp = DiscreteParams(8, 3, 100, 1, 2)
        ranking = ranked(cluttered_scene, box, dp, seed=1)
        assert len(ranking) > 3
        voted = []
        original = pipeline.generate_votes
        monkeypatch.setattr(pipeline, "generate_votes",
                            lambda points, *args, **kwargs:
                            voted.append(points) or original(points, *args, **kwargs))
        estimate_all(cluttered_scene, [box], OPTIMIZED, dp, seed=1)
        assert len(voted) == 3
        for got, want in zip(voted, ranking):
            np.testing.assert_array_equal(got, want)

    def test_stalled_icp_keeps_the_ransac_hypothesis_flagged(self, box, cluttered_scene,
                                                              monkeypatch):
        gt = cluttered_scene.gt_poses["crate"]
        h = PoseHypothesis(Pose(gt.rotation, gt.translation + [2.0, -1.0, 3.0]), 60)
        monkeypatch.setattr(pipeline, "ransac_pose", lambda *args, **kwargs: [h])
        monkeypatch.setattr(pipeline, "_icp_refine", lambda *args: None)
        result = estimate_all(cluttered_scene, [box], OPTIMIZED, SMALL_DP, seed=0).results["crate"]
        assert result.found
        got = result.hypothesis
        assert got.pose is h.pose and got.inlier_count == 60 and got.flags == ("icp stalled",)
        assert got.depth_score == depth_check(h.pose, cluttered_scene, box,
                                              OPTIMIZED.background_dist, OPTIMIZED.accept_dist,
                                              pipeline._depth_edges(cluttered_scene.depth))

    def test_repeated_pose_is_refined_and_checked_once(self, box, cluttered_scene):
        gt = cluttered_scene.gt_poses["crate"]
        h = PoseHypothesis(Pose(rotation_about_axis([1, 0, 0], 0.05) @ gt.rotation,
                                gt.translation + [2.0, -1.0, 3.0]), 60)
        # equal to h but a separate object: the key is the pose, not identity
        h_copy = PoseHypothesis(Pose(h.pose.rotation.copy(), h.pose.translation.copy()), 60)
        h2 = PoseHypothesis(Pose(gt.rotation, gt.translation + [6.0, 4.0, -5.0]), 50)
        dp = replace(SMALL_DP, depth_checked=3)

        def run(hypotheses):
            ransac_calls, refined, checked = [], [], []
            original_icp, original_depth = pipeline._icp_refine, pipeline.depth_check

            def icp(pose, *args):
                refined.append((pose.rotation.tobytes(), pose.translation.tobytes()))
                return original_icp(pose, *args)

            def depth(*args):
                checked.append(1)
                return original_depth(*args)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pipeline, "clock", itertools.count().__next__)
                patch.setattr(pipeline, "ransac_pose",
                              lambda *a, **k: ransac_calls.append(1) or list(hypotheses))
                patch.setattr(pipeline, "_icp_refine", icp)
                patch.setattr(pipeline, "depth_check", depth)
                bundle = estimate_all(cluttered_scene, [box], OPTIMIZED, dp, seed=0)
            return bundle, len(ransac_calls), refined, len(checked)

        bundle, candidates, refined, checked = run([h, h_copy, h2])
        assert candidates > 0
        distinct = {(x.pose.rotation.tobytes(), x.pose.translation.tobytes()) for x in (h, h2)}
        assert len(refined) == checked == 2 * candidates
        assert Counter(refined) == {key: candidates for key in distinct}

        reference, _, _, _ = run([h, h2])
        got, want = bundle.results["crate"], reference.results["crate"]
        assert got.found and want.found
        assert got.hypothesis.pose.rotation.tobytes() == want.hypothesis.pose.rotation.tobytes()
        assert got.hypothesis.pose.translation.tobytes() == \
            want.hypothesis.pose.translation.tobytes()
        assert (got.hypothesis.inlier_count, got.hypothesis.depth_score, got.hypothesis.flags) \
            == (want.hypothesis.inlier_count, want.hypothesis.depth_score, want.hypothesis.flags)
        for key in ("t_icp", "t_depth"):
            assert bundle.timings[key] == reference.timings[key]


class TestStaged:
    def test_without_memo_every_call_computes_and_charges(self):
        ticks = iter([0.0, 1.5, 10.0, 12.0])
        timings = {"t_icp": 0.0}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "clock", lambda: next(ticks))
            values = [pipeline._staged(None, ("icp",), timings, "t_icp", lambda: [])
                      for _ in range(2)]
        assert values == [[], []] and values[0] is not values[1]
        assert timings == {"t_icp": 3.5}

    def test_hit_returns_the_kept_value_and_charges_its_seconds(self):
        ticks = iter([0.0, 1.5])
        computed = []
        memo, timings = {}, {"t_net": 0.0}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "clock", lambda: next(ticks))
            # a stage whose value is None (no votes) is kept like any other
            values = [pipeline._staged(memo, ("votes", 0), timings, "t_net",
                                       lambda: computed.append(1)) for _ in range(3)]
        assert values == [None] * 3 and computed == [1]
        assert memo == {("votes", 0): (None, 1.5)}
        assert timings == {"t_net": 4.5}

    def test_stage_times_come_from_the_module_clock(self, box, cluttered_scene):
        # every measurement spans one tick of a counting clock, so whole
        # numbers show that no stage reads another clock
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "clock", itertools.count().__next__)
            bundle = estimate_all(cluttered_scene, [box], OPTIMIZED, SMALL_DP, seed=0)
        assert bundle.results["crate"].found
        assert bundle.timings["t_pre"] == 2   # prepare, then the seed choice
        assert all(v >= 1 and v == int(v) for v in bundle.timings.values())


class TestKabsch:
    """``_rigid_fit``, the Kabsch fit behind RANSAC and ICP."""

    def test_recovers_random_rigid_transform(self):
        g = np.random.default_rng(23)
        for _ in range(20):
            src = g.uniform(-30, 30, (10, 3))
            pose = Pose(random_rotation(g), g.uniform(-20, 20, 3))
            rot, trans = pipeline._rigid_fit(src, pose.apply(src))
            np.testing.assert_allclose(rot, pose.rotation, atol=1e-9)
            np.testing.assert_allclose(trans, pose.translation, atol=1e-8)

    def test_never_returns_reflection(self):
        g = np.random.default_rng(29)
        for _ in range(50):
            src = g.uniform(-1, 1, (3, 3))
            dst = g.uniform(-1, 1, (3, 3))
            pose = Pose(*pipeline._rigid_fit(src, dst))  # constructor asserts det=+1
            assert np.linalg.det(pose.rotation) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.slow
class TestRecallMonotonicity:
    def test_more_ransac_iterations_never_meaningfully_hurt(self, box):
        recalls = {}
        for ri in (500, 2500):
            hits = 0
            for s in range(50):
                scene = generate_scene([box], 0.5, 0.0, seed=600 + s)
                dp = DiscreteParams(4, 2, ri, 2, 10)
                result = estimate_all(scene, [box], OPTIMIZED, dp, seed=s).results["crate"]
                if result.found and add_correct(box, scene.gt_poses["crate"],
                                                result.hypothesis.pose):
                    hits += 1
            recalls[ri] = hits / 50
        assert recalls[2500] >= recalls[500] - 0.02
