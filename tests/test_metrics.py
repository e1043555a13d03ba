from types import SimpleNamespace

import numpy as np
import pytest
from scipy import ndimage

from posetune import metrics
from posetune.camera import CameraIntrinsics, default_camera, project_points, render_depth
from posetune.geometry import ObjectModel, Pose, random_rotation, rotation_about_axis
from posetune.metrics import (
    LADDER_FRACTIONS,
    MSPD_BASE_THRESHOLDS,
    MetricScore,
    add_correct,
    add_i_score,
    add_score,
    evaluate_pose,
    mspd_score,
    mssd_score,
    recall_contribution,
    scores_to_csv,
    vsd_score,
)
from posetune.objects import make_cylinder, make_object
from posetune.scenes import generate_scene

from clouds import cloud_of


def rng(seed=0):
    return np.random.default_rng(seed)


def make_model(points, symmetry=(), object_id="obj") -> ObjectModel:
    return ObjectModel(object_id, cloud_of(points), symmetry)


def random_pose(g, z=500.0) -> Pose:
    return Pose(random_rotation(g), np.append(g.uniform(-40, 40, 2), z))


@pytest.fixture
def box_model():
    g = rng(42)
    pts = g.uniform(-1, 1, (200, 3)) * [20, 30, 40]
    return make_model(pts)


class TestAdd:
    def test_zero_at_ground_truth(self, box_model):
        pose = random_pose(rng(1))
        assert add_score(box_model, pose, pose) == 0.0

    def test_pure_translation_is_displacement(self, box_model):
        gt = random_pose(rng(2))
        est = Pose(gt.rotation, gt.translation + [0, 0, 5.0])
        assert add_score(box_model, gt, est) == pytest.approx(5.0, abs=1e-12)

    def test_hand_computed_rotation_case(self):
        model = make_model([[10.0, 0, 0], [0, 20.0, 0], [0, 0, 30.0]])
        gt = Pose(np.eye(3), [0, 0, 500.0])
        est = Pose(rotation_about_axis([0, 0, 1], np.pi / 2), [0, 0, 500.0])
        # per-point by hand: |p - Rz90 p| for the three points
        expected = (np.sqrt(200.0) + np.sqrt(800.0) + 0.0) / 3.0
        assert add_score(model, gt, est) == pytest.approx(expected, rel=1e-12)


class TestAddI:
    def test_zero_at_ground_truth(self, box_model):
        pose = random_pose(rng(3))
        assert add_i_score(box_model, pose, pose) == 0.0

    def test_rotation_about_symmetry_axis_scores_zero(self):
        angles = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        ring = np.column_stack([30 * np.cos(angles), 30 * np.sin(angles),
                                np.zeros(24)])
        model = make_model(ring)
        gt = Pose(np.eye(3), [0, 0, 400.0])
        est = gt.compose(Pose(rotation_about_axis([0, 0, 1], angles[1]), np.zeros(3)))
        assert add_i_score(model, gt, est) < 1e-3 * model.diagonal

    def test_matches_brute_force_nearest_neighbor(self):
        g = rng(4)
        model = make_model(g.uniform(-15, 15, (4, 3)))
        gt, est = random_pose(g), random_pose(g)
        gt_pts = gt.apply(model.cloud.points)
        est_pts = est.apply(model.cloud.points)
        # O(N^2) oracle
        expected = np.mean([min(np.linalg.norm(p - q) for q in est_pts) for p in gt_pts])
        assert add_i_score(model, gt, est) == pytest.approx(expected, rel=1e-12)

    def test_never_exceeds_add(self):
        g = rng(5)
        for _ in range(300):
            model = make_model(g.uniform(-20, 20, (12, 3)))
            gt, est = random_pose(g), random_pose(g)
            assert add_i_score(model, gt, est) <= add_score(model, gt, est) + 1e-12


class TestAddCorrect:
    def test_exact_pose_is_correct(self, box_model):
        pose = random_pose(rng(6))
        assert add_correct(box_model, pose, pose)

    @pytest.mark.parametrize("fraction,expected", [(0.2, False), (0.09, True)])
    def test_threshold_behavior(self, box_model, fraction, expected):
        gt = random_pose(rng(7))
        offset = np.array([1.0, 0, 0]) * fraction * box_model.diagonal
        est = Pose(gt.rotation, gt.translation + offset)
        assert add_correct(box_model, gt, est) is expected


class TestMssd:
    def test_zero_at_ground_truth(self, box_model):
        pose = random_pose(rng(8))
        assert mssd_score(box_model, pose, pose) == 0.0

    def test_uniform_translation(self, box_model):
        gt = random_pose(rng(9))
        est = Pose(gt.rotation, gt.translation + [3.0, 4.0, 0.0])
        assert mssd_score(box_model, gt, est) == pytest.approx(5.0, abs=1e-12)

    def test_symmetry_absorbs_half_turn(self):
        g = rng(10)
        half = g.uniform(-1, 1, (40, 3)) * [25, 10, 8] + [30, 0, 0]
        pts = np.vstack([half, -half])  # exactly 2-fold symmetric about z
        flip = Pose(rotation_about_axis([0, 0, 1], np.pi), np.zeros(3))
        model = make_model(pts, symmetry=(flip,))
        gt = random_pose(g)
        est = gt.compose(flip)
        assert mssd_score(model, gt, est) < 1e-9


class TestMspd:
    def test_zero_at_ground_truth(self, box_model):
        cam = default_camera()
        pose = random_pose(rng(11))
        assert mspd_score(box_model, pose, pose, cam) == 0.0

    def test_lateral_shift_matches_pinhole_oracle(self):
        cam = default_camera()
        model = make_model([[0.0, 0, 0], [5.0, 0, 0], [0, 5.0, 0]])
        z = 500.0
        gt = Pose(np.eye(3), [0, 0, z])
        dx = 20.0
        est = Pose(np.eye(3), [dx, 0, z])
        expected = cam.fx * dx / z
        assert mspd_score(model, gt, est, cam) == pytest.approx(expected, rel=1e-3)

    def test_axial_shift_of_principal_axis_points_projects_identically(self):
        cam = default_camera()
        model = make_model([[0.0, 0.0, 0.0], [0.0, 0.0, 10.0]])
        gt = Pose(np.eye(3), [0, 0, 400.0])
        est = Pose(np.eye(3), [0, 0, 450.0])
        assert mspd_score(model, gt, est, cam) == pytest.approx(0.0, abs=1e-9)

    def test_behind_camera_raises(self, box_model):
        cam = default_camera()
        gt = Pose(np.eye(3), [0, 0, 500.0])
        est = Pose(np.eye(3), [0, 0, -500.0])
        with pytest.raises(ValueError, match="behind camera"):
            mspd_score(box_model, gt, est, cam)


class TestVsd:
    def setup_method(self):
        self.cam = default_camera()
        from posetune.objects import make_box
        self.model = make_box("vsd-box", [50, 50, 40], [0.8, 0.2, 0.2])
        self.gt = Pose(random_rotation(rng(12)), [10.0, -5.0, 500.0])
        self.scene_depth = render_depth(self.gt.apply(self.model.cloud.points),
                                        self.cam)

    def test_zero_at_ground_truth(self):
        assert vsd_score(self.model, self.gt, self.gt, self.cam,
                         self.scene_depth, tau=5.0) == 0.0

    def test_disjoint_silhouettes_score_one(self):
        est = Pose(self.gt.rotation, [250.0, 0, 500.0])
        assert vsd_score(self.model, self.gt, est, self.cam,
                         self.scene_depth, tau=5.0) == 1.0

    def test_subthreshold_axial_shift_scores_near_zero(self):
        # up to a ~1 px silhouette ring of splat-rasterization noise
        est = Pose(self.gt.rotation, self.gt.translation + [0, 0, 3.0])
        assert vsd_score(self.model, self.gt, est, self.cam,
                         self.scene_depth, tau=5.0) <= 0.05

    def test_range(self):
        g = rng(13)
        for _ in range(10):
            est = random_pose(g)
            v = vsd_score(self.model, self.gt, est, self.cam, self.scene_depth, 5.0)
            assert 0.0 <= v <= 1.0


class TestRigidInvariance:
    def test_left_composition_preserves_camera_free_scores(self):
        g = rng(14)
        model = make_model(g.uniform(-20, 20, (30, 3)))
        gt, est = random_pose(g), random_pose(g)
        shift = Pose(random_rotation(g), g.uniform(-10, 10, 3))
        for score in (add_score, add_i_score, mssd_score):
            before = score(model, gt, est)
            after = score(model, shift.compose(gt), shift.compose(est))
            assert after == pytest.approx(before, rel=1e-9, abs=1e-9)


class TestBopRecall:
    def setup_method(self):
        self.cam = default_camera()
        g = rng(15)
        pts = g.uniform(-1, 1, (2000, 3)) * [20, 25, 15]
        self.model = make_model(pts)
        self.gt = Pose(np.eye(3), [0, 0, 450.0])
        self.scene_depth = render_depth(self.gt.apply(pts), self.cam)

    def evaluate(self, est):
        return evaluate_pose(self.model, self.gt, est, self.cam, self.scene_depth)

    def test_all_exact_gives_one(self):
        scores = [self.evaluate(self.gt) for _ in range(3)]
        assert np.mean([s.bop_recall_contribution for s in scores]) == 1.0

    def test_all_wrong_gives_zero(self):
        bad = Pose(np.eye(3), self.gt.translation + [10 * self.model.diagonal, 0, 0])
        scores = [self.evaluate(bad) for _ in range(3)]
        assert np.mean([s.bop_recall_contribution for s in scores]) == 0.0

    def test_one_exact_one_wrong_gives_half(self):
        bad = Pose(np.eye(3), self.gt.translation + [10 * self.model.diagonal, 0, 0])
        scores = [self.evaluate(self.gt), self.evaluate(bad)]
        assert np.mean([s.bop_recall_contribution for s in scores]) == pytest.approx(0.5)

    def test_contribution_matches_hand_enumeration(self):
        est = Pose(self.gt.rotation,
                   self.gt.translation + [0.12 * self.model.diagonal, 0, 0])
        got = recall_contribution(self.model, self.gt, est, self.cam, self.scene_depth)
        # enumerate the ladder explicitly
        mssd = mssd_score(self.model, self.gt, est)
        mspd = mspd_score(self.model, self.gt, est, self.cam)
        mssd_hits = sum(mssd < f * self.model.diagonal for f in LADDER_FRACTIONS)
        scale = self.cam.width / 640.0
        mspd_hits = sum(mspd < t * scale for t in MSPD_BASE_THRESHOLDS)
        vsd_hits = sum(
            vsd_score(self.model, self.gt, est, self.cam, self.scene_depth,
                      f * self.model.diagonal) < f
            for f in LADDER_FRACTIONS)
        expected = (vsd_hits + mssd_hits + mspd_hits) / 30.0
        assert got == pytest.approx(expected)

    def test_estimate_behind_camera_misses_every_mspd_threshold(self):
        model = make_object({"shape": "box", "id": "box", "size": [40.0, 55.0, 75.0]})
        scene = generate_scene([model], 0.0, 0.0, seed=2)
        gt = scene.gt_poses["box"]
        est = Pose(gt.rotation, [gt.translation[0], gt.translation[1], 20.0])
        with pytest.raises(ValueError, match="behind camera"):
            mspd_score(model, gt, est, scene.cam)
        got = recall_contribution(model, gt, est, scene.cam, scene.depth)
        mssd = mssd_score(model, gt, est)
        mssd_hits = sum(mssd < f * model.diagonal for f in LADDER_FRACTIONS)
        vsd_hits = sum(
            vsd_score(model, gt, est, scene.cam, scene.depth, f * model.diagonal) < f
            for f in LADDER_FRACTIONS)
        assert got == pytest.approx((vsd_hits + mssd_hits + 0) / 30.0)


def full_frame_vsd_reference(model, gt, est, cam, scene_depth, taus):
    """VSD errors with the closing and the counts on the full frame."""
    def close(depth):
        filled = ndimage.maximum_filter(
            ndimage.minimum_filter(np.where(depth > 0, depth, np.inf), size=3), size=3)
        return np.where(np.isfinite(filled), filled, 0.0)

    d_gt = close(render_depth(gt.apply(model.cloud.points), cam))
    d_est = close(render_depth(est.apply(model.cloud.points), cam))
    free = scene_depth == 0
    vis_gt = (d_gt > 0) & (free | (d_gt <= scene_depth + metrics.VSD_VISIBILITY_DELTA))
    vis_est = (d_est > 0) & (free | (d_est <= scene_depth + metrics.VSD_VISIBILITY_DELTA))
    union = vis_gt | vis_est
    count = int(union.sum())
    if count == 0:
        return [1.0] * len(taus)
    both = vis_gt & vis_est
    single = int(union.sum() - both.sum())
    diffs = np.abs(d_gt[both] - d_est[both])
    return [float((single + int((diffs > tau).sum())) / count) for tau in taus]


def per_symmetry_reference(model, gt, est, cam, scene_depth):
    """(MSSD, MSPD, recall) with every symmetry copy posed in full, each inside
    its own loop; MSPD is infinite when a point of any copy lies at or behind
    the camera plane."""
    pts = model.cloud.points
    syms = [Pose.identity(), *model.symmetry]
    gt_pts = gt.apply(pts)
    mssd = min(float(np.linalg.norm(gt_pts - est.apply(sym.apply(pts)), axis=1).max())
               for sym in syms)
    if any(np.any(est.apply(sym.apply(pts))[:, 2] <= 0) for sym in syms):
        mspd = np.inf
    else:
        gt_px = project_points(gt_pts, cam)
        mspd = min(float(np.linalg.norm(gt_px - project_points(est.apply(sym.apply(pts)), cam),
                                        axis=1).max()) for sym in syms)
    taus = [f * model.diagonal for f in LADDER_FRACTIONS]
    vsd_errs = full_frame_vsd_reference(model, gt, est, cam, scene_depth, taus)
    vsd_hits = np.mean([err < f for err, f in zip(vsd_errs, LADDER_FRACTIONS)])
    mssd_hits = np.mean([mssd < f * model.diagonal for f in LADDER_FRACTIONS])
    px_scale = cam.width / metrics.MSPD_REFERENCE_WIDTH
    mspd_hits = np.mean([mspd < t * px_scale for t in MSPD_BASE_THRESHOLDS])
    return mssd, mspd, float((vsd_hits + mssd_hits + mspd_hits) / 3.0)


class TestAgainstFullForms:
    """The windowed VSD and the shared posed clouds give what the full forms give."""

    @pytest.fixture(scope="class")
    def cylinder_scene(self):
        model = make_cylinder("cyl", 25.0, 80.0, [0.3, 0.5, 0.7])
        return model, generate_scene([model], 0.75, 0.18, seed=4)

    @staticmethod
    def estimates(gt: Pose, symmetry) -> dict[str, Pose]:
        g = rng(21)
        tilt = random_rotation(g)
        return {
            "exact": gt,
            "symmetric copy": gt.compose(symmetry[2]),
            "overlapping": Pose(rotation_about_axis([1, 0, 0], 0.1) @ gt.rotation,
                                gt.translation + [6.0, -4.0, 9.0]),
            "tilted": Pose(tilt, gt.translation + [0.0, 15.0, 0.0]),
            "disjoint": Pose(gt.rotation, gt.translation + [150.0, 0.0, 0.0]),
            "off image": Pose(gt.rotation, gt.translation + [2000.0, 0.0, 0.0]),
            "at the left border": Pose(gt.rotation, [-gt.translation[2] * 160.0 / 260.0,
                                                     0.0, gt.translation[2]]),
        }

    def test_windowed_vsd_matches_full_frame(self, cylinder_scene):
        model, scene = cylinder_scene
        gt = scene.gt_poses["cyl"]
        taus = [f * model.diagonal for f in LADDER_FRACTIONS]
        pts = model.cloud.points
        off_image = Pose(gt.rotation, gt.translation + [-2000.0, 0.0, 0.0])
        pairs = [(gt, est) for est in self.estimates(gt, model.symmetry).values()]
        pairs.append((off_image, self.estimates(gt, model.symmetry)["off image"]))  # both empty
        for a, b in pairs:
            for first, second in ((a, b), (b, a)):
                expected = full_frame_vsd_reference(model, first, second, scene.cam,
                                                    scene.depth, taus)
                got = metrics._vsd_errors(first.apply(pts), second.apply(pts), scene.cam,
                                          scene.depth, taus)
                assert got == expected

    def test_cylinder_scores_match_per_symmetry_posing(self, cylinder_scene):
        model, scene = cylinder_scene
        assert len(model.symmetry) == 11
        gt = scene.gt_poses["cyl"]
        for name, est in self.estimates(gt, model.symmetry).items():
            mssd, mspd, recall = per_symmetry_reference(model, gt, est, scene.cam,
                                                        scene.depth)
            assert mssd_score(model, gt, est) == mssd, name
            assert mspd_score(model, gt, est, scene.cam) == mspd, name
            assert recall_contribution(model, gt, est, scene.cam, scene.depth) == recall, name


class TestSymmetryPruning:
    """MSSD and MSPD from the pruned copies equal every copy posed in full."""

    @pytest.fixture(scope="class")
    def cylinder_scene(self):
        model = make_cylinder("cyl", 25.0, 80.0, [0.3, 0.5, 0.7])
        return model, generate_scene([model], 0.75, 0.18, seed=4)

    @staticmethod
    def check(model, gt, est, scene):
        """Assert the pruned scores equal the reference; return the number of
        copies MSSD and MSPD posed in full."""
        mssd, mspd, recall = per_symmetry_reference(model, gt, est, scene.cam, scene.depth)
        assert mssd_score(model, gt, est) == mssd
        if np.isinf(mspd):
            with pytest.raises(ValueError, match="behind camera"):
                mspd_score(model, gt, est, scene.cam)
        else:
            assert mspd_score(model, gt, est, scene.cam) == mspd
        assert recall_contribution(model, gt, est, scene.cam, scene.depth) == recall
        posed = metrics._PosedCopies(model, gt, est)
        assert posed.mssd() == mssd
        assert posed.mspd(scene.cam) == mspd
        return set(posed._copies)

    def test_best_copy_that_is_not_the_identity(self, cylinder_scene):
        model, scene = cylinder_scene
        gt = scene.gt_poses["cyl"]
        for k in (1, 4, 7, 10):
            turned = gt.compose(model.symmetry[k])
            est = Pose(rotation_about_axis([1.0, 0.3, 0.0], 0.02) @ turned.rotation,
                       turned.translation + [2.0, -1.0, 3.0])
            posed = self.check(model, gt, est, scene)
            # the copy that undoes the turn wins, and it is the only one posed in full
            assert posed == {len(model.symmetry) - k}

    def test_near_tie_between_two_copies(self, cylinder_scene):
        model, scene = cylinder_scene
        gt = scene.gt_poses["cyl"]
        # half a symmetry step about the axis: copies 0 and 11 tie up to rounding
        est = gt.compose(Pose(rotation_about_axis([0, 0, 1], np.pi / 12), np.zeros(3)))
        posed = self.check(model, gt, est, scene)
        assert {0, len(model.symmetry)} <= posed

    def test_bound_rounded_above_its_copy_does_not_prune_it(self):
        # a bound may round above its copy's exact value; within the slack it
        # must not prune that copy
        two_copies = SimpleNamespace(syms=[Pose.identity()] * 2)
        exact = {0: 1.0, 1: 1.0 - 1e-14}
        got = metrics._PosedCopies._min(two_copies, lambda: np.array([1.0, 1.0 + 1e-14]),
                                        exact.__getitem__, 100.0)
        assert got == 1.0 - 1e-14

    def test_typical_estimates(self, cylinder_scene):
        model, scene = cylinder_scene
        gt = scene.gt_poses["cyl"]
        g = rng(30)
        for _ in range(12):
            est = Pose(rotation_about_axis(g.normal(size=3), g.uniform(0, 0.3)) @ gt.rotation,
                       gt.translation + g.normal(0, 8, 3))
            assert len(self.check(model, gt, est, scene)) < 1 + len(model.symmetry)

    def test_box_without_symmetry(self):
        model = make_object({"shape": "box", "id": "box", "size": [40.0, 55.0, 75.0]})
        scene = generate_scene([model], 0.75, 0.18, seed=5)
        gt = scene.gt_poses["box"]
        g = rng(31)
        for _ in range(4):
            est = Pose(rotation_about_axis(g.normal(size=3), g.uniform(0, 0.3)) @ gt.rotation,
                       gt.translation + g.normal(0, 8, 3))
            assert self.check(model, gt, est, scene) == {0}

    def test_near_camera_falls_back_to_every_copy(self, cylinder_scene):
        model, scene = cylinder_scene
        gt = scene.gt_poses["cyl"]
        axis_on_view = np.eye(3)      # the cylinder's axis along the optical axis
        reach = float(np.linalg.norm(model.cloud.points, axis=1).max())
        # 60: safely in front, pruned. 45: the nearest cap at z = 5 mm, but the
        # reach (47.2 mm) allows a point behind the camera, so every copy is
        # posed. 20: the nearest cap behind the camera, MSPD infinite.
        for tz, pruned in ((60.0, True), (45.0, False), (20.0, False)):
            est = Pose(axis_on_view, [1.0, -2.0, tz])
            assert (tz - reach > 0) == pruned
            posed = self.check(model, gt, est, scene)
            if tz == 45.0:
                assert posed == set(range(1 + len(model.symmetry)))
        with pytest.raises(ValueError, match="behind camera"):
            mspd_score(model, gt, Pose(axis_on_view, [1.0, -2.0, 20.0]), scene.cam)


class TestEvaluatePose:
    """``evaluate_pose`` gives what the separate scores give."""

    def test_matches_separate_scores(self):
        cyl = make_cylinder("cyl", 25.0, 80.0, [0.3, 0.5, 0.7])
        box = make_object({"shape": "box", "id": "box", "size": [40.0, 55.0, 75.0]})
        scene = generate_scene([cyl, box], 0.75, 0.18, seed=6)
        g = rng(32)
        for model in (cyl, box):
            gt = scene.gt_poses[model.object_id]
            ests = [gt, gt.compose(model.symmetry[3]) if model.symmetry else gt]
            ests += [Pose(rotation_about_axis(g.normal(size=3), g.uniform(0, 0.4)) @ gt.rotation,
                          gt.translation + g.normal(0, 10, 3)) for _ in range(4)]
            for est in ests:
                got = evaluate_pose(model, gt, est, scene.cam, scene.depth)
                assert got.add == add_score(model, gt, est)
                assert got.add_i == add_i_score(model, gt, est)
                assert got.vsd == vsd_score(model, gt, est, scene.cam, scene.depth,
                                            metrics.VSD_TAU_FRACTION * model.diagonal)
                assert got.mssd == mssd_score(model, gt, est)
                assert got.mspd == mspd_score(model, gt, est, scene.cam)
                assert got.correct_add == add_correct(model, gt, est)
                assert got.bop_recall_contribution == recall_contribution(
                    model, gt, est, scene.cam, scene.depth)

    def test_estimate_behind_camera_gets_infinite_mspd(self):
        # box scene seed 2 with the estimate's translation moved to z = 20 mm
        model = make_object({"shape": "box", "id": "box", "size": [40.0, 55.0, 75.0]})
        scene = generate_scene([model], 0.0, 0.0, seed=2)
        gt = scene.gt_poses["box"]
        est = Pose(gt.rotation, [gt.translation[0], gt.translation[1], 20.0])
        got = evaluate_pose(model, gt, est, scene.cam, scene.depth)
        assert got.mspd == np.inf
        assert got.mssd == mssd_score(model, gt, est)
        assert got.vsd == vsd_score(model, gt, est, scene.cam, scene.depth,
                                    metrics.VSD_TAU_FRACTION * model.diagonal)
        assert got.bop_recall_contribution == recall_contribution(model, gt, est, scene.cam,
                                                                  scene.depth)
        assert scores_to_csv([("box", "s0", got)]).splitlines()[1].split(",")[6] == "inf"


class TestMetricScoreType:
    def test_rejects_add_i_above_add(self):
        with pytest.raises(ValueError):
            MetricScore(add=1.0, add_i=2.0, vsd=0.0, mssd=0.0, mspd=0.0,
                        correct_add=True, bop_recall_contribution=1.0)

    def test_rejects_out_of_range_fractions(self):
        with pytest.raises(ValueError):
            MetricScore(add=1.0, add_i=0.5, vsd=1.5, mssd=0.0, mspd=0.0,
                        correct_add=True, bop_recall_contribution=1.0)

    def test_csv_emission(self):
        score = MetricScore(add=1.0, add_i=0.5, vsd=0.1, mssd=2.0, mspd=3.0,
                            correct_add=True, bop_recall_contribution=0.9)
        text = scores_to_csv([("obj", "scene0", score)])
        lines = text.strip().splitlines()
        assert lines[0] == "object_id,scene_id,add,add_i,vsd,mssd,mspd,correct_add"
        assert lines[1].startswith("obj,scene0,1.000000,0.500000")
