import numpy as np
import pytest

from posetune.camera import CameraIntrinsics, default_camera, render_depth
from posetune.geometry import ObjectModel, PointCloud, Pose, random_rotation, rotation_about_axis
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


def rng(seed=0):
    return np.random.default_rng(seed)


def make_model(points, symmetry=(), object_id="obj") -> ObjectModel:
    return ObjectModel.from_cloud(object_id, PointCloud(points), symmetry)


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
        assert add_correct(box_model, pose, pose, symmetric=False)

    @pytest.mark.parametrize("fraction,expected", [(0.2, False), (0.09, True)])
    def test_threshold_behavior(self, box_model, fraction, expected):
        gt = random_pose(rng(7))
        offset = np.array([1.0, 0, 0]) * fraction * box_model.diagonal
        est = Pose(gt.rotation, gt.translation + offset)
        assert add_correct(box_model, gt, est, symmetric=False) is expected


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
