"""Microbenchmarks of the per-pose kernels on one fixed DR-noised scene.

Marked ``kernel`` and left out of the default run; run them with

    PYTHONPATH=src python -m pytest -m kernel tests/test_kernel_bench.py

(pytest-benchmark; add ``--benchmark-autosave`` to keep results in
``.benchmarks/``).
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from posetune import metrics, pipeline
from posetune.geometry import Pose, rotation_about_axis
from posetune.objects import make_object
from posetune.pipeline import ContinuousParams, DiscreteParams, PoseHypothesis
from posetune.scenes import NoiseConfig, apply_domain_randomization, generate_scene

pytestmark = pytest.mark.kernel

# The benchmark's objects and deploy parameters (bench/deploy_params.json).
OBJECTS = [
    {"shape": "box", "id": "box", "size": [40.0, 55.0, 75.0], "color": [0.7, 0.3, 0.3]},
    {"shape": "cylinder", "id": "cyl", "radius": 25.0, "height": 80.0,
     "color": [0.3, 0.5, 0.7]},
]
CP = ContinuousParams(vote_threshold=0.1826, ransac_dist=34.35, icp_dist=10.0,
                      icp_scale=1.0, background_dist=88.2, accept_dist=20.0,
                      cut_radius=150.0)
DP = DiscreteParams(classified=4, estimated=2, ransac_iters=100, depth_checked=1,
                    icp_iters=6)
LEVELS = NoiseConfig(xyz_sigma=4.0, normal_sigma=0.04, rgb_sigma=0.035, rgb_shift=0.07,
                     rotation_max=6.25, flatten_frac=0.02)


def _offset(gt):
    """A hypothesis near the truth, as RANSAC hands it to ICP."""
    return Pose(rotation_about_axis([1.0, 0.5, 0.0], 0.06) @ gt.rotation,
                gt.translation + [3.0, -2.0, 4.0])


@pytest.fixture(scope="module")
def setting():
    models = {spec["id"]: make_object(spec) for spec in OBJECTS}
    scene = apply_domain_randomization(
        generate_scene(list(models.values()), 0.75, 0.18, seed=1_000_000), LEVELS, seed=0)
    near = {oid: np.flatnonzero(np.linalg.norm(scene.cloud.points - scene.gt_poses[oid].translation,
                                               axis=1) < 1.2 * model.diagonal)
            for oid, model in models.items()}
    return dict(scene=scene, cyl=models["cyl"], gt=scene.gt_poses["cyl"],
                est=_offset(scene.gt_poses["cyl"]), target=scene.cloud.points[near["cyl"]],
                candidate=scene.cloud.select(near["cyl"]), models=models,
                box_est=_offset(scene.gt_poses["box"]), box_target=scene.cloud.points[near["box"]],
                prep=pipeline.prepare_scene(scene, CP, DP, seed=0))


def test_depth_check(benchmark, setting):
    hyp = PoseHypothesis(setting["est"], 50)
    out = benchmark(pipeline.depth_check, hyp, setting["scene"], setting["cyl"],
                    CP.background_dist, CP.accept_dist, setting["prep"].depth_edges)
    assert 0.0 <= out.depth_score <= 1.0


def test_recall_contribution_cylinder(benchmark, setting):
    scene = setting["scene"]
    out = benchmark(metrics.recall_contribution, setting["cyl"], setting["gt"],
                    setting["est"], scene.cam, scene.depth)
    assert 0.0 <= out <= 1.0


def _icp_case(model, est, target):
    """``_icp_refine``'s arguments as ``estimate_all`` passes them: the model
    points that face the camera at the hypothesis."""
    model_pts = pipeline.facing_points(pipeline.icp_model_points(model), est)
    return (PoseHypothesis(est, 50), cKDTree(target), target, model_pts, model.diagonal,
            CP.icp_dist, CP.icp_scale, DP.icp_iters)


def _icp_steps(args, monkeypatch):
    """How many ICP steps ``_icp_refine`` takes on ``args``."""
    steps = []
    original = pipeline.kabsch
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "kabsch", lambda src, dst: steps.append(1) or original(src, dst))
        pipeline._icp_refine(*args)
    return len(steps)


def test_icp_refine(benchmark, setting, monkeypatch):
    # the cylinder creeps: every one of the 3 x icp_iters steps is taken
    args = _icp_case(setting["cyl"], setting["est"], setting["target"])
    assert _icp_steps(args, monkeypatch) == pipeline.FIXED.icp_resolutions * DP.icp_iters
    out = benchmark(pipeline._icp_refine, *args)
    assert "icp stalled" not in out.flags


def test_icp_refine_fixed_point(benchmark, setting, monkeypatch):
    # the box reaches its fixed point before the last step, so the exit is timed
    args = _icp_case(setting["models"]["box"], setting["box_est"], setting["box_target"])
    assert _icp_steps(args, monkeypatch) < pipeline.FIXED.icp_resolutions * DP.icp_iters
    out = benchmark(pipeline._icp_refine, *args)
    assert "icp stalled" not in out.flags


def test_voxel_downsample(benchmark, setting):
    cloud = setting["scene"].cloud
    out = benchmark(pipeline.voxel_downsample, cloud, pipeline.FIXED.scene_voxel)
    assert 0 < len(out) <= len(cloud)


def test_prepare_scene(benchmark, setting):
    prep = benchmark(pipeline.prepare_scene, setting["scene"], CP, DP, 0)
    assert len(prep.seed_indices) > 0


def test_render_depth(benchmark, setting):
    scene = setting["scene"]
    points = setting["est"].apply(setting["cyl"].cloud.points)
    depth = benchmark(pipeline.render_depth, points, scene.cam)
    assert depth.shape == (scene.cam.height, scene.cam.width)


def test_depth_edges(benchmark, setting):
    depth = setting["scene"].depth
    edges = benchmark(pipeline._depth_edges, depth)
    assert edges.shape == depth.shape and edges.any()


def test_ransac_pose(benchmark, setting):
    cyl = setting["cyl"]
    matches = pipeline.generate_votes(setting["candidate"], cyl, CP.vote_threshold,
                                      setting["gt"], seed=0)
    hyps = benchmark(pipeline.ransac_pose, matches, CP.ransac_dist, DP.ransac_iters,
                     cyl.diagonal, 0)
    assert hyps


def test_generate_scene(benchmark, setting):
    scene = benchmark(generate_scene, list(setting["models"].values()), 0.75, 0.18, 1_000_001)
    assert len(scene.gt_poses) == len(OBJECTS)
