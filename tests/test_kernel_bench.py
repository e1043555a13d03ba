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


@pytest.fixture(scope="module")
def setting():
    models = {spec["id"]: make_object(spec) for spec in OBJECTS}
    scene = apply_domain_randomization(
        generate_scene(list(models.values()), 0.75, 0.18, seed=1_000_000), LEVELS, seed=0)
    cyl = models["cyl"]
    gt = scene.gt_poses["cyl"]
    near = np.linalg.norm(scene.cloud.points - gt.translation, axis=1) < 1.2 * cyl.diagonal
    est = Pose(rotation_about_axis([1.0, 0.5, 0.0], 0.06) @ gt.rotation,
               gt.translation + [3.0, -2.0, 4.0])
    return dict(scene=scene, cyl=cyl, gt=gt, est=est, target=scene.cloud.points[near],
                prep=pipeline.prepare_scene(scene, CP, DP, seed=0))


def test_depth_check(benchmark, setting):
    hyp = PoseHypothesis(setting["est"], 50)
    out = benchmark(pipeline.depth_check, hyp, setting["scene"], setting["cyl"],
                    CP.background_dist, CP.accept_dist, setting["scene"].cam,
                    setting["prep"].depth_edges)
    assert 0.0 <= out.depth_score <= 1.0


def test_recall_contribution_cylinder(benchmark, setting):
    scene = setting["scene"]
    out = benchmark(metrics.recall_contribution, setting["cyl"], setting["gt"],
                    setting["est"], scene.cam, scene.depth)
    assert 0.0 <= out <= 1.0


def test_icp_refine(benchmark, setting):
    cyl, target = setting["cyl"], setting["target"]
    tree = cKDTree(target)
    model_pts = pipeline.icp_model_points(cyl)
    out = benchmark(pipeline._icp_refine, PoseHypothesis(setting["est"], 50), tree, target,
                    model_pts, cyl.diagonal, CP.icp_dist, CP.icp_scale, DP.icp_iters)
    assert "icp stalled" not in out.flags


def test_voxel_downsample(benchmark, setting):
    cloud = setting["scene"].cloud
    out = benchmark(pipeline.voxel_downsample, cloud, pipeline.FIXED.scene_voxel)
    assert 0 < len(out) <= len(cloud)


def test_prepare_scene(benchmark, setting):
    prep = benchmark(pipeline.prepare_scene, setting["scene"], CP, DP, 0)
    assert len(prep.seed_indices) > 0
