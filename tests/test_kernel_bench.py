"""Microbenchmarks of the per-pose kernels on one fixed DR-noised scene, of
scene I/O, and of the GP-UCB fit and acquisition.

Marked ``kernel`` and left out of the default run; run them with

    PYTHONPATH=src python -m pytest -m kernel tests/test_kernel_bench.py

(pytest-benchmark; add ``--benchmark-autosave`` to keep results in
``.benchmarks/``).
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from posetune import bayesopt, metrics, pipeline, workflow
from posetune.geometry import Pose, rotation_about_axis
from posetune.gridopt import GridSpec, enumerate_grid
from posetune.objects import make_object
from posetune.pipeline import ContinuousParams, DiscreteParams
from posetune.scenes import (NoiseConfig, apply_domain_randomization, generate_scene, load_scene,
                             save_scene)
from posetune.seeding import stream_seed

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
# The benchmark experiment's grid (bench/workloads.py): 48 feasible tuples.
GRID = enumerate_grid(GridSpec(classified=(2, 4, 8), estimated=(1, 2), ransac_iters=(100, 300),
                               depth_checked=(1, 2), icp_iters=(2, 6)))
# GP-UCB observations: enough for the per-dimension refinement pass in gp_fit.
GP_OBSERVATIONS = 40


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
                models=models,
                box_est=_offset(scene.gt_poses["box"]), box_target=scene.cloud.points[near["box"]],
                preparation=pipeline.prepare(scene))


def test_depth_check(benchmark, setting):
    score = benchmark(pipeline.depth_check, setting["est"], setting["scene"], setting["cyl"],
                      CP.background_dist, CP.accept_dist, setting["preparation"].depth_edges)
    assert 0.0 <= score <= 1.0


def test_recall_contribution_cylinder(benchmark, setting):
    scene = setting["scene"]
    out = benchmark(metrics.recall_contribution, setting["cyl"], setting["gt"],
                    setting["est"], scene.cam, scene.depth)
    assert 0.0 <= out <= 1.0


def _icp_case(model, est, target):
    """``_icp_refine``'s arguments as ``estimate_all`` passes them: the model
    points that face the camera at the hypothesis."""
    model_pts = pipeline.facing_points(pipeline.icp_model_points(model), est)
    return (est, cKDTree(target), model_pts, model.diagonal, CP.icp_dist, CP.icp_scale,
            DP.icp_iters)


def _icp_steps(args, monkeypatch):
    """How many ICP steps ``_icp_refine`` takes on ``args``."""
    steps = []
    original = pipeline._rigid_fit
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_rigid_fit",
                      lambda src, dst: steps.append(1) or original(src, dst))
        pipeline._icp_refine(*args)
    return len(steps)


def test_icp_refine(benchmark, setting, monkeypatch):
    # the cylinder creeps: every one of the 3 x icp_iters steps is taken
    args = _icp_case(setting["cyl"], setting["est"], setting["target"])
    assert _icp_steps(args, monkeypatch) == pipeline.ICP_RESOLUTIONS * DP.icp_iters
    assert benchmark(pipeline._icp_refine, *args) is not None


def test_icp_refine_fixed_point(benchmark, setting, monkeypatch):
    # the box reaches its fixed point before the last step, so the exit is timed
    args = _icp_case(setting["models"]["box"], setting["box_est"], setting["box_target"])
    assert _icp_steps(args, monkeypatch) < pipeline.ICP_RESOLUTIONS * DP.icp_iters
    assert benchmark(pipeline._icp_refine, *args) is not None


def test_voxel_downsample(benchmark, setting):
    cloud = setting["scene"].cloud
    out = benchmark(pipeline.voxel_downsample, cloud, pipeline.SCENE_VOXEL)
    assert 0 < len(out) <= len(cloud)


def test_prepare(benchmark, setting):
    # the per-scene half of preprocessing, done once per validation scene
    prepared = benchmark(pipeline.prepare, setting["scene"])
    assert prepared.tree.n == len(prepared.cloud) and prepared.depth_edges.any()


def test_choose_seeds(benchmark, setting):
    # the per-call half, done by every estimate_all call
    indices, density = benchmark(pipeline.choose_seeds, setting["preparation"], CP, DP, 0)
    assert len(indices) > 0 and len(density) == len(indices)


@pytest.fixture(scope="module")
def validation(setting):
    """The benchmark experiment's first validation scene, with its scene memo
    (``pipeline.scene_memo``) and its estimate seed, as ``cmd_optimize``
    searches on it."""
    models = list(setting["models"].values())
    scene = apply_domain_randomization(
        generate_scene(models, 0.75, 0.18, seed=stream_seed(0, "scene", "validation", 0)),
        LEVELS, seed=stream_seed(0, "valnoise-dr", 0))
    return dict(scene=scene, models=models, memo=pipeline.scene_memo(scene),
                seed=stream_seed(0, "est", 0))


def test_grid_phase(benchmark, validation):
    # every grid tuple through one copy of the scene memo, as cmd_optimize runs it
    def grid_phase():
        memo = dict(validation["memo"])
        return [pipeline.estimate_all(validation["scene"], validation["models"], CP, dp,
                                      seed=validation["seed"], memo=memo) for dp in GRID]

    out = benchmark(grid_phase)
    assert len(out) == 48 and any(r.found for e in out for r in e.results.values())


def test_heavy_tuple(benchmark, validation):
    # one GP-UCB-phase call: the heavy tuple on a fresh copy of the scene memo
    out = benchmark(lambda: pipeline.estimate_all(
        validation["scene"], validation["models"], CP, workflow.BO_FIXED_DISCRETE,
        seed=validation["seed"], memo=dict(validation["memo"])))
    assert any(r.found for r in out.results.values())


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
    matches = pipeline.generate_votes(setting["target"], cyl, CP.vote_threshold,
                                      setting["gt"], seed=0)
    hyps = benchmark(pipeline.ransac_pose, matches, CP.ransac_dist, DP.ransac_iters,
                     cyl.diagonal, 0)
    assert hyps


def test_generate_scene(benchmark, setting):
    scene = benchmark(generate_scene, list(setting["models"].values()), 0.75, 0.18, 1_000_001)
    assert len(scene.gt_poses) == len(OBJECTS)


def test_save_scene(benchmark, setting, tmp_path):
    benchmark(save_scene, setting["scene"], tmp_path / "scene")
    assert (tmp_path / "scene" / "points.npy").exists()


def test_load_scene(benchmark, setting, tmp_path):
    scene = setting["scene"]
    save_scene(scene, tmp_path / "scene")
    loaded = benchmark(load_scene, tmp_path / "scene")
    assert np.array_equal(loaded.depth, scene.depth)


@pytest.fixture(scope="module")
def observations():
    space = bayesopt.SearchSpace.default()
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(GP_OBSERVATIONS, space.dim))
    y = np.exp(-4.0 * ((x - 0.3) ** 2).sum(axis=1)) + rng.normal(0.0, 0.02, GP_OBSERVATIONS)
    return space, x, y


def test_gp_fit(benchmark, observations):
    _, x, y = observations
    gp = benchmark(bayesopt.gp_fit, x, y)
    assert len(gp.y) == GP_OBSERVATIONS


def test_ucb_acquire(benchmark, observations):
    space, x, y = observations
    gp = bayesopt.gp_fit(x, y)
    point = benchmark(lambda: bayesopt.ucb_acquire(gp, 0.5, np.random.default_rng(1), space))
    assert ((point >= space.lower) & (point <= space.upper)).all()
