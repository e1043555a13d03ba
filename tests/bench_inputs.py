"""The benchmark experiment's inputs, as the tests rebuild them without
running its stages: its objects, the DR levels that ``train-dr`` learns for
them at master seed 0 and the deploy parameters (all from
``bench/deploy_params.json``), its grid, its two DR-noised validation
scenes, and the ``deploy`` workload's DR-noised images.
"""

from posetune.gridopt import GridSpec
from posetune.objects import make_object
from posetune.pipeline import ContinuousParams, DiscreteParams
from posetune.scenes import NoiseConfig, apply_domain_randomization, generate_scene
from posetune.seeding import stream_seed

BENCH_OBJECTS = [
    {"shape": "box", "id": "box", "size": [40.0, 55.0, 75.0], "color": [0.7, 0.3, 0.3]},
    {"shape": "cylinder", "id": "cyl", "radius": 25.0, "height": 80.0,
     "color": [0.3, 0.5, 0.7]},
]
BENCH_LEVELS = NoiseConfig(xyz_sigma=4.0, normal_sigma=0.04, rgb_sigma=0.035, rgb_shift=0.07,
                           rotation_max=6.25, flatten_frac=0.02)
DEPLOY_CP = ContinuousParams(vote_threshold=0.18256880613712556, ransac_dist=34.34857084466563,
                             icp_dist=9.996781928455857, icp_scale=1.0,
                             background_dist=88.2001910987532, accept_dist=20.0,
                             cut_radius=150.0)
DEPLOY_DP = DiscreteParams(classified=4, estimated=2, ransac_iters=100, depth_checked=1,
                           icp_iters=6)
# The benchmark experiment's grid (bench/workloads.py): 48 feasible tuples.
BENCH_GRID = GridSpec(classified=(2, 4, 8), estimated=(1, 2), ransac_iters=(100, 300),
                      depth_checked=(1, 2), icp_iters=(2, 6))


def validation_scenes():
    """``(models, scenes)``: the benchmark objects and the experiment's two
    validation scenes, noised as ``cmd_optimize`` noises them at master seed 0."""
    models = [make_object(spec) for spec in BENCH_OBJECTS]
    scenes = [apply_domain_randomization(
        generate_scene(models, 0.75, 0.18, seed=stream_seed(0, "scene", "validation", i)),
        BENCH_LEVELS, seed=stream_seed(0, "valnoise-dr", i)) for i in range(2)]
    return models, scenes


def deploy_images(count: int):
    """``(models, scenes)``: the benchmark objects and the ``deploy`` workload's
    first ``count`` images at seed 0; image ``i`` is estimated with seed ``i``."""
    models = [make_object(spec) for spec in BENCH_OBJECTS]
    scenes = [apply_domain_randomization(generate_scene(models, 0.75, 0.18, seed=i),
                                         BENCH_LEVELS, seed=i) for i in range(count)]
    return models, scenes
