"""The benchmark experiment's inputs, as the tests rebuild them without
running its stages: its objects, the DR levels that ``train-dr`` learns for
them at master seed 0 and the deploy parameters, all read from
``bench/deploy_params.json`` so that a benchmark which derives that file
again moves the digests in ``test_golden.py``; its grid, its two DR-noised
validation scenes, and the ``deploy`` workload's DR-noised images.
"""

import json
from pathlib import Path

from posetune.gridopt import GridSpec
from posetune.objects import make_object
from posetune.pipeline import ContinuousParams, DiscreteParams
from posetune.scenes import NoiseConfig, apply_domain_randomization, generate_scene
from posetune.seeding import stream_seed

_DEPLOY_PARAMS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "deploy_params.json").read_text())
BENCH_OBJECTS = _DEPLOY_PARAMS["objects"]
BENCH_LEVELS = NoiseConfig(**_DEPLOY_PARAMS["levels"])
DEPLOY_CP = ContinuousParams(**_DEPLOY_PARAMS["continuous"])
DEPLOY_DP = DiscreteParams(**_DEPLOY_PARAMS["discrete"])
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
