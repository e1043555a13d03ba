"""The sha256 digests of fixed results, and the script that writes them to
``golden.json`` beside this file.

- ``estimate_all``: the benchmark experiment's two validation scenes at the
  deploy continuous parameters (``bench_inputs``). Per scene, prepared once
  in a scene memo (``pipeline.scene_memo``): the 48 grid tuples in grid order
  through that memo, as the grid phase of ``cmd_optimize`` runs them, then
  ``BO_FIXED_DISCRETE`` on a fresh copy of the scene memo, as a GP-UCB call
  runs it.
- ``deploy``: the ``deploy`` workload's first ``DEPLOY_IMAGES`` images at
  seed 0, each estimated at the deploy parameters with no memo.
- ``experiment``: the files a tiny experiment's ``generate``, ``train-dr``
  and ``optimize`` stages write under a counting pipeline clock, so the grid
  runtimes, the front and the runtime fit reproduce too: ``dr/*.json``,
  ``trace_dr.csv``, ``continuous_dr.json``, ``grid_dr.csv`` and
  ``front_dr.json``.
- ``search``: ``optimize_continuous`` on a fixed synthetic objective
  (``search_objective``) under ``SEARCH_SCHEDULE`` at seeds 0-2: every trace
  entry and the best point. Its 33 steps reach both the full hyper-parameter
  fits and the posterior-only refits between them, which the ``experiment``
  digest's one GP-UCB step does not.

Each ``estimate_all`` result adds its found flag, reason, pose bytes, inlier
count, depth score and flags. ``test_golden.py`` recomputes the digests and
compares them with the file. The file also names the numpy and scipy
versions it was made under, since the KD-tree and the linear algebra may move
results between versions.

A change that moves results on purpose rewrites the file with

    PYTHONPATH=src python tests/golden.py
"""

import hashlib
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import scipy

from posetune import pipeline, workflow
from posetune.bayesopt import Schedule, SearchSpace, optimize_continuous
from posetune.gridopt import enumerate_grid
from posetune.pipeline import SceneEstimate, estimate_all, scene_memo
from posetune.workflow import BO_FIXED_DISCRETE

from bench_inputs import (BENCH_GRID, BENCH_OBJECTS, DEPLOY_CP, DEPLOY_DP, deploy_images,
                          validation_scenes)

GOLDEN_PATH = Path(__file__).with_name("golden.json")
DEPLOY_IMAGES = 6
EXPERIMENT_FILES = ("dr/*.json", "opt/trace_dr.csv", "opt/continuous_dr.json",
                    "opt/grid_dr.csv", "opt/front_dr.json")
SEARCH_SCHEDULE = ((5, None), (14, 0.5), (8, 0.1), (6, 0.0))


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _add(digest, bundle: SceneEstimate):
    for object_id in sorted(bundle.results):
        result = bundle.results[object_id]
        digest.update(f"{object_id}|{result.found}|{result.reason}|".encode())
        h = result.hypothesis
        if h is not None:
            digest.update(h.pose.rotation.tobytes() + h.pose.translation.tobytes())
            digest.update(np.float64(h.depth_score).tobytes())
            digest.update(f"|{h.inlier_count}|{','.join(h.flags)}|".encode())


def results_digest() -> str:
    models, scenes = validation_scenes()
    grid = enumerate_grid(BENCH_GRID)
    digest = hashlib.sha256()
    for i, scene in enumerate(scenes):
        memo = scene_memo(scene)
        searched = dict(memo)
        for dp in grid:
            _add(digest, estimate_all(scene, models, DEPLOY_CP, dp, seed=i, memo=memo))
        _add(digest, estimate_all(scene, models, DEPLOY_CP, BO_FIXED_DISCRETE, seed=i,
                                  memo=searched))
    return digest.hexdigest()


def deploy_digest() -> str:
    models, scenes = deploy_images(DEPLOY_IMAGES)
    digest = hashlib.sha256()
    for i, scene in enumerate(scenes):
        _add(digest, estimate_all(scene, models, DEPLOY_CP, DEPLOY_DP, seed=i))
    return digest.hexdigest()


def experiment_config(output_dir) -> workflow.ExperimentConfig:
    """The benchmark objects, scenes and grid, with one scene per split, 10
    DR epochs and 3 GP-UCB calls."""
    return workflow.ExperimentConfig(
        objects=BENCH_OBJECTS, output_dir=str(output_dir), seed=0, train_scenes=1,
        validation_scenes=1, eval_scenes=1, epochs=10, clutter=0.75, occlusion=0.18,
        schedule=[[2, None], [1, 0.5]],
        grid={name: list(values) for name, values in vars(BENCH_GRID).items()})


def experiment_digest() -> str:
    saved = pipeline.clock
    pipeline.clock = itertools.count().__next__
    try:
        with tempfile.TemporaryDirectory() as out:
            config = experiment_config(out)
            for stage in (workflow.cmd_generate, workflow.cmd_train_dr, workflow.cmd_optimize):
                stage(config)
            digest = hashlib.sha256()
            for pattern in EXPERIMENT_FILES:
                for path in sorted(Path(out).glob(pattern)):
                    digest.update(f"{path.relative_to(out)}|".encode() + path.read_bytes())
            return digest.hexdigest()
    finally:
        pipeline.clock = saved


def search_objective(params) -> float:
    """One smooth peak in the default search space, floored to steps of 1/30
    as a recall ladder is, so that equal values occur."""
    unit = SearchSpace.default().normalize(params.as_vector())
    return float(np.floor(30.0 * np.exp(-4.0 * ((unit - 0.3) ** 2).sum())) / 30.0)


def search_digest() -> str:
    digest = hashlib.sha256()
    for seed in range(3):
        best, trace = optimize_continuous(search_objective, SearchSpace.default(),
                                          Schedule(SEARCH_SCHEDULE), seed=seed)
        for t in trace:
            digest.update(f"{t.iteration}|{t.kappa}|".encode() + t.params.as_vector().tobytes()
                          + np.float64(t.value).tobytes())
        digest.update(best.as_vector().tobytes())
    return digest.hexdigest()


def main():
    data = {"versions": versions(), "estimate_all": results_digest(),
            "deploy": deploy_digest(), "experiment": experiment_digest(),
            "search": search_digest()}
    GOLDEN_PATH.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}: {data}")


if __name__ == "__main__":
    main()
