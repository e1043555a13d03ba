"""The benchmark's two workloads.

configure
    ``cmd_generate``, ``cmd_train_dr`` and ``cmd_optimize`` on one fixed
    small experiment, written into a fresh output directory. One operation
    is one objective evaluation: a GP-UCB iteration or a grid tuple. The
    seed does not change this experiment: any change to its inputs sends the
    search down another path, and the amount of work and the recall follow.
    Over master seeds 0-4 the best GP-UCB recall ranged 0.47-0.95. With the
    master seed fixed and object sizes and colours moved by up to 5%, one
    round took 53-69 s; moved by 0.5%, the grid's best recall still ranged
    0.57-0.73. No useful bound holds across such inputs.
deploy
    The configured estimator (``deploy_params.json``) on fresh DR-noised
    images made from the seed: one ``estimate_all`` call per image, then
    ``recall_contribution`` per instance. One operation is one image.

Both run whole rounds: at least a fixed number, then more while another
round still fits in ``seconds`` of timed work. Quality figures come from
the fixed rounds only, so they do not depend on how fast the host is.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from posetune import metrics, objects, pipeline, scenes, workflow

from checks import check_configure, check_deploy_image
from tracing import Patches, Tracer

# Master seed of the configure experiment; deploy_params.json is derived at it.
BENCH_SEED = 0
# ROADMAP item 1's tiny config with 2 validation scenes and a cheaper grid,
# so one configure round takes about a minute on 2 cores.
EXPERIMENT = {
    "train_scenes": 2,
    "validation_scenes": 2,
    "eval_scenes": 1,
    "epochs": 20,
    "clutter": 0.75,
    "occlusion": 0.18,
    "schedule": [[4, None], [4, 0.5]],
    "grid": {"classified": [2, 4, 8], "estimated": [1, 2], "ransac_iters": [100, 300],
             "depth_checked": [1, 2], "icp_iters": [2, 6]},
}
OBJECTS = [
    {"shape": "box", "id": "box", "size": [40.0, 55.0, 75.0], "color": [0.7, 0.3, 0.3]},
    {"shape": "cylinder", "id": "cyl", "radius": 25.0, "height": 80.0, "color": [0.3, 0.5, 0.7]},
]

SETUP_REPEATS = 3
CONFIGURE_MIN_ROUNDS = 1
DEPLOY_BATCH = 20
DEPLOY_MIN_ROUNDS = 6
PARAMS_PATH = Path(__file__).with_name("deploy_params.json")


@dataclass
class Run:
    """What one run measured and found."""

    setup_s: list[float] = field(default_factory=list)   # per set-up
    round_s: list[float] = field(default_factory=list)   # timed part of each round
    image_s: list[float] = field(default_factory=list)   # per estimate_all call
    attempted: int = 0
    failed: int = 0
    recall: float = 0.0
    grid_recall: float = 0.0
    problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def wants_round(self, min_rounds: int, seconds: float, traced: bool) -> bool:
        done = len(self.round_s)
        if done < min_rounds:
            return True
        if traced:
            return False
        return sum(self.round_s) + statistics.median(self.round_s) <= seconds

    def count(self, call, span_name: str, tracer: Tracer | None):
        """``call`` counted as one operation; one that raises counts as failed.

        The searches score a raised objective as 0 without saying so, so the
        failure is recorded here before the exception goes on to them.
        """
        def counted(*args, **kwargs):
            self.attempted += 1
            try:
                with tracer.span(span_name) if tracer else nullcontext():
                    return call(*args, **kwargs)
            except Exception as exc:
                self.failed += 1
                self.errors.append(repr(exc))
                raise
        return counted


def experiment_config(work_dir: Path) -> workflow.ExperimentConfig:
    return workflow.ExperimentConfig(objects=OBJECTS, output_dir=str(work_dir),
                                     seed=BENCH_SEED, **EXPERIMENT)


def configure(seed: int, seconds: float, work_dir: Path, tracer: Tracer | None) -> Run:
    # ``seed`` is not used: see the module docstring.
    run = Run()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        config = experiment_config(work_dir)
        run.setup_s.append(time.perf_counter() - start)

    searches: dict = {}

    def continuous(original):
        def search(objective, *args, **kwargs):
            objective = run.count(objective, "bayesopt.objective", tracer)
            searches["continuous"] = original(objective, *args, **kwargs)
            return searches["continuous"]
        return search

    def grid(original):
        def search(tuples, objective, *args, **kwargs):
            objective = run.count(objective, "gridopt.objective", tracer)
            clock.append(run.image_s)
            try:
                searches["grid"] = original(tuples, objective, *args, **kwargs)
            finally:
                clock.pop()
            return searches["grid"]
        return search

    # Per-image times come from the grid phase only: its 48 cheap tuples form
    # one group, while the 90th percentile over both phases would be the time
    # of one or two single GP-UCB calls at the heavy tuple.
    clock: list[list[float]] = []

    def clocked(original):
        def estimate_all(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            if clock:
                clock[-1].append(time.perf_counter() - start)
            return result
        return estimate_all

    patches = Patches()
    patches.replace(workflow, "optimize_continuous", continuous)
    patches.replace(workflow, "evaluate_grid", grid)
    patches.replace(workflow, "estimate_all", clocked)
    try:
        while run.wants_round(CONFIGURE_MIN_ROUNDS, seconds, tracer is not None):
            shutil.rmtree(work_dir, ignore_errors=True)
            start = time.perf_counter()
            workflow.cmd_generate(config)
            workflow.cmd_train_dr(config)
            workflow.cmd_optimize(config)
            run.round_s.append(time.perf_counter() - start)

            _, trace = searches["continuous"]
            entries = searches["grid"]
            with tracer.paused() if tracer else nullcontext():
                run.problems += check_configure(work_dir, EXPERIMENT, trace, entries)
            recall = max(entry.value for entry in trace)
            grid_recall = max(entry.recall for entry in entries)
            if len(run.round_s) == 1:
                run.recall, run.grid_recall = recall, grid_recall
            elif (recall, grid_recall) != (run.recall, run.grid_recall):
                run.problems.append("recall differs between rounds of one seed")
    finally:
        patches.close()
    return run


def load_deploy_params(path: Path = PARAMS_PATH):
    data = json.loads(path.read_text())
    if data["objects"] != OBJECTS or data["seed"] != BENCH_SEED:
        raise ValueError(f"{path.name} was derived for other objects or another seed; "
                         f"run bench/derive_params.py")
    return (pipeline.ContinuousParams(**data["continuous"]),
            pipeline.DiscreteParams.from_dict(data["discrete"]),
            scenes.NoiseConfig(**data["levels"]))


def deploy(seed: int, seconds: float, work_dir: Path, tracer: Tracer | None) -> Run:
    run = Run()
    cp, dp, levels = load_deploy_params()
    quality: list[float] = []
    while run.wants_round(DEPLOY_MIN_ROUNDS, seconds, tracer is not None):
        round_index = len(run.round_s)
        start = time.perf_counter()
        models = [objects.make_object(spec) for spec in OBJECTS]
        batch = []
        for index in range(round_index * DEPLOY_BATCH, (round_index + 1) * DEPLOY_BATCH):
            scene = scenes.generate_scene(models, EXPERIMENT["clutter"], EXPERIMENT["occlusion"],
                                          seed=seed * 1_000_000 + index)
            batch.append((index, scenes.apply_domain_randomization(scene, levels, seed=index)))
        run.setup_s.append(time.perf_counter() - start)

        scored = []
        start = time.perf_counter()
        for index, scene in batch:
            run.attempted += 1
            try:
                began = time.perf_counter()
                bundle = pipeline.estimate_all(scene, models, cp, dp, seed=index)
                elapsed = time.perf_counter() - began
                scores = []
                for model in models:
                    result = bundle.results[model.object_id]
                    scores.append(metrics.recall_contribution(
                        model, scene.gt_poses[model.object_id], result.hypothesis.pose,
                        scene.cam, scene.depth) if result.found else 0.0)
            except Exception as exc:
                run.failed += 1
                run.errors.append(repr(exc))
                continue
            run.image_s.append(elapsed)
            scored.append((scene, bundle, scores))
        run.round_s.append(time.perf_counter() - start)

        with tracer.paused() if tracer else nullcontext():
            for position, (scene, bundle, scores) in enumerate(scored):
                run.problems += check_deploy_image(scene, models, bundle, scores,
                                                   self_score=position == 0)
        if round_index < DEPLOY_MIN_ROUNDS:
            quality += [s for _, _, scores in scored for s in scores]
    # Only the selected grid tuple runs here, so its recall is the recall.
    run.recall = run.grid_recall = float(np.mean(quality))
    return run


WORKLOADS = {"configure": configure, "deploy": deploy}
