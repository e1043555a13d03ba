"""End-to-end experiment stages.

Four resumable stages share one output directory: scene generation, noise
scheduling against the surrogate trainer, the two-phase parameter
optimization, and held-out evaluation with budget selection. All randomness
derives from the config's master seed through named sub-streams, so re-runs
reproduce the scenes, the DR traces, the continuous search and the grid
recalls byte for byte. What depends on measured wall time does not: the grid
``runtime`` and stage-time columns, and through them ``front_*.json`` (the
Pareto front and the fitted runtime coefficients) and the budget selection
made from them. Those times come from the pipeline's ``clock``; with a
counting clock in its place they reproduce too.

``cmd_optimize`` prepares each validation scene once for the whole search.
During the grid phase ``cp`` and each scene's seed stay fixed, so tuples
share stage results: each scene gets one stage memo for that phase, keyed
per stage by what the stage reads. Tuples that share ``classified`` share the
ranking, and the votes and (at equal ``ransac_iters``) the RANSAC runs of
the candidates they both estimate. ICP and the depth check are keyed by the
pose they read, so tuples that find the same pose refine and check it once.
A found pose is scored once per search. Every reused stage still charges its
measured time, so the stage times, the grid runtimes and the runtime fit
state what a fresh image costs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .bayesopt import Schedule, SearchSpace, default_schedule, optimize_continuous, trace_to_csv
from .geometry import ObjectModel
from .gridopt import (
    MIN_MEASUREMENTS,
    GridSpec,
    ParetoEntry,
    RuntimeCoefficients,
    enumerate_grid,
    evaluate_grid,
    fit_runtime_model,
    measurements_to_csv,
    pareto_front,
    predict_runtime,
    select_for_budget,
)
from .metrics import MetricScore, add_correct, evaluate_pose, recall_contribution, scores_to_csv
from .objects import check_spec_keys, make_object, save_object
from .pipeline import (STAGE_KEYS, ContinuousParams, DiscreteParams, PreparedScene,
                       estimate_all, prepare)
from .scenes import NoiseConfig, Scene, apply_domain_randomization, generate_scene, load_scene, save_scene
from .scheduler import run_scheduled_training
from .seeding import stream_seed
from .training import SurrogateTrainer

# Discrete values pinned during the continuous search.
BO_FIXED_DISCRETE = DiscreteParams(classified=32, estimated=6, ransac_iters=500,
                                   depth_checked=2, icp_iters=10)


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def default_grid() -> GridSpec:
    """Desk-scale grid covering the cheap-to-thorough range."""
    return GridSpec(classified=(2, 4, 8), estimated=(1, 2), ransac_iters=(100, 500),
                    depth_checked=(1, 2), icp_iters=(2, 10))


@dataclass
class ExperimentConfig:
    objects: list[dict]
    output_dir: str
    seed: int = 0
    train_scenes: int = 3
    validation_scenes: int = 9
    eval_scenes: int = 20
    clutter: float = 0.75
    occlusion: float = 0.18
    epochs: int = 60
    metric: str = "bop"
    budget_seconds: float = 4.0
    schedule: list | None = None
    grid: dict | None = None

    def __post_init__(self):
        for name in ("train_scenes", "validation_scenes", "eval_scenes", "epochs"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, not {value!r}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, not {self.seed!r}")
        for name in ("budget_seconds", "clutter", "occlusion"):
            value = getattr(self, name)
            if type(value) not in (int, float):
                raise ValueError(f"{name} must be a number, not {value!r}")
        if not self.budget_seconds > 0:
            raise ValueError("budget_seconds must be positive")
        for name in ("clutter", "occlusion"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.metric not in ("bop", "add"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if not self.objects:
            raise ValueError("no objects configured")
        for spec in self.objects:
            check_spec_keys(spec)
        repeated = _repeated([spec["id"] for spec in self.objects if "id" in spec])
        if repeated:
            raise ValueError(f"repeated object ids {repeated}")
        for name, build in (("schedule", self.bo_schedule), ("grid", self.grid_spec)):
            try:
                build()
            except (ValueError, TypeError) as exc:
                raise ValueError(f"bad {name} {getattr(self, name)!r}: {exc}") from exc

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return ExperimentConfig(**data)

    def fingerprint(self) -> str:
        return hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True).encode()).hexdigest()

    def bo_schedule(self) -> Schedule:
        if self.schedule is None:
            return default_schedule()
        return Schedule(tuple((c, None if k is None else float(k)) for c, k in self.schedule))

    def grid_spec(self) -> GridSpec:
        """The grid, which must hold enough feasible tuples for the runtime fit."""
        spec = default_grid() if self.grid is None else GridSpec(**self.grid)
        count = len(enumerate_grid(spec))
        if count < MIN_MEASUREMENTS:
            raise ValueError(f"{count} feasible tuples; the runtime fit needs at least "
                             f"{MIN_MEASUREMENTS}")
        return spec

    def out(self) -> Path:
        return Path(self.output_dir)


def _marker(config: ExperimentConfig, stage: str) -> Path:
    return config.out() / f"{stage}.done.json"


def _stage_complete(config: ExperimentConfig, stage: str) -> dict | None:
    """The stage's summary if its marker matches this config, else None.

    A marker that does not parse, or lacks ``config_hash`` or ``summary``,
    counts as not done, so the stage runs again and rewrites it.
    """
    marker = _marker(config, stage)
    if not marker.exists():
        return None
    try:
        data = json.loads(marker.read_text())
        if data["config_hash"] != config.fingerprint():
            return None
        return dict(data["summary"], skipped=True)
    except (ValueError, KeyError, TypeError):
        return None


def _finish_stage(config: ExperimentConfig, stage: str, summary: dict) -> dict:
    """Write the stage marker atomically: a temporary file in the same
    directory, then ``os.replace`` over the marker."""
    config.out().mkdir(parents=True, exist_ok=True)
    marker = _marker(config, stage)
    partial = marker.with_name(marker.name + ".tmp")
    partial.write_text(json.dumps(
        {"stage": stage, "config_hash": config.fingerprint(),
         "summary": summary}, sort_keys=True, indent=1))
    os.replace(partial, marker)
    return dict(summary, skipped=False)


def _repeated(ids: list[str]) -> list[str]:
    return sorted({i for i in ids if ids.count(i) > 1})


def build_models(config: ExperimentConfig, stage: str) -> list[ObjectModel]:
    """The configured models, for the calling ``stage``. A spec that cannot
    build one, such as an object directory without ``normals.npy`` or
    ``colors.npy``, fails here with ``StageError(stage)`` before the stage
    does any work; so do two models with one id, which a config cannot catch
    when an object directory holds its id in ``model.json``."""
    try:
        models = [make_object(spec) for spec in config.objects]
    except (KeyError, ValueError, OSError) as exc:
        raise StageError(stage, f"bad object spec: {exc}") from exc
    repeated = _repeated([model.object_id for model in models])
    if repeated:
        raise StageError(stage, f"repeated object ids {repeated}")
    return models


SPLITS = ("train", "validation", "eval")


def _split_count(config: ExperimentConfig, split: str) -> int:
    return getattr(config, f"{split}_scenes")


def _scene_dir(config: ExperimentConfig, split: str, index: int) -> Path:
    return config.out() / "scenes" / split / f"scene_{index:03d}"


def load_split(config: ExperimentConfig, split: str) -> list[Scene]:
    return [load_scene(_scene_dir(config, split, i))
            for i in range(_split_count(config, split))]


def cmd_generate(config: ExperimentConfig, force: bool = False) -> dict:
    """Write object files, seeded scenes for every split, and the manifest."""
    done = _stage_complete(config, "generate")
    if done and not force:
        return done
    models = build_models(config, "generate")
    out = config.out()
    for model in models:
        save_object(model, out / "objects" / model.object_id)
    manifest: dict = {"object_ids": sorted(m.object_id for m in models),
                      "splits": {}}
    try:
        for split in SPLITS:
            seeds = []
            for i in range(_split_count(config, split)):
                scene_seed = stream_seed(config.seed, "scene", split, i)
                scene = generate_scene(models, config.clutter, config.occlusion,
                                       seed=scene_seed)
                save_scene(scene, _scene_dir(config, split, i))
                seeds.append(scene_seed)
            manifest["splits"][split] = {"count": len(seeds), "seeds": seeds}
    except OSError as exc:
        raise StageError("generate", str(exc)) from exc
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    summary = {"output_dir": str(out), "object_ids": manifest["object_ids"],
               "scene_counts": {s: manifest["splits"][s]["count"] for s in SPLITS}}
    return _finish_stage(config, "generate", summary)


def _require(config: ExperimentConfig, stage: str, path: Path, produced_by: str):
    if not path.exists():
        raise StageError(stage, f"missing {path.name}; run the "
                                f"'{produced_by}' stage first")


def cmd_train_dr(config: ExperimentConfig, force: bool = False) -> dict:
    """Run the noise scheduler against the surrogate trainer, per object."""
    done = _stage_complete(config, "train-dr")
    if done and not force:
        return done
    _require(config, "train-dr", config.out() / "manifest.json", "generate")
    models = build_models(config, "train-dr")
    train_scenes = load_split(config, "train")
    dr_dir = config.out() / "dr"
    dr_dir.mkdir(parents=True, exist_ok=True)
    finals = []
    for model in models:
        trainer = SurrogateTrainer(train_scenes, model,
                                   seed=stream_seed(config.seed, "dr", model.object_id))
        state, history = run_scheduled_training(trainer, config.epochs)
        finals.append(state.levels)
        (dr_dir / f"{model.object_id}.json").write_text(json.dumps(
            {"final_levels": state.levels.as_dict(), "phase": state.phase,
             "trace": [asdict(rec) for rec in history]},
            sort_keys=True, indent=1))
    mean_levels = NoiseConfig.from_tuple(
        np.mean([lv.as_tuple() for lv in finals], axis=0))
    (dr_dir / "levels.json").write_text(
        json.dumps(mean_levels.as_dict(), sort_keys=True, indent=1))
    summary = {"levels": mean_levels.as_dict(), "epochs": config.epochs,
               "objects": sorted(m.object_id for m in models)}
    return _finish_stage(config, "train-dr", summary)


def learned_levels(config: ExperimentConfig, stage: str = "optimize") -> NoiseConfig:
    """The mean DR levels that ``train-dr`` learned, for the calling ``stage``."""
    path = config.out() / "dr" / "levels.json"
    _require(config, stage, path, "train-dr")
    return NoiseConfig(**json.loads(path.read_text()))


def _noised_split(config: ExperimentConfig, split: str, levels: NoiseConfig | None,
                  stream: str) -> list[Scene]:
    scenes = load_split(config, split)
    if levels is None:
        return scenes
    return [apply_domain_randomization(s, levels, seed=stream_seed(config.seed, stream, i))
            for i, s in enumerate(scenes)]


def _score_scenes(config: ExperimentConfig, models: list[ObjectModel], scenes: list[Scene],
                  cp: ContinuousParams, dp: DiscreteParams, stream: str, score,
                  prepared: list[PreparedScene] | None = None,
                  memos: list[dict] | None = None):
    """Estimate each scene once and score every instance.

    ``score(model, scene, pose)`` is called once per found instance.
    ``prepared`` holds ``prepare(scene)`` per scene for a caller that
    estimates the same scenes again and again; without it each call prepares
    its scene. ``memos`` holds one stage memo per scene, passed to
    ``estimate_all`` by a caller whose calls share ``cp`` and the seeds.
    Returns each stage's mean time over the scenes, as a fresh image costs
    (see ``SceneEstimate``), and one ``(scene index, object id, score)``
    record per instance, in scene then model order, with 0 for an instance
    not found.
    """
    timings, records = [], []
    for i, scene in enumerate(scenes):
        bundle = estimate_all(scene, models, cp, dp,
                              seed=stream_seed(config.seed, stream, i),
                              prepared=None if prepared is None else prepared[i],
                              memo=None if memos is None else memos[i])
        timings.append(bundle.timings)
        for model in models:
            result = bundle.results[model.object_id]
            records.append((i, model.object_id,
                            score(model, scene, result.hypothesis.pose) if result.found else 0))
    stages = {key: float(np.mean([t[key] for t in timings])) for key in STAGE_KEYS}
    return stages, records


def _mode_tag(no_dr: bool) -> str:
    return "nodr" if no_dr else "dr"


def cmd_optimize(config: ExperimentConfig, no_dr: bool = False,
                 force: bool = False) -> dict:
    """Continuous search at fixed discrete values, then grid + front + fit."""
    tag = _mode_tag(no_dr)
    done = _stage_complete(config, f"optimize-{tag}")
    if done and not force:
        return done
    _require(config, "optimize", config.out() / "manifest.json", "generate")
    models = build_models(config, "optimize")
    levels = None if no_dr else learned_levels(config)
    scenes = _noised_split(config, "validation", levels, f"valnoise-{tag}")
    # every search call re-estimates these scenes, so their parameter-free
    # preprocessing is done once here; each call still charges its time
    prepared = [prepare(scene) for scene in scenes]
    opt_dir = config.out() / "opt"
    opt_dir.mkdir(parents=True, exist_ok=True)

    # grid tuples that share their stages find the same poses; each distinct
    # (scene, object, pose) is scored once per search. The scenes live as
    # long as the search, so id() names one.
    recalls: dict[tuple, float] = {}

    def instance_recall(model: ObjectModel, scene: Scene, pose) -> float:
        # one metric call: the full evaluate_pose would about double the cost
        key = (id(scene), model.object_id, pose.rotation.tobytes(), pose.translation.tobytes())
        if key not in recalls:
            gt = scene.gt_poses[model.object_id]
            recalls[key] = (float(add_correct(model, gt, pose)) if config.metric == "add"
                            else recall_contribution(model, gt, pose, scene.cam, scene.depth))
        return recalls[key]

    def measure(cp: ContinuousParams, dp: DiscreteParams,
                memos: list[dict] | None = None) -> tuple[dict[str, float], float]:
        """(mean time per stage, mean recall) over the validation scenes."""
        stages, records = _score_scenes(config, models, scenes, cp, dp, "est",
                                        instance_recall, prepared, memos)
        return stages, float(np.mean([r[2] for r in records]))

    def continuous_objective(cp: ContinuousParams) -> float:
        return measure(cp, BO_FIXED_DISCRETE)[1]

    try:
        best_cp, trace = optimize_continuous(
            continuous_objective, SearchSpace.default(), config.bo_schedule(),
            seed=stream_seed(config.seed, "bo", tag))
    except Exception as exc:
        raise StageError("optimize:continuous", str(exc)) from exc
    (opt_dir / f"continuous_{tag}.json").write_text(json.dumps(
        {"params": asdict(best_cp), "metric": config.metric,
         "best_value": max(t.value for t in trace)}, sort_keys=True, indent=1))
    (opt_dir / f"trace_{tag}.csv").write_text(trace_to_csv(trace))

    # cp and the seeds stay fixed over the grid, so its tuples share stage
    # results: one memo per validation scene, dropped with the grid phase
    memos = [{} for _ in scenes]
    try:
        grid = enumerate_grid(config.grid_spec())
        entries = evaluate_grid(grid, partial(measure, best_cp, memos=memos))
        del memos
        front = pareto_front(entries)
        coeffs = fit_runtime_model(entries, len(models))
    except Exception as exc:
        raise StageError("optimize:discrete", str(exc)) from exc
    (opt_dir / f"grid_{tag}.csv").write_text(measurements_to_csv(entries))
    (opt_dir / f"front_{tag}.json").write_text(json.dumps(
        {"front": [asdict(e) for e in front],
         "coefficients": asdict(coeffs)}, sort_keys=True, indent=1))
    summary = {"mode": tag, "continuous": asdict(best_cp),
               "best_value": max(t.value for t in trace),
               "grid_entries": len(entries), "front_size": len(front),
               "coefficients": asdict(coeffs)}
    return _finish_stage(config, f"optimize-{tag}", summary)


def load_optimization(config: ExperimentConfig, no_dr: bool = False):
    tag = _mode_tag(no_dr)
    cont_path = config.out() / "opt" / f"continuous_{tag}.json"
    front_path = config.out() / "opt" / f"front_{tag}.json"
    _require(config, "evaluate", cont_path, "optimize")
    _require(config, "evaluate", front_path, "optimize")
    cp = ContinuousParams(**json.loads(cont_path.read_text())["params"])
    data = json.loads(front_path.read_text())
    front = [ParetoEntry(**dict(e, params=DiscreteParams(**e["params"])))
             for e in data["front"]]
    return cp, front, RuntimeCoefficients(**data["coefficients"])


def cmd_evaluate(config: ExperimentConfig, budget: float | None = None,
                 no_dr: bool = False, force: bool = False) -> dict:
    """Select a front entry for the budget and score it on held-out scenes."""
    tag = _mode_tag(no_dr)
    budget = config.budget_seconds if budget is None else float(budget)
    models = build_models(config, "evaluate")
    object_count = len(models)
    stage = f"evaluate-{tag}-{budget:g}-{object_count}"
    done = _stage_complete(config, stage)
    if done and not force:
        return done
    cp, front, coeffs = load_optimization(config, no_dr)
    levels = learned_levels(config, "evaluate")
    scenes = _noised_split(config, "eval", levels, "evalnoise")
    selection = select_for_budget(front, coeffs, object_count, budget)
    dp = selection.entry.params

    def instance_scores(model: ObjectModel, scene: Scene, pose) -> MetricScore:
        return evaluate_pose(model, scene.gt_poses[model.object_id], pose, scene.cam,
                             scene.depth)

    stages, records = _score_scenes(config, models, scenes, cp, dp, "eval-est",
                                    instance_scores)
    per_object: dict[str, list[float]] = {m.object_id: [] for m in models}
    rows = []
    for i, object_id, score in records:
        if not isinstance(score, MetricScore):  # not found
            per_object[object_id].append(0.0)
            continue
        rows.append((object_id, f"eval/{i:03d}", score))
        per_object[object_id].append(float(score.correct_add) if config.metric == "add"
                                     else score.bop_recall_contribution)
    recall = float(np.mean([v for vals in per_object.values() for v in vals]))
    report = {
        "mode": tag,
        "metric": config.metric,
        "budget_seconds": budget,
        "object_count": object_count,
        "selection": asdict(selection),
        "continuous": asdict(cp),
        "recall": recall,
        "per_object_recall": {k: float(np.mean(v)) for k, v in per_object.items()},
        "measured_runtime": float(sum(stages.values())),
        "predicted_runtime": predict_runtime(coeffs, dp, object_count),
        "scenes": len(scenes),
    }
    eval_dir = config.out() / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)
    stamp = f"{tag}_{budget:g}_{object_count}"
    (eval_dir / f"report_{stamp}.json").write_text(
        json.dumps(report, sort_keys=True, indent=1))
    (eval_dir / f"scores_{stamp}.csv").write_text(scores_to_csv(rows))
    return _finish_stage(config, stage, report)
