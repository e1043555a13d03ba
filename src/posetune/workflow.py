"""End-to-end experiment stages.

Four resumable stages share one output directory: scene generation, noise
scheduling against the surrogate trainer, the two-phase parameter
optimization, and held-out evaluation with budget selection. A stage's
marker, ``<stage>.done.json``, holds the config's ``fingerprint``, the
stages it read and its summary; it is the one record that the stage ran.
Each ``cmd_*`` names the stages its stage reads, and ``_run_stage`` keeps
the protocol. A stage runs only when each marker it reads fits the config,
and is skipped when its own marker fits too, unless forced. One that runs
first deletes its own marker and, in turn, that of every stage that read a
deleted one, and writes its marker last. ``_run_stage`` turns whatever a
stage raises into a ``StageError`` that names the stage, with the original
exception as its cause; only ``optimize`` names its own, for its two search
phases. ``_write`` writes the markers and every JSON and CSV file
atomically. A marker records the config, not the code: after a code change
that alters what a stage writes, force the first stage that changed.

All randomness derives from the config's master seed through named
sub-streams, so re-runs reproduce the scenes, the DR traces, the continuous
search and the grid recalls byte for byte. What depends on measured wall
time does not: the grid ``runtime`` and stage-time columns, and through them
``front_*.json`` (the Pareto front and the fitted runtime coefficients) and
the budget selection made from them. Those times come from the pipeline's
``clock``; with a counting clock in its place they reproduce too.

``cmd_optimize`` prepares each validation scene once for the whole search,
in one stage memo per scene (``pipeline.scene_memo``). Each GP-UCB call
estimates on a copy of it, and the grid phase shares it; a found pose is
scored once per search. Reused work still charges its measured time
(``pipeline.SceneEstimate``), so the grid runtimes and the runtime fit state
what a fresh image costs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .bayesopt import Schedule, SearchSpace, TraceEntry, default_schedule, optimize_continuous
from .geometry import ObjectModel, check_integer, check_number
from .gridopt import (
    MIN_MEASUREMENTS,
    GridSpec,
    ParetoEntry,
    RuntimeCoefficients,
    enumerate_grid,
    evaluate_grid,
    fit_runtime_model,
    pareto_front,
    predict_runtime,
    select_for_budget,
)
from .metrics import MetricScore, add_correct, evaluate_pose, recall_contribution
from .objects import check_spec_keys, make_object, save_object
from .pipeline import STAGE_KEYS, ContinuousParams, DiscreteParams, estimate_all, scene_memo
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
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ValueError(f"output_dir must be a non-empty path, not {self.output_dir!r}")
        for name in ("train_scenes", "validation_scenes", "eval_scenes", "epochs"):
            check_integer(name, getattr(self, name), 1)
        check_integer("seed", self.seed)
        for name in ("budget_seconds", "clutter", "occlusion"):
            check_number(name, getattr(self, name))
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
        """The hash that stage markers hold. ``output_dir`` and
        ``budget_seconds`` are left out: neither decides what a stage writes,
        and an evaluate marker names its budget."""
        data = asdict(self)
        del data["output_dir"], data["budget_seconds"]
        return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()

    def bo_schedule(self) -> Schedule:
        if self.schedule is None:
            return default_schedule()
        return Schedule(tuple((c, k) for c, k in self.schedule))

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


def _write(path: Path, data):
    """Write ``data`` to ``path`` atomically: a temporary file in the same
    directory, then ``os.replace`` over ``path``. A ``.csv`` path takes a
    table, header row first; any other takes JSON data."""
    if path.suffix == ".csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(data)
        text = buf.getvalue()
    else:
        text = json.dumps(data, sort_keys=True, indent=1)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(path.name + ".tmp")
    temporary.write_text(text)
    os.replace(temporary, path)


def _trace_table(trace: list[TraceEntry]) -> list[list]:
    """One row per GP-UCB iteration, the parameters to 6 significant digits."""
    return [["iteration", "kappa", *(f.name for f in fields(ContinuousParams)), "value"],
            *([t.iteration, "" if t.kappa is None else t.kappa,
               *(f"{v:.6g}" for v in t.params.as_vector()), f"{t.value:.6f}"] for t in trace)]


def _grid_table(entries: list[ParetoEntry]) -> list[list]:
    """One row per grid tuple: the tuple, its runtime, stage times and recall."""
    return [[*(f.name for f in fields(DiscreteParams)), "runtime", *STAGE_KEYS, "recall"],
            *([*astuple(e.params), *(f"{v:.6f}" for v in
                                     (e.runtime, *(e.stages[k] for k in STAGE_KEYS), e.recall))]
              for e in entries)]


def _score_table(records: list[tuple[str, str, MetricScore]]) -> list[list]:
    """One row per (object_id, scene_id, score): all scores but the BOP recall."""
    return [["object_id", "scene_id", *(f.name for f in fields(MetricScore)[:-1])],
            *([object_id, scene_id, *(int(v) if isinstance(v, (bool, np.bool_)) else f"{v:.6f}"
                                      for v in astuple(score)[:-1])]
              for object_id, scene_id, score in records)]


def _marker(config: ExperimentConfig, stage: str) -> Path:
    return config.out() / f"{stage}.done.json"


def _stage_complete(config: ExperimentConfig, stage: str) -> dict | None:
    """The stage's summary if its marker matches this config, else None.

    A marker that is missing, does not parse, or lacks ``config_hash``,
    ``reads`` or ``summary`` counts as not done, so the stage runs again and
    rewrites it.
    """
    try:
        data = json.loads(_marker(config, stage).read_text())
        if data["config_hash"] != config.fingerprint() or "reads" not in data:
            return None
        return dict(data["summary"], skipped=True)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _unmark(config: ExperimentConfig, stage: str):
    """Delete ``stage``'s marker, then, in turn, that of every stage that read it."""
    _marker(config, stage).unlink(missing_ok=True)
    for path in config.out().glob("*.done.json"):
        try:
            read = stage in json.loads(path.read_text())["reads"]
        except (OSError, ValueError, KeyError, TypeError):
            read = False
        if read:
            _unmark(config, path.name.removesuffix(".done.json"))


def _run_stage(config: ExperimentConfig, name: tuple, reads: tuple[str, ...], force: bool,
               run, *args) -> dict:
    """Stage ``name``, its parts joined by ``-``, run or skipped as the module
    docstring says and marked as reading ``reads``. Any exception from
    ``run`` becomes ``StageError(name[0], ...)``; a ``StageError`` passes
    unchanged. Returns ``run(config, *args)``'s summary or the marked one."""
    stage = "-".join(map(str, name))
    for upstream in reads:
        if _stage_complete(config, upstream) is None:
            raise StageError(name[0], f"the '{upstream}' stage has not run under this "
                                      f"config; run it first")
    done = _stage_complete(config, stage)
    if done and not force:
        return done
    _unmark(config, stage)
    try:
        summary = run(config, *args)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name[0], str(exc)) from exc
    _write(_marker(config, stage), {"stage": stage, "config_hash": config.fingerprint(),
                                    "reads": list(reads), "summary": summary})
    return dict(summary, skipped=False)


def _repeated(ids: list[str]) -> list[str]:
    return sorted({i for i in ids if ids.count(i) > 1})


def build_models(config: ExperimentConfig) -> list[ObjectModel]:
    """The configured models. A spec that cannot build one, such as an object
    directory without ``normals.npy`` or ``colors.npy``, raises here, before
    the calling stage does any work; so do two models with one id, which a
    config cannot catch when an object directory holds its id in
    ``model.json``."""
    models = [make_object(spec) for spec in config.objects]
    repeated = _repeated([model.object_id for model in models])
    if repeated:
        raise ValueError(f"repeated object ids {repeated}")
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
    """Write object files and seeded scenes for every split."""
    return _run_stage(config, ("generate",), (), force, _generate)


def _generate(config: ExperimentConfig) -> dict:
    models = build_models(config)
    out = config.out()
    for model in models:
        save_object(model, out / "objects" / model.object_id)
    for split in SPLITS:
        for i in range(_split_count(config, split)):
            scene = generate_scene(models, config.clutter, config.occlusion,
                                   seed=stream_seed(config.seed, "scene", split, i))
            save_scene(scene, _scene_dir(config, split, i))
    return {"object_ids": sorted(m.object_id for m in models),
            "scene_counts": {s: _split_count(config, s) for s in SPLITS}}


def cmd_train_dr(config: ExperimentConfig, force: bool = False) -> dict:
    """Run the noise scheduler against the surrogate trainer, per object."""
    return _run_stage(config, ("train-dr",), ("generate",), force, _train_dr)


def _train_dr(config: ExperimentConfig) -> dict:
    models = build_models(config)
    train_scenes = load_split(config, "train")
    dr_dir = config.out() / "dr"
    finals = []
    for model in models:
        trainer = SurrogateTrainer(train_scenes, model,
                                   seed=stream_seed(config.seed, "dr", model.object_id))
        state, history = run_scheduled_training(trainer, config.epochs)
        finals.append(state.levels)
        _write(dr_dir / f"{model.object_id}.json",
               {"final_levels": state.levels.as_dict(), "phase": state.phase,
                "trace": [asdict(rec) for rec in history]})
    mean_levels = NoiseConfig.from_tuple(
        np.mean([lv.as_tuple() for lv in finals], axis=0))
    _write(dr_dir / "levels.json", mean_levels.as_dict())
    return {"levels": mean_levels.as_dict(), "epochs": config.epochs,
            "objects": sorted(m.object_id for m in models)}


def learned_levels(config: ExperimentConfig) -> NoiseConfig:
    """The mean DR levels that ``train-dr`` wrote."""
    return NoiseConfig(**json.loads((config.out() / "dr" / "levels.json").read_text()))


def _noised_split(config: ExperimentConfig, split: str, levels: NoiseConfig | None,
                  stream: str) -> list[Scene]:
    scenes = load_split(config, split)
    if levels is None:
        return scenes
    return [apply_domain_randomization(s, levels, seed=stream_seed(config.seed, stream, i))
            for i, s in enumerate(scenes)]


def _score_scenes(config: ExperimentConfig, models: list[ObjectModel], scenes: list[Scene],
                  cp: ContinuousParams, dp: DiscreteParams, stream: str, score, memos):
    """Estimate each scene once and score every instance.

    ``score(model, scene, pose)`` is called once per found instance.
    ``memos`` yields one stage memo (or None) per scene, passed on to
    ``estimate_all``. Returns each stage's mean time over the scenes and one
    ``(scene index, object id, score)`` record per instance, in scene then
    model order, with 0 for an instance not found.
    """
    timings, records = [], []
    for i, (scene, memo) in enumerate(zip(scenes, memos, strict=True)):
        bundle = estimate_all(scene, models, cp, dp,
                              seed=stream_seed(config.seed, stream, i), memo=memo)
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
    reads = ("generate",) if no_dr else ("generate", "train-dr")
    return _run_stage(config, ("optimize", _mode_tag(no_dr)), reads, force, _optimize, no_dr)


def _optimize(config: ExperimentConfig, no_dr: bool) -> dict:
    tag = _mode_tag(no_dr)
    models = build_models(config)
    levels = None if no_dr else learned_levels(config)
    scenes = _noised_split(config, "validation", levels, f"valnoise-{tag}")
    # every search call re-estimates these scenes, so their parameter-free
    # preprocessing is done once here, in one stage memo per scene
    memos = [scene_memo(scene) for scene in scenes]
    opt_dir = config.out() / "opt"

    # grid tuples that share their stages find the same poses; each distinct
    # (scene, object, pose) is scored once per search. The scenes live as
    # long as the search, so id() names one.
    recalls: dict[tuple, float] = {}

    def instance_recall(model: ObjectModel, scene: Scene, pose) -> float:
        # one metric call: the full evaluate_pose would about double the cost
        key = (id(scene), model.object_id, *pose.key())
        if key not in recalls:
            gt = scene.gt_poses[model.object_id]
            recalls[key] = (float(add_correct(model, gt, pose)) if config.metric == "add"
                            else recall_contribution(model, gt, pose, scene.cam, scene.depth))
        return recalls[key]

    def measure(cp: ContinuousParams, dp: DiscreteParams,
                memos) -> tuple[dict[str, float], float]:
        """(mean time per stage, mean recall) over the validation scenes."""
        stages, records = _score_scenes(config, models, scenes, cp, dp, "est",
                                        instance_recall, memos)
        return stages, float(np.mean([r[2] for r in records]))

    def continuous_objective(cp: ContinuousParams) -> float:
        # cp changes with every call, so it reuses only the preparation: a
        # copy of each scene's memo, made when the loop reaches that scene
        return measure(cp, BO_FIXED_DISCRETE, map(dict, memos))[1]

    try:
        best_cp, trace = optimize_continuous(
            continuous_objective, SearchSpace.default(), config.bo_schedule(),
            seed=stream_seed(config.seed, "bo", tag))
    except Exception as exc:
        raise StageError("optimize:continuous", str(exc)) from exc
    _write(opt_dir / f"continuous_{tag}.json",
           {"params": asdict(best_cp), "metric": config.metric,
            "best_value": max(t.value for t in trace)})
    _write(opt_dir / f"trace_{tag}.csv", _trace_table(trace))

    # cp and the seeds stay fixed over the grid, so its tuples share stage
    # results: the scenes' memos, which no GP-UCB call wrote to, are dropped
    # with the grid phase
    try:
        grid = enumerate_grid(config.grid_spec())
        entries = evaluate_grid(grid, partial(measure, best_cp, memos=memos))
        del memos
        front = pareto_front(entries)
        coeffs = fit_runtime_model(entries, len(models))
    except Exception as exc:
        raise StageError("optimize:discrete", str(exc)) from exc
    _write(opt_dir / f"grid_{tag}.csv", _grid_table(entries))
    _write(opt_dir / f"front_{tag}.json",
           {"front": [asdict(e) for e in front], "coefficients": asdict(coeffs)})
    return {"mode": tag, "continuous": asdict(best_cp),
            "best_value": max(t.value for t in trace),
            "grid_entries": len(entries), "front_size": len(front),
            "coefficients": asdict(coeffs)}


def load_optimization(config: ExperimentConfig, no_dr: bool = False):
    """The continuous parameters, the front and the runtime fit that
    ``optimize-<tag>`` wrote."""
    tag = _mode_tag(no_dr)
    cont_path = config.out() / "opt" / f"continuous_{tag}.json"
    front_path = config.out() / "opt" / f"front_{tag}.json"
    cp = ContinuousParams(**json.loads(cont_path.read_text())["params"])
    data = json.loads(front_path.read_text())
    front = [ParetoEntry(**dict(e, params=DiscreteParams(**e["params"])))
             for e in data["front"]]
    return cp, front, RuntimeCoefficients(**data["coefficients"])


def cmd_evaluate(config: ExperimentConfig, no_dr: bool = False, force: bool = False) -> dict:
    """Select a front entry for the config's budget and score it on held-out scenes."""
    tag = _mode_tag(no_dr)
    return _run_stage(config, ("evaluate", tag, float(config.budget_seconds), len(config.objects)),
                      (f"optimize-{tag}", "train-dr"), force, _evaluate, no_dr)


def _evaluate(config: ExperimentConfig, no_dr: bool) -> dict:
    tag = _mode_tag(no_dr)
    budget = float(config.budget_seconds)
    models = build_models(config)
    object_count = len(models)
    cp, front, coeffs = load_optimization(config, no_dr)
    levels = learned_levels(config)
    scenes = _noised_split(config, "eval", levels, "evalnoise")
    selection = select_for_budget(front, coeffs, object_count, budget)
    dp = selection.entry.params

    def instance_scores(model: ObjectModel, scene: Scene, pose) -> MetricScore:
        return evaluate_pose(model, scene.gt_poses[model.object_id], pose, scene.cam,
                             scene.depth)

    stages, records = _score_scenes(config, models, scenes, cp, dp, "eval-est",
                                    instance_scores, [None] * len(scenes))
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
    stamp = f"{tag}_{budget!r}_{object_count}"
    _write(eval_dir / f"report_{stamp}.json", report)
    _write(eval_dir / f"scores_{stamp}.csv", _score_table(rows))
    return report
