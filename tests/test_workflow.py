import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import posetune
from posetune import metrics, pipeline, scenes, workflow
from posetune.camera import default_camera
from posetune.gridopt import (ParetoEntry, RuntimeCoefficients, enumerate_grid,
                              predict_runtime, select_for_budget)
from posetune.geometry import Pose
from posetune.objects import make_box, save_object
from posetune.pipeline import (STAGE_KEYS, ContinuousParams, DiscreteParams, EstimateResult,
                               PoseHypothesis, SceneEstimate, estimate_all, scene_memo)
from posetune.seeding import stream_seed

from bench_inputs import BENCH_GRID, DEPLOY_CP, validation_scenes

OPTIMIZED = ContinuousParams(vote_threshold=0.174, ransac_dist=19.88, icp_dist=4.85,
                             icp_scale=1.24, background_dist=86.0, accept_dist=12.0,
                             cut_radius=108.0)
SMALL_DP = DiscreteParams(classified=4, estimated=1, ransac_iters=100,
                          depth_checked=1, icp_iters=2)
# ``tiny_config("experiment").fingerprint()`` since it left out ``output_dir``
# and ``budget_seconds``.
FINGERPRINT = "8be42e089ecaa1963bc710594870d2ec4dd24595f84a7d00e35743614fd7cae9"


@pytest.fixture(scope="module")
def evaluated_config(tmp_path_factory):
    """A tiny experiment with hand-written DR levels and optimization results."""
    out = tmp_path_factory.mktemp("experiment")
    config = workflow.ExperimentConfig(
        objects=[{"shape": "box", "id": "box", "size": [40.0, 55.0, 75.0]}],
        output_dir=str(out), seed=3, train_scenes=1, validation_scenes=1,
        eval_scenes=3, clutter=0.0, occlusion=0.0)
    workflow.cmd_generate(config)
    _write_levels(config, json.dumps(
        {"xyz_sigma": 0.5, "normal_sigma": 0.0, "rgb_sigma": 0.0, "rgb_shift": 0.0,
         "rotation_max": 0.0, "flatten_frac": 0.0}))
    _write_optimization(config, "dr")
    return config


def _mark(config, name: tuple):
    """Mark stage ``name`` done without running it. The marker reads no
    stage, so no upstream stage need have run."""
    workflow._run_stage(config, name, (), True, lambda config: {})


def _write_levels(config, text: str):
    """Hand-written ``train-dr`` results: ``dr/levels.json`` holding ``text``,
    and the stage's marker."""
    (config.out() / "dr").mkdir()
    (config.out() / "dr" / "levels.json").write_text(text)
    _mark(config, ("train-dr",))


def _write_optimization(config, tag: str):
    """Hand-written ``optimize`` results: ``OPTIMIZED``, a one-entry front at
    ``SMALL_DP``, and the stage's marker."""
    out = config.out()
    (out / "opt").mkdir()
    (out / "opt" / f"continuous_{tag}.json").write_text(json.dumps(
        {"params": asdict(OPTIMIZED)}))
    (out / "opt" / f"front_{tag}.json").write_text(json.dumps(
        {"front": [asdict(ParetoEntry(SMALL_DP, 0.1, 0.5, dict.fromkeys(STAGE_KEYS, 0.02)))],
         "coefficients": asdict(RuntimeCoefficients(0.01, 0.0, 0.0, 0.0, 0.0))}))
    _mark(config, ("optimize", tag))


def _eval_scores(config, cp, dp, score) -> list[float]:
    """``score(model, scene, pose)`` for every eval instance, 0 for one not
    found, estimated again at ``cp``, ``dp``."""
    models = workflow.build_models(config, "evaluate")
    scenes = workflow._noised_split(config, "eval", workflow.learned_levels(config),
                                    "evalnoise")
    scores = []
    for i, scene in enumerate(scenes):
        bundle = estimate_all(scene, models, cp, dp,
                              seed=stream_seed(config.seed, "eval-est", i))
        for model in models:
            result = bundle.results[model.object_id]
            scores.append(score(model, scene, result.hypothesis.pose)
                          if result.found else 0.0)
    return scores


def _recall(model, scene, pose) -> float:
    return metrics.recall_contribution(model, scene.gt_poses[model.object_id], pose,
                                       scene.cam, scene.depth)


class TestEvaluate:
    def test_scores_each_found_instance_once(self, evaluated_config, monkeypatch):
        calls = []
        original = workflow.evaluate_pose

        def counted(*args, **kwargs):
            calls.append(args[0].object_id)
            return original(*args, **kwargs)

        monkeypatch.setattr(workflow, "evaluate_pose", counted)
        report = workflow.cmd_evaluate(evaluated_config, force=True)
        stamp = f"dr_{report['budget_seconds']!r}_{report['object_count']}"
        rows = (evaluated_config.out() / "eval" / f"scores_{stamp}.csv").read_text()
        found = len(rows.strip().splitlines()) - 1
        assert found >= 1
        assert len(calls) == found

    def test_recall_matches_per_instance_scores(self, evaluated_config):
        report = workflow.cmd_evaluate(evaluated_config, force=True)
        scores = _eval_scores(evaluated_config, OPTIMIZED, SMALL_DP, _recall)
        assert report["recall"] == float(np.mean(scores))

    def test_missing_levels_fail_evaluate(self, tmp_path):
        # the no-DR searches never read the learned levels; the evaluation does
        config = tiny_config(tmp_path)
        workflow.cmd_generate(config)
        _write_optimization(config, "nodr")
        with pytest.raises(workflow.StageError, match="'train-dr' stage has not run") as raised:
            workflow.cmd_evaluate(config, no_dr=True)
        assert raised.value.stage == "evaluate"

    def test_edited_level_is_named(self, tmp_path):
        config = tiny_config(tmp_path)
        _write_levels(config, json.dumps(
            {"xyz_sigma": True, "normal_sigma": 0.0, "rgb_sigma": 0.0, "rgb_shift": 0.0,
             "rotation_max": 0.0, "flatten_frac": 0.0}))
        with pytest.raises(ValueError, match="xyz_sigma must be a number"):
            workflow.learned_levels(config)

    def test_non_finite_level_is_named(self, tmp_path):
        config = tiny_config(tmp_path)
        _write_levels(config,
                      '{"xyz_sigma": 0.0, "normal_sigma": NaN, "rgb_sigma": 0.0, "rgb_shift": 0.0,'
                      ' "rotation_max": 0.0, "flatten_frac": 0.0}')
        with pytest.raises(ValueError, match="normal_sigma must be finite"):
            workflow.learned_levels(config)

    def test_non_finite_parameter_is_named(self, tmp_path):
        config = tiny_config(tmp_path)
        _write_optimization(config, "dr")
        path = tmp_path / "opt" / "continuous_dr.json"
        path.write_text(path.read_text().replace('"icp_scale": 1.24', '"icp_scale": Infinity'))
        with pytest.raises(ValueError, match="icp_scale must be finite"):
            workflow.load_optimization(config)

    def test_estimate_behind_camera_completes(self, evaluated_config, monkeypatch):
        # every box found with the translation moved to z = 20 mm: part of the
        # model lies behind the camera, so MSPD is infinite
        def behind(scene, models, cp, dp, seed=0, memo=None):
            results = {}
            for model in models:
                gt = scene.gt_poses[model.object_id]
                pose = Pose(gt.rotation, [gt.translation[0], gt.translation[1], 20.0])
                results[model.object_id] = EstimateResult(PoseHypothesis(pose, 100, 0.5))
            return SceneEstimate(results, dict.fromkeys(STAGE_KEYS, 0.001))

        monkeypatch.setattr(workflow, "estimate_all", behind)
        report = workflow.cmd_evaluate(evaluated_config, force=True)
        models = workflow.build_models(evaluated_config, "evaluate")
        scenes = workflow._noised_split(evaluated_config, "eval",
                                        workflow.learned_levels(evaluated_config), "evalnoise")
        expected = []
        for scene in scenes:
            gt = scene.gt_poses["box"]
            est = Pose(gt.rotation, [gt.translation[0], gt.translation[1], 20.0])
            expected.append(metrics.recall_contribution(models[0], gt, est, scene.cam,
                                                        scene.depth))
        assert report["recall"] == float(np.mean(expected))
        stamp = f"dr_{report['budget_seconds']!r}_{report['object_count']}"
        rows = (evaluated_config.out() / "eval" / f"scores_{stamp}.csv").read_text()
        lines = rows.strip().splitlines()
        assert len(lines) == 1 + len(scenes)
        assert all(line.split(",")[6] == "inf" for line in lines[1:])


def tiny_config(output_dir) -> workflow.ExperimentConfig:
    """An experiment whose four stages run in a couple of seconds."""
    return workflow.ExperimentConfig(
        objects=[{"shape": "box", "id": "box", "size": [40.0, 55.0, 75.0]}],
        output_dir=str(output_dir), seed=5, train_scenes=1, validation_scenes=1,
        eval_scenes=1, clutter=0.0, occlusion=0.0, epochs=10,
        schedule=[[2, None], [1, 0.5]],
        grid={"classified": [2, 4], "estimated": [1, 2], "ransac_iters": [50, 100],
              "depth_checked": [1], "icp_iters": [1, 2]})


def _snapshot(out) -> dict:
    paths = [*sorted((out / "scenes").rglob("*.*")), *sorted((out / "objects").rglob("*.*")),
             *sorted((out / "dr").glob("*.json")), out / "opt" / "continuous_dr.json",
             out / "opt" / "trace_dr.csv"]
    return {str(p.relative_to(out)): p.read_bytes() for p in paths}


def _grid_without_runtime(out) -> list[list[str]]:
    """The grid without its measured times: the runtime and stage columns."""
    rows = [line.split(",") for line in
            (out / "opt" / "grid_dr.csv").read_text().splitlines()]
    first, last = rows[0].index("runtime"), rows[0].index("recall")
    return [row[:first] + row[last:] for row in rows]


def _counted(function, calls: dict, name: str):
    def counted(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)
    return counted


def _report(out) -> dict:
    [path] = (out / "eval").glob("report_*.json")
    return json.loads(path.read_text())


class TestConfigValidation:
    @pytest.mark.parametrize("name, value", [
        ("train_scenes", -2), ("validation_scenes", 0), ("eval_scenes", 0),
        ("epochs", -5), ("epochs", 0), ("budget_seconds", -1.0), ("budget_seconds", 0.0),
        ("clutter", 3.0), ("occlusion", -0.1),
        ("grid", {"classified": [4, 2], "estimated": [1, 2], "ransac_iters": [50, 100],
                  "depth_checked": [1], "icp_iters": [1, 2]}),
        ("grid", {"classified": [2, 4]}),
        ("schedule", [[0, None]]),
        ("schedule", [[2]]),
        ("train_scenes", 1.5), ("validation_scenes", 2.0), ("eval_scenes", True),
        ("epochs", 2.5), ("schedule", [[2.5, None]]), ("schedule", [[True, None]]),
        ("grid", {"classified": [2, 4], "estimated": [1, 2], "ransac_iters": [50, 100],
                  "depth_checked": [1], "icp_iters": [1, 2.7]}),
        ("grid", {"classified": [2, 4], "estimated": [1, 2], "ransac_iters": [50, 100],
                  "depth_checked": [1], "icp_iters": [1, 2], "icp_iter": [3]}),
        ("grid", {"classified": [2], "estimated": [1], "ransac_iters": [50],
                  "depth_checked": [1], "icp_iters": [1, 2, 3, 4]}),
        ("seed", 1.5), ("seed", True), ("clutter", True), ("occlusion", False),
        ("budget_seconds", True), ("schedule", [[4, True]]), ("schedule", [[4, "0.5"]]),
        ("budget_seconds", float("inf")), ("schedule", [[4, float("nan")]]),
        ("schedule", []),
        ("output_dir", None), ("output_dir", 5), ("output_dir", ""),
    ])
    def test_rejects_bad_values(self, name, value):
        data = dict(asdict(tiny_config("experiment")), **{name: value})
        with pytest.raises(ValueError, match=name):
            workflow.ExperimentConfig.from_dict(data)

    @staticmethod
    def generate_without(tmp_path, channel: str):
        """``cmd_generate`` on a saved box whose ``<channel>.npy`` is gone."""
        save_object(make_box("bare", [40.0, 55.0, 75.0], [0.7, 0.3, 0.3]), tmp_path / "bare")
        (tmp_path / "bare" / f"{channel}.npy").unlink()
        config = workflow.ExperimentConfig.from_dict(
            dict(asdict(tiny_config(tmp_path / "out")),
                 objects=[{"path": str(tmp_path / "bare")}]))
        with pytest.raises(workflow.StageError, match=rf"{channel}\.npy") as raised:
            workflow.cmd_generate(config)
        assert raised.value.stage == "generate"
        assert not (tmp_path / "out" / "scenes").exists()

    def test_model_without_normals_fails_generate(self, tmp_path):
        self.generate_without(tmp_path, "normals")

    def test_model_without_colors_fails_generate(self, tmp_path):
        self.generate_without(tmp_path, "colors")

    @pytest.mark.parametrize("spec, named", [
        ({"shape": "box", "id": "b", "sise": [10, 10, 10], "colour": [0, 1, 0]},
         "['colour', 'sise']"),
        ({"shape": "cylinder", "id": "c", "size": [10, 10, 10]}, "['size']"),
        ({"path": "objects/box", "id": "box"}, "['id']"),
        ("box", "not a mapping"),
        ({"id": "x"}, "has no 'path' and an unknown shape None"),
        ({"shape": "sphere", "id": "x"}, "unknown shape 'sphere'"),
        ({"shape": "box"}, "has no 'id'"),
    ], ids=["misspelt", "other-shape", "id-beside-path", "not-a-mapping", "no-shape",
            "unknown-shape", "no-id"])
    def test_unknown_object_keys_fail_the_config(self, spec, named):
        data = dict(asdict(tiny_config("experiment")), objects=[spec])
        with pytest.raises(ValueError, match=re.escape(named)):
            workflow.ExperimentConfig.from_dict(data)

    def test_repeated_object_ids_fail_the_config(self):
        data = dict(asdict(tiny_config("experiment")),
                    objects=[{"shape": "box", "id": "a"}, {"shape": "cylinder", "id": "a"},
                             {"shape": "lshape", "id": "b"}])
        with pytest.raises(ValueError, match=re.escape("repeated object ids ['a']")):
            workflow.ExperimentConfig.from_dict(data)

    def test_repeated_id_from_an_object_directory_fails_generate(self, tmp_path):
        # the directory names its id in model.json, so only build_models sees it
        save_object(make_box("a", [40.0, 55.0, 75.0], [0.7, 0.3, 0.3]), tmp_path / "saved")
        config = workflow.ExperimentConfig.from_dict(
            dict(asdict(tiny_config(tmp_path / "out")),
                 objects=[{"path": str(tmp_path / "saved")}, {"shape": "cylinder", "id": "a"}]))
        repeated = re.escape("repeated object ids ['a']")
        with pytest.raises(workflow.StageError, match=repeated) as raised:
            workflow.cmd_generate(config)
        assert raised.value.stage == "generate"
        assert not (tmp_path / "out").exists()

    def test_bad_object_fails_with_the_calling_stage(self, tmp_path):
        save_object(make_box("saved", [40.0, 55.0, 75.0], [0.7, 0.3, 0.3]), tmp_path / "saved")
        config = workflow.ExperimentConfig.from_dict(
            dict(asdict(tiny_config(tmp_path / "out")),
                 objects=[{"path": str(tmp_path / "saved")}]))
        workflow.cmd_generate(config)
        (tmp_path / "saved" / "colors.npy").unlink()
        with pytest.raises(workflow.StageError, match=r"colors\.npy") as raised:
            workflow.cmd_train_dr(config)
        assert raised.value.stage == "train-dr"

    def test_accepts_boundary_values(self):
        # five feasible tuples are enough for the runtime fit
        grid = {"classified": [2], "estimated": [1], "ransac_iters": [50],
                "depth_checked": [1], "icp_iters": [1, 2, 3, 4, 5]}
        data = dict(asdict(tiny_config("experiment")), clutter=1.0, occlusion=0.0,
                    epochs=1, budget_seconds=0.01, grid=grid)
        assert asdict(workflow.ExperimentConfig.from_dict(data)) == data


class TestEndToEnd:
    STAGES = (workflow.cmd_generate, workflow.cmd_train_dr, workflow.cmd_optimize,
              workflow.cmd_evaluate)

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        config = tiny_config(tmp_path_factory.mktemp("e2e"))
        calls = {"estimate_all": 0, "recall_contribution": 0}
        with pytest.MonkeyPatch.context() as patch:
            # the names the traced benchmark patches on ``workflow``
            for name in calls:
                patch.setattr(workflow, name, _counted(getattr(workflow, name), calls, name))
            first = [stage(config) for stage in self.STAGES]
        again = [stage(config) for stage in self.STAGES]
        out = config.out()
        snapshot, grid = _snapshot(out), _grid_without_runtime(out)
        front = json.loads((out / "opt" / "front_dr.json").read_text())
        forced = [stage(config, force=True) for stage in self.STAGES[:3]]
        return dict(config=config, calls=calls, first=first, again=again, forced=forced,
                    snapshot=snapshot, grid=grid, front=front)

    def test_stages_run_then_skip(self, run):
        assert [s["skipped"] for s in run["first"]] == [False] * 4
        assert [s["skipped"] for s in run["again"]] == [True] * 4
        assert [s["skipped"] for s in run["forced"]] == [False] * 3

    def test_estimates_and_scores_through_workflow_globals(self, run):
        # one estimate per scene: 3 GP-UCB iterations and 16 grid tuples on the
        # validation scene, then the eval scene
        assert run["calls"]["estimate_all"] == 3 + 16 + 1
        assert run["calls"]["recall_contribution"] >= 1

    def test_forced_rerun_is_identical(self, run):
        out = run["config"].out()
        assert _snapshot(out) == run["snapshot"]
        assert _grid_without_runtime(out) == run["grid"]

    def test_forced_evaluate_is_identical_apart_from_runtime(self, run):
        config = run["config"]
        reports = []
        for _ in range(2):
            workflow.cmd_evaluate(config, force=True)
            report = _report(config.out())
            del report["measured_runtime"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert 0.0 <= reports[0]["recall"] <= 1.0
        assert reports[0]["object_count"] == 1

    def test_front_recalls_are_grid_recalls(self, run):
        grid_recalls = {float(row[-1]) for row in run["grid"][1:]}
        front = run["front"]["front"]
        assert front
        assert all(round(e["recall"], 6) in grid_recalls for e in front)
        assert set(run["front"]["coefficients"]) == \
            {"t_pre", "t_net", "t_ran", "t_icp", "t_depth", "residual"}

    def test_saved_front_loads_with_its_stages(self, run):
        config = run["config"]
        saved = json.loads((config.out() / "opt" / "front_dr.json").read_text())["front"]
        _, front, _ = workflow.load_optimization(config)
        assert [e.stages for e in front] == [e["stages"] for e in saved]
        assert all(e.stages.keys() == set(STAGE_KEYS) for e in front)
        assert [asdict(e) for e in front] == saved

    def test_grid_rows_carry_stage_times(self, run):
        rows = [line.split(",") for line in
                (run["config"].out() / "opt" / "grid_dr.csv").read_text().splitlines()]
        first = rows[0].index("runtime")
        assert rows[0][first + 1:-1] == list(STAGE_KEYS)
        for row in rows[1:]:
            runtime, *stages = (float(v) for v in row[first:-1])
            assert min(stages) >= 0.0 and stages[0] > 0.0
            assert runtime == pytest.approx(sum(stages), abs=1e-5)

    def test_forced_optimize_is_identical_under_a_counting_clock(self, run, tmp_path,
                                                                  monkeypatch):
        # with the pipeline's clock counting calls, the stage times, the grid
        # runtimes, the fit and the budget selection reproduce too
        shutil.copytree(run["config"].out(), tmp_path, dirs_exist_ok=True)
        config = workflow.ExperimentConfig.from_dict(
            dict(asdict(run["config"]), output_dir=str(tmp_path)))
        written = []
        for _ in range(2):
            _counting_clock(monkeypatch)
            workflow.cmd_optimize(config, force=True)
            report = workflow.cmd_evaluate(config, force=True)
            written.append([(tmp_path / "opt" / name).read_bytes()
                            for name in ("grid_dr.csv", "front_dr.json")] + [report])
        assert written[0] == written[1]
        assert written[0][0] != (run["config"].out() / "opt" / "grid_dr.csv").read_bytes()

    def test_budget_override_selects_for_that_budget(self, run, tmp_path):
        shutil.copytree(run["config"].out(), tmp_path, dirs_exist_ok=True)
        config = workflow.ExperimentConfig.from_dict(
            dict(asdict(run["config"]), output_dir=str(tmp_path)))
        marker = (tmp_path / "optimize-dr.done.json").read_bytes()
        _, front, coeffs = workflow.load_optimization(config)
        for budget, within in ((1e-6, False), (1e9, True)):
            workflow.cmd_evaluate(replace(config, budget_seconds=budget))
            path = tmp_path / "eval" / f"report_dr_{budget!r}_1.json"
            report = json.loads(path.read_text())
            assert report["budget_seconds"] == budget
            assert report["selection"] == asdict(select_for_budget(front, coeffs, 1, budget))
            assert report["selection"]["within_budget"] is within
        assert len(list((tmp_path / "eval").glob("report_*.json"))) == 3
        assert (tmp_path / "optimize-dr.done.json").read_bytes() == marker

    @pytest.mark.parametrize("budget", [True, 0, -1, float("nan")])
    def test_bad_budget_override_is_refused(self, run, budget):
        with pytest.raises(ValueError, match="budget_seconds"):
            workflow.cmd_evaluate(replace(run["config"], budget_seconds=budget))

    def test_budgets_equal_to_six_digits_write_two_reports(self, run, tmp_path):
        shutil.copytree(run["config"].out(), tmp_path, dirs_exist_ok=True)
        config = workflow.ExperimentConfig.from_dict(
            dict(asdict(run["config"]), output_dir=str(tmp_path)))
        reports = [workflow.cmd_evaluate(replace(config, budget_seconds=budget))
                   for budget in (2.0, 2.0000001)]
        assert [r["skipped"] for r in reports] == [False, False]
        assert [r["budget_seconds"] for r in reports] == [2.0, 2.0000001]
        for budget in (2.0, 2.0000001):
            path = tmp_path / "eval" / f"report_dr_{budget!r}_1.json"
            assert json.loads(path.read_text())["budget_seconds"] == budget

    def test_evaluate_under_another_config_names_its_optimize_marker(self, run, tmp_path):
        # the front on disk was found on another grid from other scenes
        shutil.copytree(run["config"].out(), tmp_path, dirs_exist_ok=True)
        config = workflow.ExperimentConfig.from_dict(
            dict(asdict(run["config"]), output_dir=str(tmp_path), seed=6,
                 grid=dict(run["config"].grid, icp_iters=[1, 3])))
        upstream = {name: (tmp_path / f"{name}.done.json").read_bytes()
                    for name in ("generate", "train-dr", "optimize-dr")}
        with pytest.raises(workflow.StageError, match="'optimize-dr' stage has not run") as raised:
            workflow.cmd_evaluate(config)
        assert raised.value.stage == "evaluate"
        assert workflow._stage_complete(config, "evaluate-dr-4.0-1") is None
        # checking an upstream marker leaves it as it was
        assert {name: (tmp_path / f"{name}.done.json").read_bytes()
                for name in upstream} == upstream

    def test_failed_forced_optimize_leaves_no_marker(self, run, tmp_path, monkeypatch):
        shutil.copytree(run["config"].out(), tmp_path, dirs_exist_ok=True)
        config = workflow.ExperimentConfig.from_dict(
            dict(asdict(run["config"]), output_dir=str(tmp_path)))
        with monkeypatch.context() as patch:
            patch.setattr(workflow, "estimate_all", _broken_in_grid(workflow.estimate_all))
            with pytest.raises(workflow.StageError, match="bug"):
                workflow.cmd_optimize(config, force=True)
        # a new continuous_dr.json lies beside the old front: nothing vouches for them
        assert not (tmp_path / "optimize-dr.done.json").exists()
        assert workflow.cmd_optimize(config)["skipped"] is False
        assert workflow._stage_complete(config, "optimize-dr") is not None

    @pytest.mark.parametrize("edit", ["copied", "budget", "relative"])
    def test_continued_directory_skips_the_expensive_stages(self, run, tmp_path, monkeypatch,
                                                            edit):
        # neither where the directory lies nor the budget decides what
        # generate, train-dr and optimize write
        config = run["config"]
        if edit == "copied":
            shutil.copytree(config.out(), tmp_path / "copy")
            changes = {"output_dir": str(tmp_path / "copy")}
        elif edit == "budget":
            changes = {"budget_seconds": 9.0}
        else:
            monkeypatch.chdir(config.out().parent)
            changes = {"output_dir": config.out().name}
        continued = replace(config, **changes)
        assert [stage(continued)["skipped"] for stage in self.STAGES[:3]] == [True] * 3

    def test_optimize_before_generate_raises(self, tmp_path):
        with pytest.raises(workflow.StageError):
            workflow.cmd_optimize(tiny_config(tmp_path))

    def test_fingerprint_is_stable(self):
        # stage markers stay valid while it holds
        assert tiny_config("experiment").fingerprint() == FINGERPRINT


class TestAddMetric:
    """``metric="add"``: the searches and the evaluation score with ``add_correct``."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        config = workflow.ExperimentConfig.from_dict(
            dict(asdict(tiny_config(tmp_path_factory.mktemp("add"))), metric="add",
                 eval_scenes=3))
        calls = {"add_correct": 0, "recall_contribution": 0}
        with pytest.MonkeyPatch.context() as patch:
            for name in calls:
                patch.setattr(workflow, name, _counted(getattr(workflow, name), calls, name))
            for stage in TestEndToEnd.STAGES[:3]:
                stage(config)
        return dict(config=config, calls=calls, report=workflow.cmd_evaluate(config))

    def test_searches_score_with_add_correct(self, run):
        assert run["calls"]["add_correct"] >= 1
        assert run["calls"]["recall_contribution"] == 0
        # one instance per search call, so every recall is 0 or 1
        grid = _grid_without_runtime(run["config"].out())
        assert {float(row[-1]) for row in grid[1:]} <= {0.0, 1.0}

    def test_report_recall_is_mean_add_correct(self, run):
        report = run["report"]
        assert report["metric"] == "add"

        def correct(model, scene, pose) -> float:
            return float(metrics.add_correct(model, scene.gt_poses[model.object_id], pose))

        scores = _eval_scores(run["config"], ContinuousParams(**report["continuous"]),
                              DiscreteParams.from_dict(report["selection"]["entry"]["params"]),
                              correct)
        assert report["recall"] == float(np.mean(scores))


class TestNoDr:
    """``no_dr=True``: the searches run on the validation scenes as generated."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        config = tiny_config(tmp_path_factory.mktemp("nodr"))
        workflow.cmd_generate(config)
        workflow.cmd_train_dr(config)
        seen = []
        original = workflow.estimate_all

        def recording(scene, *args, **kwargs):
            seen.append(scene.cloud.points)
            return original(scene, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(workflow, "estimate_all", recording)
            optimized = workflow.cmd_optimize(config, no_dr=True)
        return dict(config=config, seen=seen, optimized=optimized,
                    report=workflow.cmd_evaluate(config, no_dr=True))

    def test_writes_nodr_artifacts(self, run):
        out = run["config"].out()
        assert run["optimized"]["mode"] == run["report"]["mode"] == "nodr"
        assert sorted(p.name for p in (out / "opt").iterdir()) == \
            ["continuous_nodr.json", "front_nodr.json", "grid_nodr.csv", "trace_nodr.csv"]
        stamp = f"nodr_{run['report']['budget_seconds']!r}_1"
        assert sorted(p.name for p in (out / "eval").iterdir()) == \
            [f"report_{stamp}.json", f"scores_{stamp}.csv"]
        assert (out / "optimize-nodr.done.json").exists()
        assert not (out / "optimize-dr.done.json").exists()

    def test_searches_on_unnoised_validation_scenes(self, run):
        config = run["config"]
        [clean] = workflow.load_split(config, "validation")
        # 3 GP-UCB iterations and 16 grid tuples on the one validation scene
        assert len(run["seen"]) == 3 + 16
        assert all(np.array_equal(points, clean.cloud.points) for points in run["seen"])
        [noised] = workflow._noised_split(config, "validation",
                                          workflow.learned_levels(config), "valnoise-dr")
        assert not np.array_equal(noised.cloud.points, clean.cloud.points)


def _assert_same_results(a: SceneEstimate, b: SceneEstimate):
    assert a.results.keys() == b.results.keys()
    for object_id, ra in a.results.items():
        rb = b.results[object_id]
        assert (ra.found, ra.reason) == (rb.found, rb.reason)
        if ra.found:
            ha, hb = ra.hypothesis, rb.hypothesis
            assert np.array_equal(ha.pose.rotation, hb.pose.rotation)
            assert np.array_equal(ha.pose.translation, hb.pose.translation)
            assert (ha.depth_score, ha.inlier_count, ha.flags) == \
                (hb.depth_score, hb.inlier_count, hb.flags)


def _broken_in_grid(estimate):
    """``estimate`` for the GP-UCB calls; a grid call, the only kind that
    leaves ``BO_FIXED_DISCRETE``, raises ``ValueError("bug")``."""
    def broken(scene, models, cp, dp, **kwargs):
        if dp != workflow.BO_FIXED_DISCRETE:
            raise ValueError("bug")
        return estimate(scene, models, cp, dp, **kwargs)
    return broken


def _counting_clock(patch):
    """Every measurement spans as many ticks as clock reads, so a stage
    computed once costs 1 and equal stage times mean equal stage charges."""
    patch.setattr(pipeline, "clock", itertools.count().__next__)


def _recording_stages(patch) -> tuple[list, list, list]:
    """Log what each ``ranked_candidates``, ``_icp_refine`` and ``depth_check``
    call reads.

    A ranking logs its object and ``classified``. An ICP call logs its object,
    ``classified``, its candidate's points (which name the candidate index
    under that ``classified``), its RANSAC pose and ``icp_iters``; a depth
    check logs its object and the pose it checks.
    """
    ranked, refined, checked, at = [], [], [], {}
    estimate, rank = pipeline._estimate_prepared, pipeline.ranked_candidates
    icp, depth = pipeline._icp_refine, pipeline.depth_check

    def estimating(prepared, seeds, scene, model, cp, dp, *args):
        at.update(object_id=model.object_id, classified=dp.classified)
        return estimate(prepared, seeds, scene, model, cp, dp, *args)

    def ranking(prepared, seeds, model, cp, dp, *args):
        ranked.append((model.object_id, dp.classified))
        return rank(prepared, seeds, model, cp, dp, *args)

    def refining(pose, tree, *args):
        refined.append((at["object_id"], at["classified"], tree.data.tobytes(),
                        pose.key(), args[-1]))
        return icp(pose, tree, *args)

    def checking(pose, scene, model, *args):
        checked.append((model.object_id, pose.key()))
        return depth(pose, scene, model, *args)

    patch.setattr(pipeline, "_estimate_prepared", estimating)
    patch.setattr(pipeline, "ranked_candidates", ranking)
    patch.setattr(pipeline, "_icp_refine", refining)
    patch.setattr(pipeline, "depth_check", checking)
    return ranked, refined, checked


class TestPreparedScenes:
    """Validation scenes prepared once per search in one stage memo each, and
    the grid phase's sharing of those memos, give what a fresh call gives."""

    @pytest.fixture(scope="class")
    def validation(self):
        return validation_scenes()

    @pytest.mark.parametrize("cp, dp", [
        (DEPLOY_CP, workflow.BO_FIXED_DISCRETE),
        (DEPLOY_CP, DiscreteParams(2, 1, 100, 1, 2)),
        (ContinuousParams(0.3, 20.0, 4.0, 2.0, 60.0, 10.0, 70.0), DiscreteParams(8, 2, 300, 2, 6)),
    ], ids=["heavy", "cheap", "other-cp"])
    def test_prepared_call_matches_fresh_call(self, validation, cp, dp):
        models, scenes = validation
        for i, scene in enumerate(scenes):
            memo = scene_memo(scene)
            reused = estimate_all(scene, models, cp, dp, seed=i, memo=dict(memo))
            fresh = estimate_all(scene, models, cp, dp, seed=i)
            assert reused.timings["t_pre"] >= memo[("prepare",)][1]
            _assert_same_results(reused, fresh)
            assert any(r.found for r in reused.results.values())

    @pytest.fixture(scope="class")
    def fresh_grid(self, validation):
        """Per validation scene: its scene memo and a fresh call per bench
        tuple on a copy of it, timed by a counting clock."""
        models, scenes = validation
        grid = enumerate_grid(BENCH_GRID)
        runs = []
        for i, scene in enumerate(scenes):
            with pytest.MonkeyPatch.context() as patch:
                _counting_clock(patch)
                _, refined, checked = _recording_stages(patch)
                base = scene_memo(scene)
                runs.append((base, [estimate_all(scene, models, DEPLOY_CP, dp, seed=i,
                                                 memo=dict(base)) for dp in grid],
                             set(refined), set(checked)))
        return grid, runs

    @pytest.mark.parametrize("order", ["grid", "reversed"])
    def test_memo_over_the_grid_matches_fresh_calls(self, validation, fresh_grid, order,
                                                    monkeypatch):
        models, scenes = validation
        grid, runs = fresh_grid
        assert len(grid) == 48
        _counting_clock(monkeypatch)
        positions = list(range(len(grid)))
        if order == "reversed":
            positions.reverse()
        for i, (scene, (base, fresh, fresh_refined, fresh_checked)) in enumerate(
                zip(scenes, runs)):
            with pytest.MonkeyPatch.context() as patch:
                ranked, refined, checked = _recording_stages(patch)
                memo = dict(base)
                for k in positions:
                    reused = estimate_all(scene, models, DEPLOY_CP, grid[k], seed=i,
                                          memo=memo)
                    _assert_same_results(reused, fresh[k])
                    # every reused stage charges what computing it cost
                    assert reused.timings == fresh[k].timings
            # one entry per stage computed; a fresh call charged one tick per
            # stage it ran, so the tuples shared most of their stages. The
            # preparation, one entry and one tick per call, is left out
            stage_runs = sum(sum(f.timings.values()) - 1 for f in fresh)
            assert len(memo) - 1 < stage_runs / 3
            assert any(r.found for f in fresh for r in f.results.values())
            # ICP reads a hypothesis's pose, not its RANSAC iteration count or
            # its rank, and the depth check reads only the pose it checks: so
            # each distinct (classified, candidate, pose, icp_iters) is refined
            # once over the grid, and each distinct checked pose checked once
            assert len(refined) == len(fresh_refined) and set(refined) == fresh_refined
            assert len(checked) == len(fresh_checked) and set(checked) == fresh_checked
            # the ranking reads ``classified``, not ``estimated``: each object
            # is ranked once per ``classified`` over the grid
            rankings = {(model.object_id, classified) for model in models
                        for classified in BENCH_GRID.classified}
            assert len(ranked) == len(rankings) == 6 and set(ranked) == rankings

    def test_memo_filled_at_another_cp_or_seed_gives_the_fresh_result(self, validation,
                                                                      monkeypatch):
        models, scenes = validation
        other_cp = ContinuousParams(0.3, 20.0, 4.0, 2.0, 60.0, 10.0, 70.0)
        dp = DiscreteParams(4, 2, 100, 2, 6)
        _counting_clock(monkeypatch)
        for scene in scenes:
            base = scene_memo(scene)
            memo = dict(base)
            estimate_all(scene, models, DEPLOY_CP, dp, seed=0, memo=memo)
            for cp, seed in ((other_cp, 0), (DEPLOY_CP, 1)):
                reused = estimate_all(scene, models, cp, dp, seed=seed, memo=memo)
                fresh = estimate_all(scene, models, cp, dp, seed=seed, memo=dict(base))
                _assert_same_results(reused, fresh)
                assert reused.timings == fresh.timings

    def test_optimize_shares_a_memo_among_grid_calls_only(self, tmp_path, monkeypatch):
        config = workflow.ExperimentConfig.from_dict(
            dict(asdict(tiny_config(tmp_path)), validation_scenes=2))
        workflow.cmd_generate(config)
        memos = []
        original = workflow.estimate_all

        def recording(*args, **kwargs):
            memos.append(kwargs["memo"])
            return original(*args, **kwargs)

        monkeypatch.setattr(workflow, "estimate_all", recording)
        workflow.cmd_optimize(config, no_dr=True)
        # 3 GP-UCB iterations, then 16 grid tuples, each on the 2 scenes
        searched, grid = memos[:3 * 2], memos[3 * 2:]
        assert len(grid) == 16 * 2
        # one dict per scene, shared by all its grid calls
        first, second = grid[0], grid[1]
        assert isinstance(first, dict) and isinstance(second, dict) and first is not second
        assert all(m is first for m in grid[0::2]) and all(m is second for m in grid[1::2])
        # every GP-UCB call has a dict of its own, holding its scene's preparation
        assert len({id(m) for m in searched + [first, second]}) == 8
        assert all(m[("prepare",)] is first[("prepare",)] for m in searched[0::2])
        assert all(m[("prepare",)] is second[("prepare",)] for m in searched[1::2])
        assert len(first) > 1 and len(second) > 1

    def test_optimize_keeps_gp_ucb_stages_out_of_the_grid_memos(self, tmp_path, monkeypatch):
        config = workflow.ExperimentConfig.from_dict(
            dict(asdict(tiny_config(tmp_path)), validation_scenes=2))
        workflow.cmd_generate(config)
        at_grid = {}
        original = workflow.estimate_all

        def recording(scene, models, cp, dp, **kwargs):
            if dp != workflow.BO_FIXED_DISCRETE:
                at_grid.setdefault(id(kwargs["memo"]), set(kwargs["memo"]))
            return original(scene, models, cp, dp, **kwargs)

        monkeypatch.setattr(workflow, "estimate_all", recording)
        workflow.cmd_optimize(config, no_dr=True)
        # when the grid phase starts, each scene's memo holds only its preparation
        assert list(at_grid.values()) == [{("prepare",)}] * 2

    def test_optimize_prepares_each_validation_scene_once(self, tmp_path, monkeypatch):
        config = workflow.ExperimentConfig.from_dict(
            dict(asdict(tiny_config(tmp_path)), validation_scenes=2))
        workflow.cmd_generate(config)
        calls = {"pipeline": 0}
        monkeypatch.setattr(pipeline, "prepare",
                            _counted(pipeline.prepare, calls, "pipeline"))
        workflow.cmd_optimize(config, no_dr=True)
        assert calls == {"pipeline": 2}


def test_generate_and_train_dr_make_no_full_resolution_render(tmp_path, monkeypatch):
    # the scenes they write and the DR copies the trainer scores never read
    # their depth image, so only generate_scene's coarse visibility pass renders
    config = tiny_config(tmp_path)
    widths = []
    for module in (scenes, pipeline, metrics):
        def counted(points, cam, render=module.render_depth):
            widths.append(cam.width)
            return render(points, cam)
        monkeypatch.setattr(module, "render_depth", counted)
    workflow.cmd_generate(config)
    workflow.cmd_train_dr(config)
    assert len(widths) == 3   # one train, validation and eval scene each
    assert default_camera().width not in widths


class TestStageMarkers:
    @pytest.mark.parametrize("damage", [
        lambda text: text[:len(text) // 2],                       # truncated write
        lambda text: json.dumps({"stage": "generate"}),           # no config_hash
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "summary"}),             # no summary
        lambda text: "[]",
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "reads"}),               # an older format
    ], ids=["truncated", "no-hash", "no-summary", "not-an-object", "no-reads"])
    def test_damaged_marker_reruns_the_stage(self, tmp_path, damage):
        config = tiny_config(tmp_path)
        workflow.cmd_generate(config)
        marker = tmp_path / "generate.done.json"
        intact = marker.read_text()
        marker.write_text(damage(intact))
        assert workflow.cmd_generate(config)["skipped"] is False
        assert marker.read_text() == intact
        assert workflow.cmd_generate(config)["skipped"] is True
        assert sorted(p.name for p in tmp_path.glob("*.json")) == ["generate.done.json"]

    def test_objective_bug_becomes_stage_error(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path)
        workflow.cmd_generate(config)
        _write_levels(config, json.dumps(
            {"xyz_sigma": 0.5, "normal_sigma": 0.0, "rgb_sigma": 0.0, "rgb_shift": 0.0,
             "rotation_max": 0.0, "flatten_frac": 0.0}))

        # whatever the objective raises fails the stage; nothing scores it 0
        for error in (TypeError, ValueError, np.linalg.LinAlgError):
            def broken(*args, **kwargs):
                raise error("bug")

            monkeypatch.setattr(workflow, "estimate_all", broken)
            with pytest.raises(workflow.StageError, match="bug") as raised:
                workflow.cmd_optimize(config)
            assert raised.value.stage == "optimize:continuous"
            assert isinstance(raised.value.__cause__, error)

    def test_grid_objective_error_becomes_stage_error(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path)
        workflow.cmd_generate(config)
        monkeypatch.setattr(workflow, "estimate_all", _broken_in_grid(workflow.estimate_all))
        with pytest.raises(workflow.StageError, match="bug") as raised:
            workflow.cmd_optimize(config, no_dr=True)
        assert raised.value.stage == "optimize:discrete"
        assert not (tmp_path / "opt" / "grid_nodr.csv").exists()


def _markers(out) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in out.glob("*.done.json")}


class TestStageGraph:
    """Each stage runs only on the stages it reads, and a stage that reruns
    unmarks every stage that read it."""

    @pytest.fixture(scope="class")
    def done(self, tmp_path_factory):
        """A tiny experiment with every stage done in both modes."""
        config = tiny_config(tmp_path_factory.mktemp("graph"))
        workflow.cmd_generate(config)
        workflow.cmd_train_dr(config)
        for no_dr in (False, True):
            workflow.cmd_optimize(config, no_dr=no_dr)
            workflow.cmd_evaluate(config, no_dr=no_dr)
        return config

    @staticmethod
    def copy(config, directory):
        shutil.copytree(config.out(), directory, dirs_exist_ok=True)
        return replace(config, output_dir=str(directory))

    @pytest.mark.parametrize("command, no_dr, upstream", [
        ("train_dr", None, "generate"),
        ("optimize", False, "generate"), ("optimize", False, "train-dr"),
        ("optimize", True, "generate"),
        ("evaluate", False, "optimize-dr"), ("evaluate", False, "train-dr"),
        ("evaluate", True, "optimize-nodr"), ("evaluate", True, "train-dr"),
    ])
    def test_stage_without_an_upstream_marker_fails_first(self, done, tmp_path, monkeypatch,
                                                          command, no_dr, upstream):
        config = self.copy(done, tmp_path)
        (tmp_path / f"{upstream}.done.json").unlink()
        markers = _markers(tmp_path)
        calls = []
        monkeypatch.setattr(workflow, "estimate_all", lambda *args, **kwargs: calls.append(1))
        options = {} if no_dr is None else {"no_dr": no_dr}
        with pytest.raises(workflow.StageError,
                           match=f"the '{upstream}' stage has not run") as raised:
            getattr(workflow, f"cmd_{command}")(config, **options)
        assert raised.value.stage == command.replace("_", "-")
        assert _markers(tmp_path) == markers
        assert calls == []

    def test_forced_generate_reruns_every_later_stage(self, done, tmp_path):
        config = self.copy(done, tmp_path)
        workflow.cmd_generate(config, force=True)
        assert [stage(config)["skipped"] for stage in TestEndToEnd.STAGES[1:]] == [False] * 3

    def test_forced_optimize_reruns_evaluate_on_the_new_fit(self, done, tmp_path):
        config = self.copy(done, tmp_path)
        workflow.cmd_optimize(config, force=True)
        report = workflow.cmd_evaluate(config)
        assert report["skipped"] is False
        _, _, coeffs = workflow.load_optimization(config)
        dp = DiscreteParams(**report["selection"]["entry"]["params"])
        assert report["predicted_runtime"] == predict_runtime(coeffs, dp, 1)

    def test_forced_train_dr_unmarks_its_readers_only(self, done, tmp_path):
        config = self.copy(done, tmp_path)
        assert sorted(_markers(tmp_path)) == [
            "evaluate-dr-4.0-1.done.json", "evaluate-nodr-4.0-1.done.json",
            "generate.done.json", "optimize-dr.done.json", "optimize-nodr.done.json",
            "train-dr.done.json"]
        workflow.cmd_train_dr(config, force=True)
        assert sorted(_markers(tmp_path)) == [
            "generate.done.json", "optimize-nodr.done.json", "train-dr.done.json"]


def _loaded_by_workflow(module: str) -> bool:
    """Whether importing ``posetune.workflow`` loads ``module``, asked of a
    fresh interpreter so that no other test's import counts."""
    src = str(Path(posetune.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, posetune.workflow; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip() == "True"


def test_package_does_not_load_scipy_ndimage():
    assert not _loaded_by_workflow("scipy.ndimage")


def test_package_does_not_load_scipy_optimize():
    # the runtime fit needs no solver: each stage is one ratio of sums
    assert not _loaded_by_workflow("scipy.optimize")
