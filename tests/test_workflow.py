import json

import numpy as np
import pytest

from posetune import metrics, workflow
from posetune.gridopt import ParetoEntry, RuntimeCoefficients
from posetune.pipeline import ContinuousParams, DiscreteParams, estimate_all
from posetune.seeding import stream_seed

OPTIMIZED = ContinuousParams(vote_threshold=0.174, ransac_dist=19.88, icp_dist=4.85,
                             icp_scale=1.24, background_dist=86.0, accept_dist=12.0,
                             cut_radius=108.0)
SMALL_DP = DiscreteParams(classified=4, estimated=1, ransac_iters=100,
                          depth_checked=1, icp_iters=2)
# ``tiny_config("experiment").fingerprint()`` as first released.
FINGERPRINT = "f423e061b86340e4f95e93d87c96971222047271de1fe6606442f08ba1c7fb42"


@pytest.fixture(scope="module")
def evaluated_config(tmp_path_factory):
    """A tiny experiment with hand-written DR levels and optimization results."""
    out = tmp_path_factory.mktemp("experiment")
    config = workflow.ExperimentConfig(
        objects=[{"shape": "box", "id": "box", "size": [40.0, 55.0, 75.0]}],
        output_dir=str(out), seed=3, train_scenes=1, validation_scenes=1,
        eval_scenes=3, clutter=0.0, occlusion=0.0)
    workflow.cmd_generate(config)
    (out / "dr").mkdir()
    (out / "dr" / "levels.json").write_text(json.dumps(
        {"xyz_sigma": 0.5, "normal_sigma": 0.0, "rgb_sigma": 0.0, "rgb_shift": 0.0,
         "rotation_max": 0.0, "flatten_frac": 0.0}))
    (out / "opt").mkdir()
    (out / "opt" / "continuous_dr.json").write_text(json.dumps(
        {"params": OPTIMIZED.as_dict()}))
    (out / "opt" / "front_dr.json").write_text(json.dumps(
        {"front": [ParetoEntry(SMALL_DP, 0.1, 0.5).to_dict()],
         "coefficients": RuntimeCoefficients(0.01, 0.0, 0.0, 0.0, 0.0).to_dict()}))
    return config


class TestEvaluate:
    def test_scores_each_found_instance_once(self, evaluated_config, monkeypatch):
        calls = []
        original = metrics.recall_contribution

        def counted(*args, **kwargs):
            calls.append(args[0].object_id)
            return original(*args, **kwargs)

        monkeypatch.setattr(metrics, "recall_contribution", counted)
        monkeypatch.setattr(workflow, "recall_contribution", counted)
        report = workflow.cmd_evaluate(evaluated_config, force=True)
        stamp = f"dr_{report['budget_seconds']:g}_{report['object_count']}"
        rows = (evaluated_config.out() / "eval" / f"scores_{stamp}.csv").read_text()
        found = len(rows.strip().splitlines()) - 1
        assert found >= 1
        assert len(calls) == found

    def test_recall_matches_per_instance_scores(self, evaluated_config):
        # reference: estimate again and score every instance with _instance_score
        def _instance_score(config, model, scene, result) -> float:
            if not result.found:
                return 0.0
            gt = scene.gt_poses[model.object_id]
            if config.metric == "add":
                return float(metrics.add_correct(model, gt, result.hypothesis.pose,
                                                 model.is_symmetric))
            return metrics.recall_contribution(model, gt, result.hypothesis.pose,
                                               scene.cam, scene.depth)

        report = workflow.cmd_evaluate(evaluated_config, force=True)
        models = workflow.build_models(evaluated_config)
        levels = workflow.learned_levels(evaluated_config)
        scenes = workflow._noised_split(evaluated_config, "eval", levels, "evalnoise")
        scores = []
        for i, scene in enumerate(scenes):
            bundle = estimate_all(scene, models, OPTIMIZED, SMALL_DP,
                                  seed=stream_seed(evaluated_config.seed, "eval-est", i))
            scores += [_instance_score(evaluated_config, model, scene,
                                       bundle.results[model.object_id])
                       for model in models]
        assert report["recall"] == float(np.mean(scores))


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
    paths = [*sorted((out / "scenes").rglob("*.*")), out / "manifest.json",
             *sorted((out / "dr").glob("*.json")), out / "opt" / "continuous_dr.json",
             out / "opt" / "trace_dr.csv"]
    return {str(p.relative_to(out)): p.read_bytes() for p in paths}


def _grid_without_runtime(out) -> list[list[str]]:
    rows = [line.split(",") for line in
            (out / "opt" / "grid_dr.csv").read_text().splitlines()]
    column = rows[0].index("runtime")
    return [row[:column] + row[column + 1:] for row in rows]


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
    ])
    def test_rejects_bad_values(self, name, value):
        data = dict(tiny_config("experiment").to_dict(), **{name: value})
        with pytest.raises(ValueError, match=name):
            workflow.ExperimentConfig.from_dict(data)

    def test_accepts_boundary_values(self):
        data = dict(tiny_config("experiment").to_dict(), clutter=1.0, occlusion=0.0,
                    epochs=1, budget_seconds=0.01)
        assert workflow.ExperimentConfig.from_dict(data).to_dict() == data


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

    def test_optimize_before_generate_raises(self, tmp_path):
        with pytest.raises(workflow.StageError):
            workflow.cmd_optimize(tiny_config(tmp_path))

    def test_fingerprint_is_stable(self):
        # stage markers written by earlier versions stay valid
        assert tiny_config("experiment").fingerprint() == FINGERPRINT


class TestStageMarkers:
    @pytest.mark.parametrize("damage", [
        lambda text: text[:len(text) // 2],                       # truncated write
        lambda text: json.dumps({"stage": "generate"}),           # no config_hash
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "summary"}),             # no summary
        lambda text: "[]",
    ], ids=["truncated", "no-hash", "no-summary", "not-an-object"])
    def test_damaged_marker_reruns_the_stage(self, tmp_path, damage):
        config = tiny_config(tmp_path)
        workflow.cmd_generate(config)
        marker = tmp_path / "generate.done.json"
        intact = marker.read_text()
        marker.write_text(damage(intact))
        assert workflow.cmd_generate(config)["skipped"] is False
        assert marker.read_text() == intact
        assert workflow.cmd_generate(config)["skipped"] is True
        assert sorted(p.name for p in tmp_path.glob("*.json")) == \
            ["generate.done.json", "manifest.json"]

    def test_objective_bug_becomes_stage_error(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path)
        workflow.cmd_generate(config)
        (tmp_path / "dr").mkdir()
        (tmp_path / "dr" / "levels.json").write_text(json.dumps(
            {"xyz_sigma": 0.5, "normal_sigma": 0.0, "rgb_sigma": 0.0, "rgb_shift": 0.0,
             "rotation_max": 0.0, "flatten_frac": 0.0}))

        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(workflow, "estimate_all", broken)
        with pytest.raises(workflow.StageError, match="bug"):
            workflow.cmd_optimize(config)
