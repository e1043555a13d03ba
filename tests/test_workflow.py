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
        report = workflow.cmd_evaluate(evaluated_config, force=True)
        models = workflow.build_models(evaluated_config)
        levels = workflow.learned_levels(evaluated_config)
        scenes = workflow._noised_split(evaluated_config, "eval", levels, "evalnoise")
        scores = []
        for i, scene in enumerate(scenes):
            bundle = estimate_all(scene, models, OPTIMIZED, SMALL_DP,
                                  seed=stream_seed(evaluated_config.seed, "eval-est", i))
            scores += [workflow._instance_score(evaluated_config, model, scene,
                                                bundle.results[model.object_id])
                       for model in models]
        assert report["recall"] == float(np.mean(scores))
