"""Where the traced run hooks into each posetune layer, and the per-layer metrics.

Every hook replaces the module attribute the program looks its callee up
by, so a call made from inside the program is seen as well as a call made by
the benchmark. Span names are ``<defining module>.<function>``.
"""

from __future__ import annotations

from posetune import bayesopt, metrics, pipeline, scenes, training, workflow

from tracing import Patches, Tracer


def _estimate_counts(counts, args, kwargs, result):
    for key, seconds in result.timings.items():
        counts[key] += seconds
    counts["instances"] += len(result.results)
    counts["found"] += sum(r.found for r in result.results.values())


def _ransac_counts(counts, args, kwargs, result):
    matches = args[0] if args else kwargs["matches"]
    iterations = args[2] if len(args) > 2 else kwargs["iterations"]
    counts["ransac_pairs"] += len(matches) * iterations


def _front_counts(counts, args, kwargs, result):
    counts["front_size"] = len(result)


HOOKS = [
    (workflow, "cmd_generate", "workflow.cmd_generate", None),
    (workflow, "cmd_train_dr", "workflow.cmd_train_dr", None),
    (workflow, "cmd_optimize", "workflow.cmd_optimize", None),
    (workflow, "estimate_all", "pipeline.estimate_all", _estimate_counts),
    (pipeline, "estimate_all", "pipeline.estimate_all", _estimate_counts),
    (pipeline, "generate_votes", "pipeline.generate_votes", None),
    (pipeline, "ransac_pose", "pipeline.ransac_pose", _ransac_counts),
    (pipeline, "depth_check", "pipeline.depth_check", None),
    (pipeline, "voxel_downsample", "geometry.voxel_downsample", None),
    (pipeline, "render_depth", "camera.render_depth", None),
    (metrics, "render_depth", "camera.render_depth", None),
    (scenes, "render_depth", "camera.render_depth", None),
    (workflow, "generate_scene", "scenes.generate_scene", None),
    (scenes, "generate_scene", "scenes.generate_scene", None),
    (workflow, "apply_domain_randomization", "scenes.apply_domain_randomization", None),
    (training, "apply_domain_randomization", "scenes.apply_domain_randomization", None),
    (scenes, "apply_domain_randomization", "scenes.apply_domain_randomization", None),
    (workflow, "save_scene", "scenes.save_scene", None),
    (workflow, "load_scene", "scenes.load_scene", None),
    (training.SurrogateTrainer, "__call__", "training.SurrogateTrainer.__call__", None),
    (workflow, "optimize_continuous", "bayesopt.optimize_continuous", None),
    (bayesopt, "gp_fit", "bayesopt.gp_fit", None),
    (bayesopt, "ucb_acquire", "bayesopt.ucb_acquire", None),
    (workflow, "evaluate_grid", "gridopt.evaluate_grid", None),
    (workflow, "fit_runtime_model", "gridopt.fit_runtime_model", None),
    (workflow, "pareto_front", "gridopt.pareto_front", _front_counts),
    (workflow, "recall_contribution", "metrics.recall_contribution", None),
    (metrics, "recall_contribution", "metrics.recall_contribution", None),
]


def install(tracer: Tracer, patches: Patches):
    for owner, attr, name, on_result in HOOKS:
        tracer.wrap(patches, owner, attr, name, on_result)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    summary = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    ransac_pairs = counts["ransac_pairs"]
    votes = summary.get("pipeline.generate_votes", {"calls": 0, "returned": 0})
    return {
        "workflow.generate_s": total("workflow.cmd_generate"),
        "workflow.train_dr_s": total("workflow.cmd_train_dr"),
        "workflow.optimize_s": total("workflow.cmd_optimize"),
        "pipeline.estimate_calls": calls("pipeline.estimate_all"),
        "pipeline.estimate_s": total("pipeline.estimate_all"),
        **{f"pipeline.{key}_s": counts[key] for key in pipeline.STAGE_KEYS},
        "pipeline.ransac_calls": calls("pipeline.ransac_pose"),
        "pipeline.ransac_pairs": ransac_pairs,
        "pipeline.ransac_pairs_per_s": _ratio(ransac_pairs, total("pipeline.ransac_pose")),
        "pipeline.vote_attempts": votes["calls"],
        "pipeline.vote_yield": _ratio(votes["returned"], votes["calls"]),
        "pipeline.depth_checks": calls("pipeline.depth_check"),
        "pipeline.found_ratio": _ratio(counts["found"], counts["instances"]),
        "geometry.voxel_calls": calls("geometry.voxel_downsample"),
        "geometry.voxel_s": total("geometry.voxel_downsample"),
        "camera.render_calls": calls("camera.render_depth"),
        "camera.render_s": total("camera.render_depth"),
        "scenes.generate_s": total("scenes.generate_scene"),
        "scenes.dr_calls": calls("scenes.apply_domain_randomization"),
        "scenes.dr_s": total("scenes.apply_domain_randomization"),
        "scenes.io_s": total("scenes.save_scene") + total("scenes.load_scene"),
        "training.epochs": calls("training.SurrogateTrainer.__call__"),
        "training.epoch_s": total("training.SurrogateTrainer.__call__"),
        "bayesopt.iterations": calls("bayesopt.objective"),
        "bayesopt.gp_fit_s": total("bayesopt.gp_fit"),
        "bayesopt.acquire_s": total("bayesopt.ucb_acquire"),
        "bayesopt.objective_s": total("bayesopt.objective"),
        "bayesopt.overhead_s": summary.get("bayesopt.optimize_continuous", {}).get("self_s", 0.0),
        "gridopt.tuples": calls("gridopt.objective"),
        "gridopt.evaluate_s": total("gridopt.evaluate_grid"),
        "gridopt.fit_s": total("gridopt.fit_runtime_model"),
        "gridopt.front_size": counts["front_size"],
        "metrics.score_calls": calls("metrics.recall_contribution"),
        "metrics.score_s": total("metrics.recall_contribution"),
    }
