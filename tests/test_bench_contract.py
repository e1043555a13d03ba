"""The names in ``posetune`` that the benchmark patches or reads.

``bench/tracing.Patches.replace`` raises ``AttributeError`` on a missing
name, so renaming or deleting one of the patched names breaks
``bench/run.py --trace 1``; a missing name that ``bench/*.py`` reads breaks
every run. A hooked name that still exists but that the program no longer
calls through reads 0 in a traced run: ``test_hooks_see_the_program_calls``
catches that.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from posetune import pipeline, workflow  # noqa: E402
from posetune.scenes import default_noise_config  # noqa: E402
from posetune.training import SurrogateTrainer  # noqa: E402
from tracing import Patches, Tracer  # noqa: E402

from bench_inputs import DEPLOY_CP, validation_scenes  # noqa: E402

# What ``workloads.configure`` replaces to count operations and time images.
CONFIGURE_PATCHES = ("optimize_continuous", "evaluate_grid", "estimate_all")

# Every other ``posetune`` name that ``bench/*.py`` reads, as
# ``<module>.<name>[.<attribute>]``; methods are read on instances.
READ_NAMES = (
    "workflow.ExperimentConfig", "workflow.cmd_generate", "workflow.cmd_train_dr",
    "workflow.cmd_optimize", "workflow.SearchSpace.default", "workflow.learned_levels",
    "pipeline.STAGE_KEYS", "pipeline.estimate_all", "pipeline.ContinuousParams.as_vector",
    "pipeline.DiscreteParams.from_dict",
    "scenes.NoiseConfig.as_tuple", "scenes.NoiseConfig.as_dict", "scenes.default_noise_config",
    "scenes.default_jump_sizes", "scenes.generate_scene", "scenes.apply_domain_randomization",
    "objects.make_object", "training.SurrogateTrainer",
    "metrics.mssd_score", "metrics.recall_contribution",
)


@pytest.mark.parametrize("owner, attr", [(owner, attr) for owner, attr, *_ in layers.HOOKS],
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, *_ in layers.HOOKS])
def test_hooked_name_exists(owner, attr):
    assert callable(getattr(owner, attr, None))


@pytest.mark.parametrize("attr", CONFIGURE_PATCHES)
def test_configure_patch_point_exists(attr):
    assert callable(getattr(workflow, attr, None))


@pytest.mark.parametrize("name", READ_NAMES)
def test_read_name_exists(name):
    module, *path = name.split(".")
    value = importlib.import_module(f"posetune.{module}")
    for attr in path:
        value = getattr(value, attr)


def test_read_names_cover_the_bench_sources():
    # every ``<module>.<name>`` read off a module imported from posetune
    listed = {".".join(name.split(".")[:2]) for name in READ_NAMES}
    for source in sorted(BENCH.glob("*.py")):
        tree = ast.parse(source.read_text())
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "posetune"
                   for alias in node.names}
        read = {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules}
        assert read <= listed, f"{source.name} reads {sorted(read - listed)}"


def test_hooks_see_the_program_calls():
    # the inputs are built before the hooks go in, so every span below comes
    # from the two calls: one GP-UCB estimate and one DR epoch
    models, [scene, _] = validation_scenes()
    trainer = SurrogateTrainer([scene], models[0])
    tracer, patches = Tracer(), Patches()
    layers.install(tracer, patches)
    try:
        pipeline.estimate_all(scene, models, DEPLOY_CP, workflow.BO_FIXED_DISCRETE)
        estimated = tracer.summary()
        trainer(0, default_noise_config())
        trained = tracer.summary()
    finally:
        patches.close()
    for name in ("pipeline.generate_votes", "pipeline.ransac_pose", "pipeline.depth_check",
                 "geometry.voxel_downsample", "camera.render_depth"):
        assert estimated.get(name, {}).get("calls", 0) >= 1, name
    for name in ("training.SurrogateTrainer.__call__", "scenes.apply_domain_randomization"):
        assert trained.get(name, {}).get("calls", 0) >= 1, name


def test_scene_render_goes_through_the_hooked_name():
    # the first read of a scene's depth image, inside ``estimate_all``, renders
    # through ``scenes.render_depth``, so a traced run counts it once
    models, [scene, _] = validation_scenes()
    counts = []
    for _ in range(2):
        tracer, patches = Tracer(), Patches()
        layers.install(tracer, patches)
        try:
            pipeline.estimate_all(scene, models, DEPLOY_CP, workflow.BO_FIXED_DISCRETE)
        finally:
            patches.close()
        counts.append(tracer.summary()["camera.render_depth"]["calls"])
    assert counts[0] == counts[1] + 1
