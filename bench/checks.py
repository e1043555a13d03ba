"""Output checks computed apart from the program, or properties the method must have.

Each check returns a list of failure messages; an empty list means it held.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from pathlib import Path

import numpy as np

from posetune import metrics, scenes, workflow

DISCRETE_FIELDS = ("classified", "estimated", "ransac_iters", "depth_checked", "icp_iters")


def csv_rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text())))


def _in_unit_interval(name: str, value: float) -> list[str]:
    return [] if 0.0 <= value <= 1.0 else [f"{name} {value} outside [0, 1]"]


def feasible_grid(grid: dict) -> set[tuple[int, ...]]:
    """Grid tuples the pipeline accepts: estimated <= classified, depth_checked <= ransac_iters."""
    return {combo for combo in itertools.product(*(grid[f] for f in DISCRETE_FIELDS))
            if combo[1] <= combo[0] and combo[3] <= combo[2]}


def dominance_front(points: list[tuple[float, float]]) -> set[tuple[float, float]]:
    """(runtime, recall) points no other point beats on one axis without losing on the other."""
    return {p for p in points
            if not any(q[0] <= p[0] and q[1] >= p[1] and q != p for q in points)}


def check_configure(out_dir: Path, experiment: dict, trace, grid_entries) -> list[str]:
    """Checks on one configure round's artifacts and on the searches' return values."""
    problems: list[str] = []
    opt = out_dir / "opt"

    # GP-UCB: one row per scheduled iteration, inside the bounds, best = max.
    scheduled = sum(count for count, _ in experiment["schedule"])
    rows = csv_rows(opt / "trace_dr.csv")
    if len(rows) != scheduled or len(trace) != scheduled:
        problems.append(f"trace has {len(rows)} rows and {len(trace)} entries, "
                        f"{scheduled} iterations were scheduled")
    space = workflow.SearchSpace.default()
    for entry in trace:
        values = entry.params.as_vector()
        if (values < space.lower).any() or (values > space.upper).any():
            problems.append(f"iteration {entry.iteration} outside the search bounds")
    best_value = json.loads((opt / "continuous_dr.json").read_text())["best_value"]
    if trace and best_value != max(entry.value for entry in trace):
        problems.append(f"reported best {best_value} is not the trace maximum")
    problems += _in_unit_interval("best GP-UCB recall", best_value)

    # Grid: exactly one row per feasible tuple.
    expected = feasible_grid(experiment["grid"])
    measured = [tuple(int(row[f]) for f in DISCRETE_FIELDS)
                for row in csv_rows(opt / "grid_dr.csv")]
    if len(measured) != len(expected) or set(measured) != expected:
        problems.append(f"grid has {len(measured)} rows ({len(set(measured))} distinct), "
                        f"{len(expected)} feasible tuples expected")
    for entry in grid_entries:
        problems += _in_unit_interval("grid recall", entry.recall)

    # Front: the same points as a pairwise-dominance filter of the grid.
    saved = json.loads((opt / "front_dr.json").read_text())
    front_points = {(e["runtime"], e["recall"]) for e in saved["front"]}
    own = dominance_front([(e.runtime, e.recall) for e in grid_entries])
    if front_points != own:
        problems.append(f"front has {len(front_points)} points, the dominance "
                        f"filter of the grid keeps {len(own)}")
    negative = {k: v for k, v in saved["coefficients"].items() if v < 0}
    if negative:
        problems.append(f"negative runtime coefficients {negative}")

    # DR levels: starting levels plus whole jumps per channel, never negative.
    start = np.array(scenes.default_noise_config().as_tuple())
    jumps = np.array(scenes.default_jump_sizes().as_tuple())
    for path in sorted((out_dir / "dr").glob("*.json")):
        if path.name == "levels.json":
            continue
        final = np.array(scenes.NoiseConfig(
            **json.loads(path.read_text())["final_levels"]).as_tuple())
        steps = (final - start) / jumps
        if (final < 0).any() or not np.allclose(steps, np.round(steps), atol=1e-9):
            problems.append(f"{path.stem}: final DR levels {final.tolist()} are not "
                            f"start + whole jumps")
    return problems


def check_deploy_image(scene, models, bundle, scores, self_score: bool) -> list[str]:
    """Checks on one deploy image: score bounds, centre distance vs MSSD, self-score."""
    problems: list[str] = []
    for model, score in zip(models, scores):
        problems += _in_unit_interval(f"{model.object_id} recall", score)
        gt = scene.gt_poses[model.object_id]
        result = bundle.results[model.object_id]
        if result.found:
            est = result.hypothesis.pose
            # The centre moves by the mean point displacement (up to twice the
            # model centroid's offset from the origin), and a mean is at most
            # the maximum that MSSD takes.
            centroid = np.linalg.norm(model.cloud.points.mean(axis=0))
            centre = np.linalg.norm(est.translation - gt.translation)
            if centre > metrics.mssd_score(model, gt, est) + 2 * centroid + 1e-9:
                problems.append(f"{model.object_id}: centre distance {centre:.3f} "
                                f"exceeds MSSD")
        if self_score:
            own = metrics.recall_contribution(model, gt, gt, scene.cam, scene.depth)
            if own != 1.0:
                problems.append(f"{model.object_id}: ground truth scores {own}, not 1")
    return problems
