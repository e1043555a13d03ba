"""Discrete grid search, runtime/recall Pareto front, and the runtime cost model.

The cost model is linear in the work terms implied by the pipeline structure:

    t_image = t_pre + obj * (t_net*PC + PE*(t_ran*RI + DC*(t_icp*II + t_depth)))

and each stage's coefficient is fit to that stage's measured times over the
grid. DC counts hypotheses, but the pipeline refines and checks a repeated
pose once, so where RANSAC chunks agree the measured ICP and depth times lie
below DC times the per-hypothesis cost. The model is linear in the object
count, but the grid measures only the configured count, so the fit is made
there alone; nothing checks its predictions at another count.
"""

from __future__ import annotations

import io
import csv
import itertools
from dataclasses import astuple, dataclass, fields
from typing import Callable

import numpy as np

from .pipeline import STAGE_KEYS, DiscreteParams

# The runtime fit needs at least this many measured grid tuples.
MIN_MEASUREMENTS = 5


@dataclass(frozen=True)
class GridSpec:
    """Integer values to test per discrete parameter; each list strictly increasing."""

    classified: tuple[int, ...]
    estimated: tuple[int, ...]
    ransac_iters: tuple[int, ...]
    depth_checked: tuple[int, ...]
    icp_iters: tuple[int, ...]

    def __post_init__(self):
        for f in fields(self):
            values = tuple(getattr(self, f.name))
            if not values:
                raise ValueError(f"{f.name} list is empty")
            if any(type(v) is not int for v in values):
                raise ValueError(f"{f.name} values must be integers")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{f.name} values must be strictly increasing")
            object.__setattr__(self, f.name, values)

    @staticmethod
    def reference() -> "GridSpec":
        """The published full-scale grid."""
        return GridSpec(classified=(8, 16, 32), estimated=(2, 4, 6, 8, 10),
                        ransac_iters=(500, 1500, 2500), depth_checked=(1, 2, 5, 10),
                        icp_iters=(10, 30, 50))


@dataclass(frozen=True)
class ParetoEntry:
    """One measured tuple. ``stages`` holds the mean time of each stage in
    ``STAGE_KEYS`` and ``runtime`` is their sum."""

    params: DiscreteParams
    runtime: float
    recall: float
    stages: dict[str, float]


@dataclass(frozen=True)
class RuntimeCoefficients:
    """Per-unit stage durations (seconds), each nonnegative. The stage fields
    are ``STAGE_KEYS`` in order: ``fit_runtime_model`` fills them by position."""

    t_pre: float
    t_net: float
    t_ran: float
    t_icp: float
    t_depth: float
    residual: float = 0.0

    def __post_init__(self):
        for f, value in zip(fields(self), self.as_tuple()):
            if value < 0:
                raise ValueError(f"{f.name} must be >= 0")

    def as_tuple(self) -> tuple[float, ...]:
        """The stage durations, without the fit residual."""
        return astuple(self)[:-1]


def enumerate_grid(spec: GridSpec) -> list[DiscreteParams]:
    """Feasible Cartesian product, in deterministic nested order."""
    out = []
    for pc, pe, ri, dc, ii in itertools.product(*astuple(spec)):
        if pe <= pc and dc <= ri:
            out.append(DiscreteParams(pc, pe, ri, dc, ii))
    return out


def evaluate_grid(
    grid: list[DiscreteParams],
    objective: Callable[[DiscreteParams], tuple[dict[str, float], float]],
) -> list[ParetoEntry]:
    """Measure (stage times, recall) for every tuple, one after another so
    that no two measurements contend; the entry's runtime is the stages' sum.
    A stage time may have been measured under an earlier tuple that shared
    the stage, so the runtime is what a fresh image costs, not the wall time
    of this tuple's call. The objective returns a measurement or raises;
    whatever it raises ends the search and propagates."""
    entries = []
    for params in grid:
        stages, recall = objective(params)
        stages = {key: float(stages[key]) for key in STAGE_KEYS}
        entries.append(ParetoEntry(params, sum(stages.values()), float(recall), stages))
    return entries


def _entry_sort_key(entry: ParetoEntry):
    return (entry.runtime, entry.recall, astuple(entry.params))


def pareto_front(entries: list[ParetoEntry]) -> list[ParetoEntry]:
    """Runtime-sorted sweep keeping strict recall improvements.

    Entries sharing a runtime collapse to the best recall among them, so the
    front is strictly increasing in both coordinates and matches a pairwise
    dominance filter.
    """
    if not entries:
        raise ValueError("no entries")
    front: list[ParetoEntry] = []
    for entry in sorted(entries, key=_entry_sort_key):
        if front and entry.runtime == front[-1].runtime:
            if entry.recall > front[-1].recall:
                front[-1] = entry
            continue
        if not front or entry.recall > front[-1].recall:
            front.append(entry)
    return front


# Regressors paired with (t_pre, t_net, t_ran, t_icp, t_depth).
def _design_row(params: DiscreteParams, objects: int) -> list[float]:
    return [1.0,
            objects * params.classified,
            objects * params.estimated * params.ransac_iters,
            objects * params.estimated * params.depth_checked * params.icp_iters,
            objects * params.estimated * params.depth_checked]


def fit_runtime_model(entries: list[ParetoEntry], objects: int) -> RuntimeCoefficients:
    """Fit each stage on its own over grid entries measured at ``objects``
    objects per image.

    Stage k's coefficient is the least-squares slope through the origin of
    its measured times t_k against its own regressor x_k (``_design_row``):
    sum(x_k t_k) / sum(x_k^2). Regressors are at least 1 and times are
    nonnegative, so every coefficient is too. ``residual`` is the norm of the
    predicted minus the measured total times.
    """
    if len(entries) < MIN_MEASUREMENTS:
        raise ValueError(f"need at least {MIN_MEASUREMENTS} measurements")
    x = np.array([_design_row(e.params, objects) for e in entries])
    t = np.array([[e.stages[key] for key in STAGE_KEYS] for e in entries])
    coeffs = (x * t).sum(axis=0) / (x * x).sum(axis=0)
    residual = np.linalg.norm(x @ coeffs - t.sum(axis=1))
    return RuntimeCoefficients(*coeffs, residual=float(residual))


def predict_runtime(coeffs: RuntimeCoefficients, params: DiscreteParams,
                    objects: int) -> float:
    """Evaluate the cost model for one parameter set and object count."""
    if objects < 1:
        raise ValueError("objects must be >= 1")
    return float(np.dot(_design_row(params, objects), coeffs.as_tuple()))


@dataclass(frozen=True)
class BudgetSelection:
    entry: ParetoEntry
    predicted_runtime: float
    within_budget: bool


def select_for_budget(front: list[ParetoEntry], coeffs: RuntimeCoefficients,
                      objects: int, budget: float) -> BudgetSelection:
    """Highest-recall front entry predicted to fit the budget.

    When nothing fits, the cheapest entry is returned flagged infeasible.
    """
    if not front:
        raise ValueError("empty front")
    predictions = [predict_runtime(coeffs, e.params, objects) for e in front]
    fitting = [(e, t) for e, t in zip(front, predictions) if t <= budget]
    if not fitting:
        cheapest = int(np.argmin(predictions))
        return BudgetSelection(front[cheapest], predictions[cheapest], False)
    entry, predicted = max(fitting, key=lambda pair: pair[0].recall)
    return BudgetSelection(entry, predicted, True)


def measurements_to_csv(entries: list[ParetoEntry]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([*(f.name for f in fields(DiscreteParams)), "runtime", *STAGE_KEYS,
                     "recall"])
    for e in entries:
        writer.writerow([*astuple(e.params), f"{e.runtime:.6f}",
                         *(f"{e.stages[key]:.6f}" for key in STAGE_KEYS), f"{e.recall:.6f}"])
    return buf.getvalue()
