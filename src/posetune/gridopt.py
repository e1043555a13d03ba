"""Discrete grid search, runtime/recall Pareto front, and the runtime cost model.

The cost model is linear in the work terms implied by the pipeline structure:

    t_image = t_pre + obj * (t_net*PC + PE*(t_ran*RI + DC*(t_icp*II + t_depth)))

and is fit by nonnegative least squares over grid-search measurements so a
front entry can be re-budgeted for any object count without re-measuring.
"""

from __future__ import annotations

import io
import csv
import itertools
import time
from dataclasses import asdict, astuple, dataclass, fields
from typing import Callable

import numpy as np
from scipy.optimize import nnls

from .pipeline import DiscreteParams


@dataclass(frozen=True)
class GridSpec:
    """Values to test per discrete parameter; each list strictly increasing."""

    classified: tuple[int, ...]
    estimated: tuple[int, ...]
    ransac_iters: tuple[int, ...]
    depth_checked: tuple[int, ...]
    icp_iters: tuple[int, ...]

    def __post_init__(self):
        for f in fields(self):
            values = tuple(int(v) for v in getattr(self, f.name))
            if not values:
                raise ValueError(f"{f.name} list is empty")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{f.name} values must be strictly increasing")
            object.__setattr__(self, f.name, values)

    @staticmethod
    def reference() -> "GridSpec":
        """The published full-scale grid."""
        return GridSpec(classified=(8, 16, 32), estimated=(2, 4, 6, 8, 10),
                        ransac_iters=(500, 1500, 2500), depth_checked=(1, 2, 5, 10),
                        icp_iters=(10, 30, 50))

    @staticmethod
    def from_dict(data: dict) -> "GridSpec":
        return GridSpec(**{f.name: data[f.name] for f in fields(GridSpec)})


@dataclass(frozen=True)
class ParetoEntry:
    params: DiscreteParams
    runtime: float
    recall: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RuntimeCoefficients:
    """Per-unit stage durations (seconds); fit constrained nonnegative."""

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

    def to_dict(self) -> dict:
        return asdict(self)


def enumerate_grid(spec: GridSpec) -> list[DiscreteParams]:
    """Feasible Cartesian product, in deterministic nested order."""
    out = []
    for pc, pe, ri, dc, ii in itertools.product(*astuple(spec)):
        if pe <= pc and dc <= ri:
            out.append(DiscreteParams(pc, pe, ri, dc, ii))
    return out


def evaluate_grid(
    grid: list[DiscreteParams],
    objective: Callable[[DiscreteParams], tuple[float, float]],
) -> list[ParetoEntry]:
    """Measure (runtime, recall) for every tuple, one after another so that no
    two wall times contend. An objective that raises ``ValueError`` or
    ``np.linalg.LinAlgError`` scores recall 0 at the time spent until then;
    any other exception is a bug and propagates."""
    entries = []
    for params in grid:
        start = time.perf_counter()
        try:
            runtime, recall = objective(params)
        except (ValueError, np.linalg.LinAlgError):
            runtime, recall = time.perf_counter() - start, 0.0
        entries.append(ParetoEntry(params, float(runtime), float(recall)))
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


def fit_runtime_model(
    measurements: list[tuple[DiscreteParams, int, float]],
) -> RuntimeCoefficients:
    """Nonnegative least squares over (params, object count, runtime) rows."""
    if len(measurements) < 5:
        raise ValueError("need at least 5 measurements")
    a = np.array([_design_row(p, o) for p, o, _ in measurements])
    b = np.array([t for _, _, t in measurements], dtype=np.float64)
    if np.linalg.matrix_rank(a) < 5:
        raise ValueError("insufficient measurement diversity")
    coeffs, residual = nnls(a, b)
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

    def to_dict(self) -> dict:
        return asdict(self)


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
    writer.writerow([*(f.name for f in fields(DiscreteParams)), "runtime", "recall"])
    for e in entries:
        writer.writerow([*astuple(e.params), f"{e.runtime:.6f}", f"{e.recall:.6f}"])
    return buf.getvalue()
