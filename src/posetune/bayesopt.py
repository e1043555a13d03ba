"""Gaussian-process surrogate with UCB acquisition and a decaying-kappa schedule.

The optimizer runs on the unit cube (inputs normalized per dimension) and
uses the objective values raw: identical recalls are legal observations and
never break the fit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .geometry import check_integer, check_number
from .pipeline import ContinuousParams
from .seeding import derive_rng

DEFAULT_JITTER = 1e-6
ACQUIRE_PROBES = 1024
LENGTH_SCALE_GRID = (0.1, 0.2, 0.5, 1.0, 2.0)
# Full hyper-parameter reselection happens every this many iterations; in
# between, the kernel is reused and only the posterior is refit.
HYPER_REFRESH_PERIOD = 10


@dataclass(frozen=True)
class SearchSpace:
    """Box bounds for the continuous parameters, in ``ContinuousParams`` order."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        if len(lower) != len(upper):
            raise ValueError("lower and upper bounds differ in length")
        if not (lower < upper).all():
            raise ValueError("each lower bound must be below its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def normalize(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.lower) / (self.upper - self.lower)

    def denormalize(self, unit: np.ndarray) -> np.ndarray:
        return self.lower + np.asarray(unit, dtype=np.float64) * (self.upper - self.lower)

    @staticmethod
    def default() -> "SearchSpace":
        """Bounds wide enough to contain every published parameter set."""
        bounds = {
            "vote_threshold": (0.01, 1.0),
            "ransac_dist": (1.0, 50.0),
            "icp_dist": (0.1, 10.0),
            "icp_scale": (1.0, 5.0),
            "background_dist": (1.0, 100.0),
            "accept_dist": (1.0, 20.0),
            "cut_radius": (30.0, 150.0),
        }
        assert list(bounds) == [f.name for f in fields(ContinuousParams)]
        lo, hi = zip(*bounds.values())
        return SearchSpace(np.array(lo), np.array(hi))


@dataclass(frozen=True)
class Schedule:
    """Acquisition phases as (iteration count, kappa); kappa None = random."""

    phases: tuple[tuple[int, float | None], ...]

    def __post_init__(self):
        if not self.phases:
            raise ValueError("a schedule needs at least one phase")
        for count, kappa in self.phases:
            check_integer("phase count", count, 1)
            if kappa is not None and check_number("kappa", kappa) < 0:
                raise ValueError("kappa must be >= 0")


def default_schedule() -> Schedule:
    """50 random iterations, then 100 @ kappa 0.5, 50 @ 0.1, 50 @ 0.01."""
    return Schedule(((50, None), (100, 0.5), (50, 0.1), (50, 0.01)))


def _matern52(a: np.ndarray, b: np.ndarray, length_scales: np.ndarray,
              signal_var: float) -> np.ndarray:
    diff = (a[:, None, :] - b[None, :, :]) / length_scales
    r = np.sqrt(np.maximum((diff * diff).sum(axis=2), 0.0))
    sr = np.sqrt(5.0) * r
    return signal_var * (1.0 + sr + sr * sr / 3.0) * np.exp(-sr)


@dataclass
class GPSurrogate:
    """Fitted posterior over the unit cube."""

    x: np.ndarray
    y: np.ndarray
    length_scales: np.ndarray
    signal_var: float
    _chol: tuple
    _alpha: np.ndarray

    def posterior(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and standard deviation at (m, d) unit-cube query points."""
        q = np.atleast_2d(query)
        k_star = _matern52(q, self.x, self.length_scales, self.signal_var)
        mean = k_star @ self._alpha
        solved = cho_solve(self._chol, k_star.T)
        var = self.signal_var - np.einsum("md,dm->m", k_star, solved)
        return mean, np.sqrt(np.maximum(var, 0.0))


def _log_marginal(x, y, ls, sv):
    k = _matern52(x, x, ls, sv) + DEFAULT_JITTER * np.eye(len(x))
    try:
        chol = cho_factor(k, lower=True)
    except np.linalg.LinAlgError:
        return -np.inf, None, None
    alpha = cho_solve(chol, y)
    lml = -0.5 * float(y @ alpha) - float(np.log(np.diag(chol[0])).sum()) \
        - 0.5 * len(x) * np.log(2 * np.pi)
    return lml, chol, alpha


def _dedup_latest(inputs: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    y = np.asarray(values, dtype=np.float64).reshape(-1)
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("need matching, non-empty observations")
    unique: dict[tuple, int] = {}
    for i, row in enumerate(x):
        unique[tuple(row)] = i
    keep = sorted(unique.values())
    return x[keep], y[keep]


def _fit_with(inputs: np.ndarray, values: np.ndarray, length_scales: np.ndarray,
              signal_var: float) -> GPSurrogate:
    """Refit the posterior with known kernel hyper-parameters."""
    x, y = _dedup_latest(inputs, values)
    _, chol, alpha = _log_marginal(x, y, length_scales, signal_var)
    if chol is None:
        raise np.linalg.LinAlgError("kernel matrix not positive definite")
    return GPSurrogate(x, y, np.asarray(length_scales, dtype=np.float64),
                       signal_var, chol, alpha)


def gp_fit(inputs: np.ndarray, values: np.ndarray) -> GPSurrogate:
    """Fit the surrogate to unit-cube inputs and raw objective values.

    Hyper-parameters maximize the log marginal likelihood over a fixed grid
    of isotropic length scales and signal variances, followed by one
    coordinate-refinement pass over per-dimension scales. Duplicate inputs
    keep their latest value.
    """
    x, y = _dedup_latest(inputs, values)

    var_y = max(float(np.var(y)), 1e-3)
    signal_grid = sorted({0.25 * var_y, var_y, 4.0 * var_y, 1.0})
    dim = x.shape[1]
    best = (-np.inf, None)
    for ls0 in LENGTH_SCALE_GRID:
        ls = np.full(dim, ls0)
        for sv in signal_grid:
            lml, chol, alpha = _log_marginal(x, y, ls, sv)
            if lml > best[0]:
                best = (lml, (ls, sv, chol, alpha))
    assert best[1] is not None, "no admissible hyper-parameters"
    best_lml = best[0]
    ls, sv, chol, alpha = best[1]

    if len(x) >= 8:
        for d in range(dim):
            for factor in (0.5, 2.0):
                trial = ls.copy()
                trial[d] *= factor
                lml, c, a = _log_marginal(x, y, trial, sv)
                if lml > best_lml:
                    best_lml = lml
                    ls, chol, alpha = trial, c, a
    return GPSurrogate(x, y, ls, sv, chol, alpha)


def ucb_acquire(gp: GPSurrogate, kappa: float, rng: np.random.Generator,
                space: SearchSpace) -> np.ndarray:
    """Maximize mean + kappa*std: 1024 random probes, then coordinate refinement.

    Returns the winning point de-normalized into the search space.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    probes = rng.uniform(size=(ACQUIRE_PROBES, space.dim))
    mean, std = gp.posterior(probes)
    scores = mean + kappa * std
    best_idx = int(np.argmax(scores))
    best, best_score = probes[best_idx].copy(), float(scores[best_idx])
    for step in (0.1, 0.03, 0.01):
        for d in range(space.dim):
            for sign in (-1.0, 1.0):
                trial = best.copy()
                trial[d] = np.clip(trial[d] + sign * step, 0.0, 1.0)
                mean, std = gp.posterior(trial[None])
                score = float(mean[0] + kappa * std[0])
                if score > best_score:
                    best, best_score = trial, score
    return space.denormalize(best)


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    kappa: float | None
    params: ContinuousParams
    value: float


def optimize_continuous(
    objective: Callable[[ContinuousParams], float],
    space: SearchSpace,
    schedule: Schedule,
    seed: int = 0,
) -> tuple[ContinuousParams, list[TraceEntry]]:
    """Run the schedule, one objective evaluation per iteration.

    The objective returns a measurement or raises; whatever it raises ends
    the search and propagates. Returns the best observed parameters with the
    full trace.
    """
    rng = derive_rng(seed, "bo")
    xs: list[np.ndarray] = []
    ys: list[float] = []
    trace: list[TraceEntry] = []
    best: tuple[float, ContinuousParams] | None = None
    iteration = 0
    hypers: tuple[np.ndarray, float] | None = None
    for count, kappa in schedule.phases:
        for _ in range(count):
            if kappa is None or not xs:
                unit = rng.uniform(size=space.dim)
            else:
                if hypers is None or iteration % HYPER_REFRESH_PERIOD == 0:
                    gp = gp_fit(np.array(xs), np.array(ys))
                    hypers = (gp.length_scales, gp.signal_var)
                else:
                    gp = _fit_with(np.array(xs), np.array(ys), *hypers)
                unit = space.normalize(ucb_acquire(gp, kappa, rng, space))
            params = ContinuousParams.from_vector(space.denormalize(unit))
            value = float(objective(params))
            xs.append(unit)
            ys.append(value)
            trace.append(TraceEntry(iteration, kappa, params, value))
            if best is None or value > best[0]:
                best = (value, params)
            iteration += 1
    assert best is not None
    return best[1], trace
