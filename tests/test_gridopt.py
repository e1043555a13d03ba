from dataclasses import asdict, astuple, fields, replace

import numpy as np
import pytest

from posetune import workflow
from posetune.gridopt import (
    BudgetSelection,
    GridSpec,
    ParetoEntry,
    RuntimeCoefficients,
    _design_row,
    enumerate_grid,
    evaluate_grid,
    fit_runtime_model,
    pareto_front,
    predict_runtime,
    select_for_budget,
)
from posetune.pipeline import STAGE_KEYS, DiscreteParams

# Published per-stage durations used as a planted ground truth.
PLANTED = RuntimeCoefficients(t_pre=8.57e-1, t_net=7.99e-3, t_ran=2.70e-4,
                              t_icp=1.67e-4, t_depth=9.12e-3)


def stage_times(*times) -> dict[str, float]:
    return dict(zip(STAGE_KEYS, times))


def measured(params, recall, *times) -> ParetoEntry:
    """The entry of a tuple whose stages took ``times``."""
    return ParetoEntry(params, sum(times), recall, stage_times(*times))


def entry(pc, pe, ri, dc, ii, runtime, recall):
    """An entry whose whole runtime is preprocessing."""
    return measured(DiscreteParams(pc, pe, ri, dc, ii), recall, runtime, 0.0, 0.0, 0.0, 0.0)


def brute_force_front(entries):
    """Independent O(n^2) dominance filter with duplicate collapsing."""
    keys = [(e.runtime, e.recall, astuple(e.params)) for e in entries]
    survivors = []
    for i, e in enumerate(entries):
        dominated = False
        for j, other in enumerate(entries):
            if other.runtime <= e.runtime and other.recall >= e.recall and \
                    (other.runtime < e.runtime or other.recall > e.recall):
                dominated = True
                break
            if j != i and (other.runtime, other.recall) == (e.runtime, e.recall) \
                    and (keys[j], j) < (keys[i], i):
                dominated = True  # duplicate point: keep one representative
                break
        if not dominated:
            survivors.append(e)
    return sorted(survivors, key=lambda e: e.runtime)


class TestEnumerateGrid:
    def test_reference_grid_is_feasible_and_counted(self):
        grid = enumerate_grid(GridSpec.reference())
        assert all(p.estimated <= p.classified for p in grid)
        assert all(p.depth_checked <= p.ransac_iters for p in grid)
        # 3*5*3*4*3 = 540 tuples minus the pc=8, pe=10 block of 36
        assert len(grid) == 504

    def test_infeasible_tuple_excluded(self):
        grid = enumerate_grid(GridSpec.reference())
        assert not any(p.classified == 8 and p.estimated == 10 for p in grid)

    def test_singletons_give_one_tuple(self):
        spec = GridSpec((8,), (2,), (500,), (1,), (10,))
        assert len(enumerate_grid(spec)) == 1

    def test_deterministic_order(self):
        spec = GridSpec.reference()
        assert [asdict(p) for p in enumerate_grid(spec)] == \
            [asdict(p) for p in enumerate_grid(spec)]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec((8, 8), (2,), (500,), (1,), (10,))
        with pytest.raises(ValueError):
            GridSpec((), (2,), (500,), (1,), (10,))
        for value in (2.7, 2.0, True, "2"):
            with pytest.raises(ValueError, match="icp_iters value must be an integer"):
                GridSpec((8,), (2,), (500,), (1,), (1, value))


class TestEvaluateGrid:
    def test_single_tuple(self):
        grid = [DiscreteParams(8, 2, 500, 1, 10)]
        stages = dict(zip(STAGE_KEYS, (0.25, 0.5, 0.5, 0.125, 0.125)))
        out = evaluate_grid(grid, lambda p: (stages, 0.8))
        assert len(out) == 1
        assert out[0].runtime == 1.5 and out[0].recall == 0.8
        assert out[0].stages == stages

    @pytest.mark.parametrize("error", [TypeError, KeyError, RuntimeError, ValueError,
                                       np.linalg.LinAlgError])
    def test_objective_bug_propagates(self, error):
        def broken(params):
            raise error("bug")

        with pytest.raises(error):
            evaluate_grid([DiscreteParams(8, 2, 500, 1, 10)], broken)


class TestParetoFront:
    def test_hand_traceable_case(self):
        entries = [entry(8, 2, 500, 1, 10, 1.0, 0.5),
                   entry(16, 2, 500, 1, 10, 2.0, 0.4),
                   entry(32, 2, 500, 1, 10, 3.0, 0.7)]
        front = pareto_front(entries)
        assert [(e.runtime, e.recall) for e in front] == [(1.0, 0.5), (3.0, 0.7)]

    def test_equal_recall_collapses_to_cheapest(self):
        entries = [entry(8, 2, 500, 1, 10, t, 0.6) for t in (3.0, 1.0, 2.0)]
        front = pareto_front(entries)
        assert len(front) == 1
        assert front[0].runtime == 1.0

    def test_strictly_increasing_in_both_coordinates(self):
        g = np.random.default_rng(0)
        entries = [entry(8, 2, 500, 1, 10, float(t), float(r))
                   for t, r in zip(g.integers(1, 15, 300) / 10,
                                   g.integers(0, 10, 300) / 10)]
        front = pareto_front(entries)
        for a, b in zip(front, front[1:]):
            assert b.runtime > a.runtime
            assert b.recall > a.recall

    def test_matches_brute_force_on_random_sets(self):
        g = np.random.default_rng(1)
        for trial in range(60):
            n = int(g.integers(1, 120))
            tie_rich = trial % 2 == 0
            if tie_rich:
                runtimes = g.integers(1, 8, n) / 4.0
                recalls = g.integers(0, 6, n) / 5.0
            else:
                runtimes = g.uniform(0.1, 10.0, n)
                recalls = g.uniform(0.0, 1.0, n)
            entries = [entry(8, int(g.integers(1, 8)), 500, 1, 10,
                             float(t), float(r))
                       for t, r in zip(runtimes, recalls)]
            got = pareto_front(entries)
            expected = brute_force_front(entries)
            assert [(e.runtime, e.recall, e.params) for e in got] == \
                [(e.runtime, e.recall, e.params) for e in expected]

    def test_front_is_small_fraction_of_large_grid(self):
        g = np.random.default_rng(2)
        n = 540
        entries = [entry(8, 2, 500, 1, 10, float(t), float(r))
                   for t, r in zip(g.uniform(0.5, 30, n), g.uniform(0, 1, n))]
        front = pareto_front(entries)
        assert len(front) <= 0.1 * n

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            pareto_front([])


class TestRuntimeModel:
    def grid_measurements(self, coeffs, objects=15, noise=None, seed=0):
        """Entries on the reference grid at ``objects`` objects whose stage
        times are each coefficient times its regressor, scaled by
        1 + N(0, noise) per stage when ``noise`` is set."""
        g = np.random.default_rng(seed)
        rows = []
        for params in enumerate_grid(GridSpec.reference()):
            times = np.array(_design_row(params, objects)) * coeffs.as_tuple()
            if noise:
                times *= 1 + g.normal(0, noise, len(times))
            rows.append(measured(params, 0.5, *times))
        return rows

    @pytest.mark.parametrize("name", ["t_icp", "residual"])
    @pytest.mark.parametrize("value", [True, "0.1"])
    def test_coefficients_are_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            replace(PLANTED, **{name: value})

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_coefficients_are_finite(self, value):
        with pytest.raises(ValueError, match="t_pre must be finite"):
            RuntimeCoefficients(value, 0.0, 0.0, 0.0, 0.0)

    def test_stage_fields_follow_stage_keys(self):
        # fit_runtime_model fills the coefficients by position, and asdict
        # names them in front_*.json beside the stage columns of grid_*.csv
        assert [f.name for f in fields(RuntimeCoefficients)] == [*STAGE_KEYS, "residual"]

    def test_exact_recovery_of_planted_coefficients(self):
        fitted = fit_runtime_model(self.grid_measurements(PLANTED), 15)
        for got, want in zip(fitted.as_tuple(), PLANTED.as_tuple()):
            assert abs(got - want) <= 1e-9 * want
        assert fitted.residual < 1e-9

    def test_constant_runtime_gives_pure_offset(self):
        rows = [measured(p, 0.5, 0.857, 0.0, 0.0, 0.0, 0.0)
                for p in enumerate_grid(GridSpec.reference())]
        fitted = fit_runtime_model(rows, 15)
        assert fitted.t_pre == pytest.approx(0.857, rel=1e-12)
        assert fitted.as_tuple()[1:] == (0.0, 0.0, 0.0, 0.0)

    def test_noisy_recovery_within_ten_percent(self):
        # 10% timing noise on every stage of every tuple
        for seed in range(5):
            fitted = fit_runtime_model(
                self.grid_measurements(PLANTED, noise=0.1, seed=seed), 15)
            for got, want in zip(fitted.as_tuple(), PLANTED.as_tuple()):
                assert abs(got - want) <= 0.10 * want

    def test_matches_least_squares_per_stage(self):
        # each stage's slope through the origin against its own regressor, and
        # the residual of the total times
        rows = self.grid_measurements(PLANTED, noise=0.3, seed=7)
        fitted = fit_runtime_model(rows, 15)
        x = np.array([_design_row(e.params, 15) for e in rows])
        t = np.array([[e.stages[k] for k in STAGE_KEYS] for e in rows])
        for k, got in enumerate(fitted.as_tuple()):
            [want], *_ = np.linalg.lstsq(x[:, k:k + 1], t[:, k], rcond=None)
            assert got == pytest.approx(want, rel=1e-12)
        total = x @ np.array(fitted.as_tuple()) - t.sum(axis=1)
        assert fitted.residual == pytest.approx(np.linalg.norm(total), rel=1e-12)

    def test_one_repeated_tuple_fits_each_stage(self):
        # a fit over total time needs tuples that vary every regressor; a fit
        # per stage does not
        params = DiscreteParams(8, 2, 500, 1, 10)
        times = (0.5, 0.16, 2.7, 0.3, 0.4)
        fitted = fit_runtime_model([measured(params, 0.5, *times)] * 6, 15)
        for got, time, regressor in zip(fitted.as_tuple(), times, _design_row(params, 15)):
            assert got == pytest.approx(time / regressor, rel=1e-12)

    def test_too_few_measurements_rejected(self):
        with pytest.raises(ValueError):
            fit_runtime_model([measured(DiscreteParams(8, 2, 500, 1, 10), 0.5,
                                        1.0, 1.0, 1.0, 1.0, 1.0)] * 4, 15)

    def test_coefficients_never_negative(self):
        g = np.random.default_rng(4)
        rows = [measured(p, 0.5, *g.uniform(0.0, 1.0, 5))
                for p in enumerate_grid(GridSpec((8, 16), (2, 4), (500, 1500),
                                                 (1, 2), (10, 30)))]
        fitted = fit_runtime_model(rows, 15)
        assert all(c >= 0 for c in fitted.as_tuple())


class TestPredictRuntime:
    def test_pure_offset(self):
        coeffs = RuntimeCoefficients(0.857, 0, 0, 0, 0)
        assert predict_runtime(coeffs, DiscreteParams(32, 8, 2500, 10, 50), 9) \
            == pytest.approx(0.857)

    def test_matches_hand_evaluated_cost_model(self):
        params = DiscreteParams(16, 4, 1500, 1, 10)
        objects = 8
        # by hand: t_pre + obj*(t_net*16 + 4*(t_ran*1500 + 1*(t_icp*10 + t_depth)))
        inner = PLANTED.t_ran * 1500 + 1 * (PLANTED.t_icp * 10 + PLANTED.t_depth)
        expected = PLANTED.t_pre + objects * (PLANTED.t_net * 16 + 4 * inner)
        assert predict_runtime(PLANTED, params, objects) == pytest.approx(expected,
                                                                          rel=1e-12)

    def test_affine_in_object_count(self):
        params = DiscreteParams(16, 4, 1500, 1, 10)
        t1 = predict_runtime(PLANTED, params, 1)
        t2 = predict_runtime(PLANTED, params, 2)
        t3 = predict_runtime(PLANTED, params, 3)
        assert t2 - t1 == pytest.approx(t3 - t2, rel=1e-9)

    def test_rejects_zero_objects(self):
        with pytest.raises(ValueError):
            predict_runtime(PLANTED, DiscreteParams(8, 2, 500, 1, 10), 0)


class TestSelectForBudget:
    def front(self):
        # predicted runtimes at 2 objects: see PLANTED arithmetic in each test
        return [entry(2, 1, 500, 1, 10, 0.5, 0.4),
                entry(8, 2, 500, 1, 10, 1.5, 0.6),
                entry(32, 8, 2500, 10, 50, 9.0, 0.9)]

    def test_unlimited_budget_takes_max_recall(self):
        sel = select_for_budget(self.front(), PLANTED, objects=2, budget=np.inf)
        assert sel.entry.recall == 0.9
        assert sel.within_budget

    def test_budget_below_everything_flags_infeasible(self):
        sel = select_for_budget(self.front(), PLANTED, objects=2, budget=1e-6)
        assert not sel.within_budget
        assert sel.entry.runtime == 0.5  # cheapest measured entry

    def test_monotone_in_budget(self):
        budgets = np.linspace(0.5, 60, 30)
        last = -1.0
        for b in budgets:
            sel = select_for_budget(self.front(), PLANTED, objects=2, budget=b)
            if sel.within_budget:
                assert sel.entry.recall >= last
                last = sel.entry.recall

    def test_two_budgets_select_distinct_entries(self):
        tight = select_for_budget(self.front(), PLANTED, objects=2, budget=4.0)
        loose = select_for_budget(self.front(), PLANTED, objects=2, budget=1e9)
        assert tight.entry.params != loose.entry.params
        assert loose.entry.recall >= tight.entry.recall


class TestEmissions:
    def test_measurements_csv(self, tmp_path):
        workflow._write(tmp_path / "grid.csv", workflow._grid_table([
            measured(DiscreteParams(8, 2, 500, 1, 10), 0.5, 0.25, 0.5, 0.125, 0.0625, 0.0625),
            entry(8, 2, 500, 1, 2, 0.75, 0.0)]))
        lines = (tmp_path / "grid.csv").read_text().strip().splitlines()
        assert lines[0] == ("classified,estimated,ransac_iters,depth_checked,icp_iters,"
                            "runtime,t_pre,t_net,t_ran,t_icp,t_depth,recall")
        assert lines[1] == "8,2,500,1,10,1.000000,0.250000,0.500000,0.125000,0.062500," \
                           "0.062500,0.500000"
        assert lines[2] == "8,2,500,1,2,0.750000,0.750000,0.000000,0.000000,0.000000," \
                           "0.000000,0.000000"

    def test_budget_selection_dict(self):
        sel = BudgetSelection(entry(8, 2, 500, 1, 10, 1.0, 0.5), 1.2, True)
        data = asdict(sel)
        assert data["within_budget"] is True
        assert data["predicted_runtime"] == 1.2
