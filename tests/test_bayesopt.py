import numpy as np
import pytest

from posetune import workflow
from posetune.bayesopt import (
    GPSurrogate,
    Schedule,
    SearchSpace,
    default_schedule,
    gp_fit,
    optimize_continuous,
    ucb_acquire,
)
from posetune.pipeline import ContinuousParams
from posetune.seeding import derive_rng


def unit_space(dim=7):
    return SearchSpace(np.full(dim, 1e-6), np.ones(dim))


class TestSearchSpace:
    def test_default_bounds_contain_published_rows(self):
        space = SearchSpace.default()
        rows = [
            (0.95, 10.0, 2.5, 2.0, 10, 5, 72),      # hand-tuned
            (0.27, 17.03, 1.24, 2.25, 21, 1, 108),  # tuned without noise
            (0.275, 12.85, 0.77, 3.49, 59, 5, 66),  # tuned on ADD metric
            (0.174, 19.88, 4.85, 1.24, 86, 12, 108),
        ]
        for row in rows:
            assert (space.lower <= np.array(row)).all()
            assert (np.array(row) <= space.upper).all()

    def test_normalize_roundtrip(self):
        space = SearchSpace.default()
        g = np.random.default_rng(0)
        x = space.lower + g.uniform(size=7) * (space.upper - space.lower)
        np.testing.assert_allclose(space.denormalize(space.normalize(x)), x)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            SearchSpace(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            SearchSpace(np.zeros(2), np.ones(3))


class TestSchedule:
    def test_default_schedule_shape(self):
        sched = default_schedule()
        assert sum(count for count, _ in sched.phases) == 250
        assert len(sched.phases) == 4
        assert sched.phases[0] == (50, None)
        assert [k for _, k in sched.phases[1:]] == [0.5, 0.1, 0.01]

    def test_kappa_strictly_decreasing(self):
        kappas = [k for _, k in default_schedule().phases if k is not None]
        assert all(a > b for a, b in zip(kappas, kappas[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one phase"):
            Schedule(())
        with pytest.raises(ValueError):
            Schedule(((0, 0.5),))
        with pytest.raises(ValueError):
            Schedule(((10, -0.1),))
        for count in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="phase count must be an integer"):
                Schedule(((count, None),))
        for kappa in (float("nan"), float("inf")):
            # a NaN kappa would make every UCB score NaN
            with pytest.raises(ValueError, match="kappa must be finite"):
                Schedule(((4, kappa),))


class TestGpFit:
    def test_single_observation_interpolates(self):
        gp = gp_fit(np.array([[0.3, 0.7]]), np.array([0.42]))
        mean, std = gp.posterior(np.array([[0.3, 0.7]]))
        assert mean[0] == pytest.approx(0.42, abs=1e-4)

    def test_constant_zero_function(self):
        g = np.random.default_rng(1)
        x = g.uniform(size=(15, 3))
        gp = gp_fit(x, np.zeros(15))
        q = g.uniform(size=(40, 3))
        mean, _ = gp.posterior(q)
        np.testing.assert_allclose(mean, 0.0, atol=1e-6)
        _, std_at_data = gp.posterior(x)
        assert std_at_data.max() < 1e-2

    def test_posterior_variance_small_at_observations(self):
        g = np.random.default_rng(2)
        x = g.uniform(size=(25, 4))
        y = np.sin(x.sum(axis=1))
        gp = gp_fit(x, y)
        _, std = gp.posterior(x)
        assert (std ** 2).max() <= 1e-4

    def test_duplicates_keep_latest(self):
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        gp = gp_fit(x, np.array([0.0, 1.0]))
        mean, _ = gp.posterior(np.array([[0.5, 0.5]]))
        assert mean[0] == pytest.approx(1.0, abs=1e-3)
        assert len(gp.x) == 1

    def test_calibration_on_smooth_bump(self):
        # 1-D bump: held-out error within 3 posterior std for >=95% of points
        g = np.random.default_rng(3)
        x = g.uniform(size=(20, 1))
        f = lambda t: np.exp(-((t - 0.5) ** 2) / 0.02).ravel()
        gp = gp_fit(x, f(x))
        held = g.uniform(size=(200, 1))
        mean, std = gp.posterior(held)
        inside = np.abs(mean - f(held)) <= 3 * std + 1e-9
        assert inside.mean() >= 0.95

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gp_fit(np.empty((0, 2)), np.empty(0))


class TestUcbAcquire:
    def fit_toy(self):
        g = np.random.default_rng(4)
        x = g.uniform(size=(30, 2))
        y = -((x - 0.5) ** 2).sum(axis=1)
        return gp_fit(x, y)

    def test_zero_kappa_is_pure_exploitation(self):
        gp = self.fit_toy()
        space = unit_space(2)
        pick = space.normalize(ucb_acquire(gp, 0.0, derive_rng(0), space))
        mean_at_pick, _ = gp.posterior(pick[None])
        probes = derive_rng(0).uniform(size=(1024, 2))
        means, _ = gp.posterior(probes)
        assert mean_at_pick[0] >= means.max() - 1e-9

    def test_huge_kappa_explores_far_from_data(self):
        g = np.random.default_rng(5)
        x = 0.1 * g.uniform(size=(25, 2))  # data clustered in one corner
        gp = gp_fit(x, 2 * x[:, 0] + x[:, 1])  # smooth, so sigma grows with distance
        space = unit_space(2)
        pick = space.normalize(ucb_acquire(gp, 1e6, derive_rng(1), space))
        dist_to_data = np.linalg.norm(x - pick, axis=1).min()
        probes = derive_rng(1).uniform(size=(1024, 2))
        median_probe_dist = np.median(
            [np.linalg.norm(x - p, axis=1).min() for p in probes])
        assert dist_to_data > median_probe_dist

    def test_stays_in_bounds(self):
        g = np.random.default_rng(8)
        x = g.uniform(size=(30, 7))
        gp = gp_fit(x, -((x - 0.5) ** 2).sum(axis=1))
        space = SearchSpace.default()
        for seed in range(5):
            pick = ucb_acquire(gp, 0.5, derive_rng(seed), space)
            assert (space.lower <= pick).all() and (pick <= space.upper).all()


class TestOptimizeContinuous:
    def test_constant_objective_completes(self):
        sched = Schedule(((5, None), (5, 0.5)))
        best, trace = optimize_continuous(lambda p: 0.5, SearchSpace.default(),
                                          sched, seed=0)
        assert len(trace) == 10
        assert isinstance(best, ContinuousParams)

    def test_best_observed_is_monotone_along_trace(self):
        g = np.random.default_rng(6)
        target = g.uniform(size=7)
        space = unit_space()

        def objective(params: ContinuousParams) -> float:
            return -float(((params.as_vector() - target) ** 2).sum())

        sched = Schedule(((10, None), (15, 0.5), (5, 0.1)))
        _, trace = optimize_continuous(objective, space, sched, seed=1)
        best_so_far = -np.inf
        for entry in trace:
            assert entry.value >= -1e18
            best_so_far = max(best_so_far, entry.value)
        assert best_so_far > -7.0

    def test_every_proposal_inside_bounds(self):
        space = SearchSpace.default()
        sched = Schedule(((8, None), (8, 0.5)))
        _, trace = optimize_continuous(lambda p: 0.0, space, sched, seed=2)
        for entry in trace:
            v = entry.params.as_vector()
            assert (space.lower <= v).all() and (v <= space.upper).all()

    @pytest.mark.parametrize("error", [TypeError, KeyError, RuntimeError, ValueError,
                                       np.linalg.LinAlgError])
    def test_objective_bug_propagates(self, error):
        def broken(params):
            raise error("bug")

        with pytest.raises(error):
            optimize_continuous(broken, SearchSpace.default(), Schedule(((3, None),)), seed=3)

    def test_deterministic_with_fixed_seed(self):
        space = unit_space()
        sched = Schedule(((6, None), (6, 0.0)))

        def objective(params):
            return float(np.cos(params.as_vector().sum()))

        _, t1 = optimize_continuous(objective, space, sched, seed=9)
        _, t2 = optimize_continuous(objective, space, sched, seed=9)
        for a, b in zip(t1, t2):
            np.testing.assert_array_equal(a.params.as_vector(), b.params.as_vector())
            assert a.value == b.value

    def test_trace_csv_format(self, tmp_path):
        sched = Schedule(((3, None),))
        _, trace = optimize_continuous(lambda p: 0.1, SearchSpace.default(),
                                       sched, seed=4)
        workflow._write(tmp_path / "trace.csv", workflow._trace_table(trace))
        text = (tmp_path / "trace.csv").read_text()
        header = text.splitlines()[0].split(",")
        assert header[0] == "iteration"
        assert header[1] == "kappa"
        assert header[-1] == "value"
        assert len(header) == 2 + 7 + 1


@pytest.mark.slow
class TestPlantedOptimum:
    def test_finds_planted_maximum_in_most_seeds(self):
        # desk-scale version of the 250-iteration benchmark: 60 iterations
        space = unit_space()
        sched = Schedule(((15, None), (25, 0.5), (10, 0.1), (10, 0.01)))
        diag = np.sqrt(7.0)
        hits = 0
        for seed in range(5):
            plant = derive_rng("plant", seed).uniform(0.15, 0.85, size=7)

            def objective(params):
                return float(np.exp(-((params.as_vector() - plant) ** 2).sum() / 0.5))

            best, _ = optimize_continuous(objective, space, sched, seed=seed)
            if np.linalg.norm(best.as_vector() - plant) <= 0.10 * diag:
                hits += 1
        assert hits >= 4
