"""Sweep harness: determinism, seed isolation, aggregation rules."""

import dataclasses

import numpy as np
import pytest

from svrisk import (
    SolverConfig,
    SweepRow,
    SweepSpec,
    feasibility_curve,
    run_sweep,
    standard_gaussian,
)
from svrisk import montecarlo
from svrisk.montecarlo import run_points

GAUSS = standard_gaussian()


def small_spec(**over):
    base = dict(
        estimator="null",
        swept="delta",
        grid=(0.5, 1.0),
        fixed={"sigma": 1.0, "beta": 1.0, "eps": 0.5},
        p=20,
        trials=3,
        base_seed=7,
        theory=True,
        noise=GAUSS,
    )
    base.update(over)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_empty_grid(self):
        with pytest.raises(ValueError):
            small_spec(grid=())

    def test_incomplete_fixed(self):
        for over, missing in (
                (dict(estimator="hsvr", fixed={"sigma": 1.0, "beta": 1.0}), "eps"),
                (dict(estimator="ssvr"), "cost"),
                (dict(fixed={"sigma": 1.0, "eps": 0.5}), "beta"),
                (dict(swept="eps", fixed={"sigma": 1.0, "beta": 1.0}), "delta")):
            with pytest.raises(ValueError, match=f"fixed\\['{missing}'\\]"):
                small_spec(**over)
        # fixed may hold the swept key, and needs none the estimator does
        # not read
        small_spec(estimator="ssvr", swept="cost",
                   fixed={"delta": 1.0, "sigma": 1.0, "beta": 1.0, "eps": 0.5,
                          "cost": 9.0})
        small_spec(estimator="ridge_oracle", fixed={"sigma": 1.0, "beta": 1.0})

    def test_non_increasing_grid(self):
        with pytest.raises(ValueError):
            small_spec(grid=(1.0, 1.0))

    def test_bad_estimator(self):
        with pytest.raises(ValueError):
            small_spec(estimator="lasso")

    def test_bad_swept(self):
        with pytest.raises(ValueError):
            small_spec(swept="sigma")

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            small_spec(trials=0)


class TestNullEstimator:
    def test_exact_null_risk(self):
        rows = run_sweep(small_spec())
        for row in rows:
            assert row.mean_risk == pytest.approx(1.0, abs=1e-12)
            assert row.theory_risk == 1.0
            assert row.feasibility_rate == 1.0

    def test_single_trial_stderr_zero(self):
        rows = run_sweep(small_spec(trials=1))
        assert rows[0].stderr_risk == 0.0
        assert rows[0].trials_used == 1


class TestRowStatistics:
    def test_equal_to_np_mean_and_std_bit_for_bit(self):
        # 1 to 40 converged trials, with an infeasible and an unconverged one
        # and a trial without a cosine; Python's sum differs from numpy's
        # pairwise one in the last bit for some of these lengths
        rng = np.random.default_rng(0)
        for m in range(1, 41):
            risks = rng.gamma(2.0, 0.3, m) * 10.0 ** rng.integers(-3, 3, m)
            cosines = rng.uniform(-1.0, 1.0, m)
            trials = [(float(r), float(c) if i else None, "converged", 0.0)
                      for i, (r, c) in enumerate(zip(risks, cosines))]
            trials += [(None, None, "infeasible", None), (None, None, "max_iters", None)]
            row = montecarlo._row(1.0, (None, None), trials)
            assert row.mean_risk == float(np.mean(risks))
            assert row.stderr_risk == (
                float(np.std(risks, ddof=1) / np.sqrt(m)) if m > 1 else 0.0)
            assert row.mean_cosine == (float(np.mean(cosines[1:])) if m > 1 else None)
            assert (row.trials_used, row.unconverged) == (m, 1)


class TestDeterminism:
    def test_identical_reruns(self):
        spec = small_spec(estimator="ridge_oracle", theory=False, trials=4)
        a = run_sweep(spec)
        b = run_sweep(spec)
        assert a == b

    def test_seed_isolation_when_adding_trials(self):
        spec20 = small_spec(estimator="ridge_oracle", theory=False, trials=4)
        spec21 = dataclasses.replace(spec20, trials=5)
        rows20 = run_sweep(spec20)
        rows21 = run_sweep(spec21)
        # recompute per-trial values directly to confirm the first 4 streams
        # are untouched; aggregate means must then be consistent
        from svrisk.montecarlo import _run_trial
        for gi, value in enumerate(spec20.grid):
            p20 = [
                _run_trial(spec20, spec20.params_at(value), gi, ti)[0]
                for ti in range(4)
            ]
            p21 = [
                _run_trial(spec21, spec21.params_at(value), gi, ti)[0]
                for ti in range(4)
            ]
            assert p20 == p21
        assert rows20[0].mean_risk != rows21[0].mean_risk  # 5th trial contributes

    def test_worst_gap_repeats_for_a_seed(self):
        for estimator, fixed in (("hsvr", {"sigma": 1.0, "beta": 1.0, "eps": 0.5}),
                                 ("ssvr", {"sigma": 1.0, "beta": 1.0, "eps": 0.5,
                                           "cost": 2.0})):
            spec = small_spec(estimator=estimator, fixed=fixed, theory=False)
            rows = run_sweep(spec)
            assert rows == run_sweep(spec)
            for row in rows:
                assert row.trials_used == spec.trials
                assert 0.0 <= row.worst_gap <= SolverConfig().tol
        ridge = small_spec(estimator="ridge_oracle", theory=False)
        assert all(row.worst_gap is None for row in run_sweep(ridge))


class TestHsvrSweep:
    def test_infeasible_points_excluded_from_means(self):
        # tiny eps at delta > delta_star: every trial infeasible
        spec = small_spec(
            estimator="hsvr", grid=(3.0,), trials=2, p=40,
            fixed={"sigma": 1.0, "beta": 1.0, "eps": 0.01}, theory=True)
        row = run_sweep(spec)[0]
        assert row.feasibility_rate == 0.0
        assert row.mean_risk is None
        assert row.theory_risk is None  # limit is infeasible there too
        assert row.trials_used == 0
        assert row.unconverged == 0  # certified infeasible, not unconverged

    def test_theory_and_empirics_close_midrange(self):
        spec = small_spec(
            estimator="hsvr", grid=(1.0,), trials=8, p=120,
            fixed={"sigma": 0.5, "beta": 1.0, "eps": 0.5}, theory=True)
        row = run_sweep(spec)[0]
        assert row.feasibility_rate == 1.0
        assert row.mean_risk == pytest.approx(row.theory_risk,
                                              abs=4 * row.stderr_risk + 0.01)


class TestUnconvergedFits:
    def test_stopped_fits_counted_and_left_out_of_means(self, monkeypatch):
        # n > p: a cold fit with n <= p can be certified at iteration 0,
        # before the cap; eps = 2 puts delta* near 10, so every hard tube
        # here is feasible and no fit is certified infeasible
        stopped = SolverConfig(max_iters=5)
        hard, soft = montecarlo.solve_hard_svr, montecarlo.solve_soft_svr
        monkeypatch.setattr(montecarlo, "solve_hard_svr",
                            lambda data, eps: hard(data, eps, stopped))
        monkeypatch.setattr(montecarlo, "solve_soft_svr",
                            lambda data, eps, cost: soft(data, eps, cost, stopped))
        for estimator, fixed in (("hsvr", {"sigma": 1.0, "beta": 1.0, "eps": 2.0}),
                                 ("ssvr", {"sigma": 1.0, "beta": 1.0, "eps": 0.5,
                                           "cost": 2.0})):
            spec = small_spec(estimator=estimator, fixed=fixed, grid=(1.5, 2.0),
                              theory=False)
            for row in run_sweep(spec):
                assert row.unconverged == spec.trials
                assert row.trials_used == 0
                assert row.mean_risk is None and row.stderr_risk is None
                assert row.feasibility_rate == 1.0


class TestEpsSweep:
    def test_soft_estimator_eps_grid(self):
        spec = small_spec(estimator="ssvr", swept="eps", grid=(0.2, 2.0),
                          trials=2, theory=False,
                          fixed={"delta": 1.0, "sigma": 1.0, "beta": 1.0,
                                 "cost": 2.0})
        rows = run_sweep(spec)
        assert [r.swept_value for r in rows] == [0.2, 2.0]
        assert all(r.feasibility_rate == 1.0 for r in rows)
        assert all(r.mean_risk is not None for r in rows)


class TestFeasibilityCurve:
    def test_transition_at_unit_delta_for_zero_eps(self):
        rows = feasibility_curve(
            p=60, eps=0.0, sigma=1.0, noise=GAUSS,
            delta_grid=(0.7, 1.3), trials=4, base_seed=1)
        assert rows[0][1] == 1.0   # underdetermined: always feasible
        assert rows[1][1] == 0.0   # overdetermined with eps = 0: never


class TestConcentration:
    def test_risk_spread_shrinks_like_inverse_sqrt_p(self):
        import numpy as np
        from svrisk import generate_dataset, prediction_risk, solve_hard_svr

        stds = {}
        for p in (100, 200, 400):
            risks = []
            for seed in range(10):
                data = generate_dataset(p, 1.0, 1.0, 0.2, GAUSS, seed=seed)
                fit = solve_hard_svr(data, 0.1)
                risks.append(prediction_risk(fit.weights, data.truth))
            stds[p] = float(np.std(risks, ddof=1))
        # 1/sqrt(p) scaling: quadrupling p should roughly halve the spread
        assert stds[400] < stds[100]
        assert stds[400] < 0.75 * stds[100]

    def test_theory_empirics_gap_shrinks_with_p(self):
        import numpy as np

        deltas = (0.6, 1.0, 1.4)
        gaps = {}
        for p in (60, 120, 240):
            worst = []
            for rep in range(5):
                spec = small_spec(
                    estimator="hsvr", grid=deltas, trials=6, p=p,
                    base_seed=100 + rep,
                    fixed={"sigma": 0.5, "beta": 1.0, "eps": 0.5}, theory=True)
                rows = run_sweep(spec)
                worst.append(max(abs(r.mean_risk - r.theory_risk) / r.theory_risk
                                 for r in rows))
            gaps[p] = float(np.median(worst))
        assert gaps[240] < gaps[60]


class TestRunPoints:
    """A figure's points, trial-outer on shared designs with warm starts."""

    # path order: up eps at sigma 0.5 and back down at sigma 0.2 (an
    # infeasible end included), a step in beta, a path in C, and the
    # closed-form estimators on the soft points' designs
    POINTS = (
        [("hsvr", {"delta": 1.4, "sigma": 0.5, "beta": 1.0, "eps": e})
         for e in (0.2, 0.5, 0.8)]
        + [("hsvr", {"delta": 1.4, "sigma": 0.2, "beta": 1.0, "eps": e})
           for e in (0.8, 0.5, 0.2, 0.05)]
        + [("hsvr", {"delta": 1.4, "sigma": 0.2, "beta": 2.0, "eps": 0.05})]
        + [("ssvr", {"delta": 2.0, "sigma": 1.0, "beta": 1.0, "eps": 0.6, "cost": c})
           for c in (0.5, 1.0, 2.4, 10.0)]
        + [("ridge_oracle", {"delta": 2.0, "sigma": 1.0, "beta": 1.0}),
           ("null", {"delta": 2.0, "sigma": 1.0, "beta": 1.0})]
    )

    def test_rows_equal_the_one_point_sweeps(self):
        rows = run_points(self.POINTS, p=40, trials=3, base_seed=4, noise=GAUSS)
        diffs = []
        for (estimator, params), row in zip(self.POINTS, rows):
            fixed = {k: v for k, v in params.items() if k != "delta"}
            spec = SweepSpec(estimator, "delta", (params["delta"],), fixed, p=40,
                             trials=3, base_seed=4, theory=False, noise=GAUSS)
            want = run_sweep(spec)[0]
            diffs += [(estimator, params, f.name)
                      for f in dataclasses.fields(SweepRow)
                      if getattr(row, f.name) != getattr(want, f.name)]
        # no cell moves on these points (figure 5b's default grid moves
        # three in their 9th digit: warm fits within the solver's tol)
        assert diffs == []
        assert rows[6].feasibility_rate < 1.0  # the infeasible end of the eps path

    def test_one_design_per_trial_and_delta(self, monkeypatch):
        drawn = []

        class Counting(montecarlo.Design):
            def __init__(self, p, delta, noise, seed):
                drawn.append((delta, tuple(seed.spawn_key)))
                super().__init__(p, delta, noise, seed)

        monkeypatch.setattr(montecarlo, "Design", Counting)
        run_points(self.POINTS, p=40, trials=2, base_seed=4, noise=GAUSS)
        assert drawn == [(1.4, (0, 0)), (2.0, (0, 0)), (1.4, (0, 1)), (2.0, (0, 1))]

    def test_each_fit_starts_from_the_previous_point(self, monkeypatch):
        fits = []
        real = montecarlo.solve_hard_svr

        def logged(data, eps, start=None):
            fit = real(data, eps, start=start)
            fits.append((start, fit))
            return fit

        monkeypatch.setattr(montecarlo, "solve_hard_svr", logged)
        run_points(self.POINTS, p=40, trials=2, base_seed=4, noise=GAUSS)
        per_trial = len(fits) // 2
        for i, (start, fit) in enumerate(fits):
            assert (start is None) == (i % per_trial == 0)
            if start is not None:
                assert start is fits[i - 1][1]
        assert sum(fit.iterations == 0 for _, fit in fits) >= 4

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="trials"):
            run_points([("null", {"delta": 1.0, "sigma": 1.0, "beta": 1.0})], 20, 0)
