"""Sweep harness: determinism, seed isolation, aggregation rules."""

import dataclasses

import numpy as np
import pytest

from svrisk import (
    SolverConfig,
    SweepSpec,
    feasibility_curve,
    run_sweep,
    standard_gaussian,
)

GAUSS = standard_gaussian()
FAST = SolverConfig(tol=1e-6)


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
        solver=FAST,
    )
    base.update(over)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_empty_grid(self):
        with pytest.raises(ValueError):
            small_spec(grid=())

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
                assert 0.0 <= row.worst_gap <= spec.solver.tol
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
    def test_stopped_fits_counted_and_left_out_of_means(self):
        for estimator, fixed in (("hsvr", {"sigma": 1.0, "beta": 1.0, "eps": 0.5}),
                                 ("ssvr", {"sigma": 1.0, "beta": 1.0, "eps": 0.5,
                                           "cost": 2.0})):
            spec = small_spec(estimator=estimator, fixed=fixed, theory=False,
                              solver=SolverConfig(max_iters=5))
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
            delta_grid=(0.7, 1.3), trials=4, base_seed=1, cfg=FAST)
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
                fit = solve_hard_svr(data, 0.1, FAST)
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
