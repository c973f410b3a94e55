"""Finite-sample solver tests: KKT certificates, independent-oracle agreement,
feasibility detection, estimators."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from svrisk import (
    SolverConfig,
    cosine_similarity,
    delta_star,
    estimate_noise_signal,
    generate_dataset,
    oracle_ridge,
    prediction_risk,
    scale_mixture,
    solve_hard_svr,
    solve_ridge,
    solve_soft_svr,
    standard_gaussian,
)
from svrisk import solvers
from svrisk.solvers import (
    Dataset,
    UnsupportedRegime,
    _active_pattern,
    _null_projector,
    _polish,
)
from tests_support import lp_feasible, primal_hard_oracle, primal_soft_oracle

GAUSS = standard_gaussian()
CFG = SolverConfig()


def tiny_dataset(x, y, truth=None):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if truth is None:
        truth = np.zeros(x.shape[0])
    return Dataset(features=x, responses=y, truth=np.asarray(truth, float))


class TestGenerateDataset:
    def test_shapes_and_model(self):
        data = generate_dataset(4, 0.5, 1.0, 0.0, GAUSS, seed=0)
        assert data.n == 2 and data.p == 4
        np.testing.assert_allclose(data.responses, data.features.T @ data.truth,
                                   atol=1e-12)

    def test_sample_count_floor(self):
        data = generate_dataset(200, 1.4, 1.0, 1.0, GAUSS, seed=0)
        assert data.n == 280
        with pytest.raises(ValueError):
            generate_dataset(4, 0.1, 1.0, 1.0, GAUSS, seed=0)

    def test_reproducible(self):
        a = generate_dataset(10, 2.0, 1.0, 0.5, GAUSS, seed=9)
        b = generate_dataset(10, 2.0, 1.0, 0.5, GAUSS, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.responses, b.responses)

    def test_truth_norm_and_direction_modes(self):
        data = generate_dataset(50, 1.0, 2.5, 1.0, GAUSS, seed=1)
        assert np.linalg.norm(data.truth) == pytest.approx(2.5, rel=1e-12)


class TestInputValidation:
    def test_non_finite_eps_and_cost_rejected(self):
        # a NaN eps slips past eps < 0 and would run to max_iters
        data = generate_dataset(10, 1.0, 1.0, 1.0, GAUSS, seed=0)
        for eps in (math.nan, math.inf, -0.1):
            with pytest.raises(ValueError, match="eps must be finite"):
                solve_hard_svr(data, eps)
            with pytest.raises(ValueError, match="eps must be finite"):
                solve_soft_svr(data, eps, 1.0)
        for cost in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match="cost must be finite"):
                solve_soft_svr(data, 0.5, cost)

    def test_non_finite_or_negative_data_parameters_rejected(self):
        # a NaN sigma or beta reaches the responses and the dual solver runs
        # to max_iters; sigma = 0 (noiseless) stays valid
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                generate_dataset(20, bad, 1.0, 1.0, GAUSS, seed=0)
            with pytest.raises(ValueError, match="must be finite"):
                generate_dataset(20, 0.5, bad, 1.0, GAUSS, seed=0)
            with pytest.raises(ValueError, match="must be finite"):
                generate_dataset(20, 0.5, 1.0, bad, GAUSS, seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            generate_dataset(20, 0.5, -1.0, 1.0, GAUSS, seed=0)
        with pytest.raises(ValueError, match="nonnegative"):
            generate_dataset(20, 0.5, 1.0, -1.0, GAUSS, seed=0)
        data = generate_dataset(20, 0.5, 1.0, 0.0, GAUSS, seed=0)
        np.testing.assert_array_equal(data.responses, data.features.T @ data.truth)


class TestHardSvr:
    def test_scalar_slab(self):
        # nearest point of the slab [1.5, 2.5] to the origin
        data = tiny_dataset([[1.0]], [2.0])
        fit = solve_hard_svr(data, 0.5)
        assert fit.status == "converged"
        assert fit.weights[0] == pytest.approx(1.5, abs=1e-7)

    def test_interpolation_matches_min_norm(self):
        data = generate_dataset(30, 0.5, 1.0, 0.3, GAUSS, seed=4)
        fit = solve_hard_svr(data, 0.0)
        assert fit.status == "converged"
        resid = data.responses - data.features.T @ fit.weights
        assert np.abs(resid).max() <= 1e-6
        w_pinv = np.linalg.pinv(data.features.T) @ data.responses
        np.testing.assert_allclose(fit.weights, w_pinv, atol=1e-6)

    def test_matches_generic_primal_solver(self):
        rng = np.random.default_rng(77)
        for trial in range(8):
            p = int(rng.integers(3, 12))
            n = int(rng.integers(2, 20))
            data = generate_dataset(p, n / p, 1.0, 0.4, GAUSS, seed=1000 + trial)
            eps = float(rng.uniform(0.3, 1.5))
            if not lp_feasible(data.features, data.responses, eps):
                continue
            fit = solve_hard_svr(data, eps)
            assert fit.status == "converged"
            w_oracle = primal_hard_oracle(data.features, data.responses, eps)
            np.testing.assert_allclose(fit.weights, w_oracle, atol=1e-5)

    def test_feasibility_agrees_with_lp(self):
        rng = np.random.default_rng(88)
        checked_infeasible = 0
        for trial in range(10):
            p = int(rng.integers(3, 8))
            n = int(rng.integers(p + 4, 26))
            data = generate_dataset(p, n / p, 1.0, 1.0, GAUSS, seed=2000 + trial)
            eps = float(rng.uniform(0.05, 0.6))
            feas = lp_feasible(data.features, data.responses, eps)
            fit = solve_hard_svr(data, eps)
            if feas:
                assert fit.status == "converged"
            else:
                assert fit.status == "infeasible"
                checked_infeasible += 1
        assert checked_infeasible > 0

    def test_converged_certificates(self):
        data = generate_dataset(60, 1.2, 1.0, 0.5, GAUSS, seed=3)
        fit = solve_hard_svr(data, 1.2)
        assert fit.status == "converged"
        assert fit.kkt_residual <= CFG.tol
        resid = data.responses - data.features.T @ fit.weights
        assert np.maximum(np.abs(resid) - 1.2, 0.0).max() <= CFG.tol
        # primal weights are exactly the dual image X u / sqrt(p)
        np.testing.assert_array_equal(
            fit.weights, data.features @ fit.dual / np.sqrt(data.p))


def farkas_margin(data, eps, dual):
    """(gain, leak) of the null(X) projection of dual, by least squares.

    gain = y'v - eps ||v||_1 relative to ||v||_1 (1 + max|y|); leak =
    ||X v|| relative to ||X||_F ||v||.  A Farkas direction has gain > 0
    and leak ~ 0.
    """
    x, y = data.features, data.responses
    u = dual / np.linalg.norm(dual)
    coef, *_ = np.linalg.lstsq(x.T, u, rcond=None)
    v = u - x.T @ coef
    l1 = float(np.abs(v).sum())
    gain = (float(y @ v) - eps * l1) / (l1 * (1.0 + float(np.abs(y).max())))
    leak = float(np.linalg.norm(x @ v)) / (np.linalg.norm(x) * np.linalg.norm(v))
    return gain, leak


class TestInfeasibilityCertificate:
    def test_every_infeasible_verdict_carries_a_farkas_direction(self):
        dstar = delta_star(1.0, 1.0, GAUSS)
        infeasible = 0
        for seed in range(20):
            data = generate_dataset(100, 1.1 * dstar, 1.0, 1.0, GAUSS, seed=seed)
            fit = solve_hard_svr(data, 1.0)
            if fit.status != "infeasible":
                continue
            infeasible += 1
            gain, leak = farkas_margin(data, 1.0, fit.dual)
            assert gain > 1e-8 and leak <= 1e-8
        assert infeasible >= 15

    def test_verdicts_agree_with_lp_around_delta_star(self):
        dstar = delta_star(1.0, 1.0, GAUSS)
        verdicts = set()
        for f in (0.9, 1.0, 1.1):
            for seed in range(10):
                data = generate_dataset(40, f * dstar, 1.0, 1.0, GAUSS, seed=seed)
                feas = lp_feasible(data.features, data.responses, 1.0)
                fit = solve_hard_svr(data, 1.0)
                assert fit.status == ("converged" if feas else "infeasible")
                verdicts.add(feas)
        assert verdicts == {True, False}

    def test_duplicated_samples_with_fewer_samples_than_features(self):
        # x_1 = x_2 with conflicting responses: no w fits both within eps,
        # although n < p; the Gram matrix is singular
        x = np.array([[1.0, 1.0], [0.5, 0.5], [-2.0, -2.0]])
        data = tiny_dataset(x, [0.0, 3.0])
        fit = solve_hard_svr(data, 1.0)
        assert fit.status == "infeasible"
        gain, leak = farkas_margin(data, 1.0, fit.dual)
        assert gain > 1e-8 and leak <= 1e-8
        # eps = 2 makes the same design feasible
        assert solve_hard_svr(data, 2.0).status == "converged"

    def test_certified_within_a_few_checks(self):
        dstar = delta_star(1.0, 1.0, GAUSS)
        iters = []
        for seed in range(10):
            data = generate_dataset(200, 1.1 * dstar, 1.0, 1.0, GAUSS, seed=seed)
            fit = solve_hard_svr(data, 1.0)
            if fit.status == "infeasible":
                iters.append(fit.iterations)
        assert len(iters) >= 8
        assert np.median(iters) <= 250
        data = generate_dataset(200, 1.1 * dstar, 1.0, 1.0, GAUSS, seed=0)
        assert solve_hard_svr(data, 1.0).iterations == solve_hard_svr(data, 1.0).iterations


class TestSoftSvr:
    def test_large_cost_matches_hard(self):
        data = generate_dataset(40, 0.8, 1.0, 0.3, GAUSS, seed=15)
        hard = solve_hard_svr(data, 0.8)
        soft = solve_soft_svr(data, 0.8, 1e6)
        assert hard.status == "converged" and soft.status == "converged"
        np.testing.assert_allclose(soft.weights, hard.weights, atol=1e-4)

    def test_huge_eps_gives_zero(self):
        data = generate_dataset(20, 1.5, 1.0, 0.5, GAUSS, seed=5)
        fit = solve_soft_svr(data, 1e3, 2.0)
        assert np.linalg.norm(fit.weights) <= 1e-8

    def test_matches_generic_primal_solver(self):
        rng = np.random.default_rng(99)
        for trial in range(6):
            p = int(rng.integers(3, 10))
            n = int(rng.integers(3, 20))
            data = generate_dataset(p, n / p, 1.0, 0.8, GAUSS, seed=3000 + trial)
            eps = float(rng.uniform(0.1, 0.8))
            cost = float(rng.uniform(0.5, 4.0))
            fit = solve_soft_svr(data, eps, cost)
            assert fit.status == "converged"
            w_oracle = primal_soft_oracle(data.features, data.responses, eps, cost)
            np.testing.assert_allclose(fit.weights, w_oracle, atol=1e-5)

    def test_box_and_complementary_slackness(self):
        data = generate_dataset(50, 2.0, 1.0, 1.0, GAUSS, seed=21)
        cost = 1.5
        fit = solve_soft_svr(data, 0.4, cost)
        box = cost / np.sqrt(data.p)
        assert np.abs(fit.dual).max() <= box + 1e-12
        resid = data.responses - data.features.T @ fit.weights
        interior = np.abs(fit.dual) < box - CFG.tol
        slack = np.maximum(np.abs(resid) - 0.4, 0.0)
        assert np.all(slack[interior] <= 1e-6)

    def test_dual_objective_value_matches_primal(self):
        data = generate_dataset(30, 1.5, 1.0, 0.7, GAUSS, seed=33)
        fit = solve_soft_svr(data, 0.5, 2.0)
        assert fit.kkt_residual <= CFG.tol


class TestDualMonotonicity:
    def test_objective_nondecreasing_every_iteration(self):
        # a run capped at max_iters = m is a prefix of the full run, so the
        # dual objective of the returned iterate, in the solver's own
        # arithmetic, never decreases in m
        data = generate_dataset(40, 1.5, 1.0, 0.8, GAUSS, seed=44)
        x, y, sp = data.features, data.responses, np.sqrt(data.p)
        k = x.T @ x

        def objective(u, eps):
            return float(-0.5 * (u @ (k @ u)) / data.p + (y @ u) / sp
                         - eps * np.abs(u).sum() / sp)

        for eps, solve in ((1.0, lambda cfg: solve_hard_svr(data, 1.0, cfg)),
                           (0.4, lambda cfg: solve_soft_svr(data, 0.4, 2.0, cfg))):
            full = solve(CFG)
            assert full.status == "converged"
            vals = [objective(solve(SolverConfig(max_iters=m)).dual, eps)
                    for m in range(1, full.iterations + 1)]
            assert vals[-1] == objective(full.dual, eps)
            assert np.all(np.diff(vals) >= 0.0)


class TestPolishGate:
    def test_polish_as_soon_as_the_pattern_holds(self):
        # the sign/box pattern settles within a few checks at these
        # settings; a fixed 250-iteration polish period would read 250
        iters = []
        for seed in range(4):
            data = generate_dataset(200, 1.0, 1.0, 1.0, GAUSS, seed=seed)
            hard = solve_hard_svr(data, 1.0)
            data = generate_dataset(200, 2.0, 1.0, 1.0, GAUSS, seed=seed)
            soft = solve_soft_svr(data, 0.6, 2.4)
            assert hard.status == soft.status == "converged"
            iters += [hard.iterations, soft.iterations]
        assert np.median(iters) <= 150

    def test_most_fits_stop_at_the_first_check(self):
        # the repaired polish certifies these fits at iteration 25; a
        # polish that needs the pattern to hold first reads a median of 75
        iters = []
        for seed in range(6):
            for delta in (0.5, 1.0):
                data = generate_dataset(200, delta, 1.0, 1.0, GAUSS, seed=seed)
                fit = solve_hard_svr(data, 1.0)
                assert fit.status == "converged"
                iters.append(fit.iterations)
            data = generate_dataset(200, 2.0, 1.0, 1.0, GAUSS, seed=seed)
            for cost in (0.5, 2.4):
                fit = solve_soft_svr(data, 0.6, cost)
                assert fit.status == "converged"
                iters.append(fit.iterations)
        assert np.median(iters) <= 25
        assert max(iters) <= 50

    @pytest.mark.parametrize("kind", ["hard", "soft"])
    def test_repairs_a_corrupted_pattern(self, kind):
        data = generate_dataset(200, 1.0 if kind == "hard" else 2.0, 1.0, 1.0,
                                GAUSS, seed=1)
        x, y, p = data.features, data.responses, data.p
        k = x.T @ x
        if kind == "hard":
            eps, box = 1.0, None
            fit = solve_hard_svr(data, eps)
        else:
            eps, box = 0.6, 2.4 / np.sqrt(p)
            fit = solve_soft_svr(data, eps, 2.4)
        assert fit.status == "converged" and fit.polish_solves >= 1
        pattern = _active_pattern(fit.dual, box)
        r = y - k @ fit.dual / np.sqrt(p)
        corrupted = pattern.copy()
        corrupted[np.flatnonzero(np.abs(pattern) == 1)[0]] = 0  # a true one out
        off = np.flatnonzero(pattern == 0)[0]
        corrupted[off] = -np.sign(r[off])  # a wrong-sign one in
        cand, solves = _polish(corrupted, k, y, p, eps, box)
        assert cand is not None and solves >= 2
        np.testing.assert_allclose(cand, fit.dual, rtol=0, atol=1e-12)

    def test_no_solve_once_the_free_set_exceeds_the_rank(self):
        # K_II = X_I'X_I has rank <= p (here p < n): with one more free
        # coordinate it is singular, so the polish stops before solving
        data = generate_dataset(20, 2.0, 1.0, 1.0, GAUSS, seed=0)
        x, y, p = data.features, data.responses, data.p
        k = x.T @ x
        pattern = np.zeros(data.n, dtype=np.int8)
        pattern[:p + 1] = 1
        assert _polish(pattern, k, y, p, 0.1, None) == (None, 0)
        assert _polish(pattern, k, y, p, 0.1, 2.0 / np.sqrt(p)) == (None, 0)

    def test_polish_solves_repeat_for_a_seed(self):
        data = generate_dataset(200, 2.0, 1.0, 1.0, GAUSS, seed=3)
        a = solve_soft_svr(data, 0.6, 100.0)
        b = solve_soft_svr(data, 0.6, 100.0)
        assert a.polish_solves == b.polish_solves >= 1
        assert a.iterations == b.iterations


def near_threshold(f, seed):
    """Hard-fit instance at f * delta*(1, 1): p = 200, eps = sigma = beta = 1."""
    return generate_dataset(200, f * delta_star(1.0, 1.0, GAUSS), 1.0, 1.0, GAUSS,
                            seed=np.random.SeedSequence(seed, spawn_key=(0, 0)))


class TestDualCost:
    def test_one_gram_product_per_iteration(self):
        # a backtracking trial or a polish candidate adds one; the
        # extrapolated point's product is a combination of earlier ones
        data = generate_dataset(200, 2.0, 1.0, 1.0, GAUSS, seed=0)
        for fit in (solve_soft_svr(data, 0.6, 2.4), solve_soft_svr(data, 0.6, 100.0),
                    solve_hard_svr(near_threshold(1.1, 3), 1.0)):
            assert fit.iterations < fit.gram_products < 1.5 * fit.iterations

    def test_projector_built_only_for_a_farkas_test(self, monkeypatch):
        built = []
        real = solvers._null_projector

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(solvers, "_null_projector", counting)
        fit = solve_hard_svr(near_threshold(0.9, 0), 1.0)
        assert fit.status == "converged" and fit.iterations == 25
        assert built == [] and fit.projector_builds == 0
        fit = solve_hard_svr(near_threshold(1.1, 1), 1.0)
        assert fit.status == "infeasible"
        assert len(built) == fit.projector_builds == 1

    def test_near_threshold_hard_fits_stop_early(self):
        # the polish's one-at-a-time safeguard; without it these fits
        # reached 100-275 iterations
        iters = []
        for seed in range(20):
            fit = solve_hard_svr(near_threshold(0.9, seed), 1.0)
            assert fit.status == "converged"
            iters.append(fit.iterations)
        assert max(iters) <= 50

    def test_verdicts_above_threshold_carry_farkas_directions(self):
        # tests_support.lp_feasible confirms each verdict (about 0.6 s per
        # instance, too slow to repeat here)
        feasible = {0, 12, 14, 16}
        for seed in range(20):
            data = near_threshold(1.1, seed)
            fit = solve_hard_svr(data, 1.0)
            assert fit.status == ("converged" if seed in feasible else "infeasible")
            if fit.status == "infeasible":
                gain, leak = farkas_margin(data, 1.0, fit.dual)
                assert gain > 1e-8 and leak <= 1e-8


def designed(x, seed, sigma=1.0):
    """Dataset on a fixed design: a unit-norm truth and N(0, sigma^2) noise."""
    rng = np.random.default_rng(seed)
    truth = rng.standard_normal(x.shape[0])
    truth /= np.linalg.norm(truth)
    y = x.T @ truth + sigma * rng.standard_normal(x.shape[1])
    return tiny_dataset(x, y, truth)


class TestClosedFormStart:
    """Designs on which the step's start, (mean squared entry) (sqrt n +
    sqrt p)^2, is far from lambda_max(X'X): the fits keep their verdicts
    and their oracle weights."""

    @staticmethod
    def check(data, eps, soft=False):
        """Returns lambda_max over the start."""
        x, y = data.features, data.responses
        p, n = x.shape
        lam = float((x * x).sum()) / (n * p) * (math.sqrt(n) + math.sqrt(p)) ** 2
        top = np.linalg.eigvalsh(x.T @ x)[-1]
        # no x1.3 growth acts before iteration 4, so every extra product of
        # the first three halves a start that was too large
        first = solve_hard_svr(data, eps, SolverConfig(max_iters=3))
        assert first.gram_products - first.iterations <= math.log2(top / lam) + 2
        fit = solve_hard_svr(data, eps)
        # over a whole fit the growth brings a rejected trial about every 8
        # iterations; a start that kept being rejected would exceed this
        extra = fit.gram_products - fit.iterations
        assert extra <= fit.iterations / 8 + math.log2(top / lam) + 2
        if lp_feasible(x, y, eps):
            assert fit.status == "converged"
            np.testing.assert_allclose(fit.weights, primal_hard_oracle(x, y, eps), atol=1e-5)
        else:
            assert fit.status == "infeasible"
            gain, leak = farkas_margin(data, eps, fit.dual)
            assert gain > 1e-8 and leak <= 1e-8
        if soft:
            fit = solve_soft_svr(data, eps, 2.0)
            assert fit.status == "converged"
            np.testing.assert_allclose(fit.weights, primal_soft_oracle(x, y, eps, 2.0),
                                       atol=1e-5)
        return top / lam

    def test_spiked_design_starts_low(self):
        # one feature row scaled x10 puts lambda_max 3-9x above the start
        for seed in range(2):
            rng = np.random.default_rng(seed)
            for p, n in ((20, 14), (30, 60)):
                x = rng.standard_normal((p, n))
                x[0] *= 10.0
                assert self.check(designed(x, seed), 1.0, soft=n < p) > 2.5

    def test_orthonormal_rows_start_high(self):
        # XX' = I: lambda_max = 1 against a start of (1 + sqrt(p/n))^2
        for seed in range(2):
            rng = np.random.default_rng(seed)
            for p, n in ((20, 20), (20, 40)):
                x = np.linalg.qr(rng.standard_normal((n, p)))[0].T
                assert self.check(designed(x, seed, 0.3), 0.3, soft=n == p) < 0.5

    def test_duplicated_samples_take_the_eigh_projector(self):
        # n <= p with repeated samples, so k is singular and the projector
        # comes from its eigendecomposition.  Samples 0 and 1 are the same
        # +-1 vector of squared norm 16: Cholesky's second pivot is
        # 16 - (16 / 4)^2 = 0 exactly, whatever the BLAS.  Both verdicts occur.
        verdicts = set()
        for seed in range(3):
            base = np.random.default_rng(seed).choice([-1.0, 1.0], size=(16, 10))
            x = base[:, [0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2]]
            span, _ = _null_projector(x, x.T @ x)
            assert span.shape == (13, np.linalg.matrix_rank(x))
            for eps in (0.5, 2.0):
                data = designed(x, seed)
                self.check(data, eps, soft=eps == 0.5)
                verdicts.add(lp_feasible(x, data.responses, eps))
        assert verdicts == {True, False}


def test_solves_load_no_scipy_linalg():
    # scipy.linalg's own BLAS thread pool, beside numpy's, made p = 200
    # solves 1.5-2.5x slower; svrisk keeps its linear algebra in numpy.
    # Old scipy releases load scipy.linalg from scipy.special itself, which
    # svrisk needs; the check is then on what svrisk adds.
    code = (
        "import sys\n"
        "import scipy.special\n"
        "before = 'scipy.linalg' in sys.modules\n"
        "from svrisk import generate_dataset, solve_hard_svr, solve_soft_svr\n"
        "data = generate_dataset(40, 2.0, 1.0, 1.0, seed=0)\n"
        "solve_hard_svr(data, 1.0)\n"
        "solve_soft_svr(data, 0.6, 2.4)\n"
        "print(before, 'scipy.linalg' in sys.modules)\n"
    )
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    before, after = out.stdout.split()
    assert after == "False" or before == "True", out.stdout


class TestRidge:
    def test_large_lambda_shrinks_to_zero(self):
        data = generate_dataset(20, 2.0, 1.0, 0.5, GAUSS, seed=2)
        w = solve_ridge(data, 1e9)
        assert np.linalg.norm(w) < 1e-5

    def test_noiseless_identified_recovery(self):
        data = generate_dataset(30, 2.0, 1.0, 0.0, GAUSS, seed=6)
        w = solve_ridge(data, 1e-8)
        np.testing.assert_allclose(w, data.truth, atol=1e-4)

    def test_lambda_must_be_finite_and_positive(self):
        data = generate_dataset(20, 2.0, 1.0, 0.5, GAUSS, seed=2)
        for lam in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="lam must be finite"):
                solve_ridge(data, lam)

    def test_oracle_beats_fixed_lambdas(self):
        data = generate_dataset(80, 1.5, 1.0, 1.0, GAUSS, seed=8)
        lam, w = oracle_ridge(data)
        risk = prediction_risk(w, data.truth)
        for fixed in (1e-3, 1e-1, 1.0, 10.0):
            assert risk <= prediction_risk(solve_ridge(data, fixed), data.truth) + 1e-12


class TestMetrics:
    def test_trivial_values(self):
        t = np.array([1.0, 2.0])
        assert prediction_risk(t, t) == 0.0
        assert cosine_similarity(t, t) == pytest.approx(1.0)
        assert cosine_similarity(-t, t) == pytest.approx(-1.0)
        assert prediction_risk(np.zeros(2), t) == pytest.approx(5.0)

    def test_zero_norm_flagged(self):
        assert cosine_similarity(np.zeros(2), np.ones(2)) is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            prediction_risk(np.zeros(2), np.zeros(3))


class TestEstimators:
    def test_noiseless(self):
        data = generate_dataset(40, 2.0, 1.3, 0.0, GAUSS, seed=10)
        s2, b2 = estimate_noise_signal(data.features, data.responses)
        assert s2 <= 1e-10
        assert b2 == pytest.approx(float(data.responses @ data.responses) / data.n,
                                   rel=1e-9)

    def test_underdetermined_rejected(self):
        data = generate_dataset(40, 0.8, 1.0, 1.0, GAUSS, seed=10)
        with pytest.raises(UnsupportedRegime):
            estimate_noise_signal(data.features, data.responses)

    def test_consistency_gaussian(self):
        s2s, b2s = [], []
        for seed in range(20):
            data = generate_dataset(300, 2.0, 1.0, 1.0, GAUSS, seed=seed)
            s2, b2 = estimate_noise_signal(data.features, data.responses)
            s2s.append(s2)
            b2s.append(b2)
        assert np.mean(s2s) == pytest.approx(1.0, rel=0.05)
        assert np.mean(b2s) == pytest.approx(1.0, rel=0.05)

    def test_mixture_estimates_effective_variance(self):
        # the residual picks up sigma^2 E N^2 = 1.25 sigma^2 for d = 10
        s2s = []
        for seed in range(10):
            data = generate_dataset(200, 3.0, 1.0, 1.0, scale_mixture(10.0), seed=seed)
            s2, _ = estimate_noise_signal(data.features, data.responses)
            s2s.append(s2)
        assert np.mean(s2s) == pytest.approx(1.25, rel=0.08)
