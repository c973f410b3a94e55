"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line with its runtime (run pytest with -s to
see them live).  Budgets are wall-clock upper bounds per criterion.
"""

import math
import time

import numpy as np
import pytest

import svrisk as sv
from svrisk.asymptotics import HsvrProblem, SsvrProblem
from svrisk.expectations import DEFAULT_QUAD

GAUSS = sv.standard_gaussian()
MIX3 = sv.scale_mixture(3.0)
MIX10 = sv.scale_mixture(10.0)


class _Criterion:
    """Context manager printing one pass/fail line with the runtime."""

    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        took = time.time() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.name}): {verdict} [{took:.1f}s / budget {self.budget:.0f}s]")
        if exc_type is None:
            assert took < self.budget, f"criterion {self.number} exceeded runtime budget"
        return False


def test_criterion_1_threshold_identities():
    with _Criterion(1, "threshold identities", 10.0):
        for sigma in (0.2, 0.5, 1.0):
            assert sv.delta_star(0.0, sigma, GAUSS) == pytest.approx(1.0, abs=1e-6)
        for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
            for sigma in (0.2, 0.5, 2.0):
                a = sv.delta_star(eps, sigma, GAUSS)
                b = sv.delta_star(eps / sigma, 1.0, GAUSS)
                assert a == pytest.approx(b, rel=1e-8)
        vals = [sv.delta_star(e, 1.0, GAUSS) for e in (0.0, 0.25, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_criterion_2_hsvr_theory_anchors():
    with _Criterion(2, "hard-SVR theory anchors", 120.0):
        anchors = [
            # (delta, sigma, eps, expected risk)
            (1.0, 0.5, 0.13, 1.47744),
            (1.0, 0.5, 0.41, 0.43296),
            (1.0, 0.5, 1.0, 0.62426),
            (1.0, 0.2, 0.10, 0.19071),
            (0.01, 1.0, 1.0, 0.99600),
            (1.14, 1.0, 1.0, 0.73908),
            (1.82, 1.0, 1.0, 1.24412),
        ]
        for delta, sigma, eps, want in anchors:
            sol = sv.hsvr_risk(HsvrProblem(delta, sigma, 1.0, eps, GAUSS))
            assert sol.feasible
            assert sol.risk == pytest.approx(want, rel=5e-3), (delta, sigma, eps)
        _, risk5 = sv.tune_hsvr(5.0, 1.0, 1.0, GAUSS)
        assert risk5 == pytest.approx(0.43891, rel=5e-3)
        _, risk01 = sv.tune_hsvr(0.1, 1.0, 1.0, GAUSS)
        assert risk01 == pytest.approx(0.96099, rel=5e-3)


def test_criterion_3_limit_behaviors():
    with _Criterion(3, "limit behaviors", 60.0):
        h = sv.hsvr_risk(HsvrProblem(1e-4, 1.0, 1.0, 1.0, GAUSS))
        assert h.risk == pytest.approx(1.0, rel=1e-2)
        s = sv.ssvr_risk(SsvrProblem(1e-4, 1.0, 1.0, 0.6, GAUSS, cost=2.4))
        assert s.risk == pytest.approx(1.0, rel=1e-2)
        # SNR independence near the threshold: risks at 0.999 delta_star agree
        # with their common limit (mean) within 2%; the pairwise spread there
        # is ~2.8% (brute-force verified), so agreement is to the mean
        dstar = sv.delta_star(1.0, 1.0, GAUSS)
        risks = [sv.hsvr_risk(HsvrProblem(0.999 * dstar, 1.0, b, 1.0, GAUSS)).risk
                 for b in (0.5, 1.0, 2.0)]
        mean = sum(risks) / 3.0
        assert max(abs(r - mean) / mean for r in risks) < 0.02


def test_criterion_4_theory_empirics_agreement():
    with _Criterion(4, "theory/empirics agreement", 600.0):
        # hard tube: p=200, 20 seeds at (delta=1, sigma=0.2, eps=0.1)
        risks = []
        for seed in range(20):
            data = sv.generate_dataset(200, 1.0, 1.0, 0.2, GAUSS, seed=seed)
            fit = sv.solve_hard_svr(data, 0.1)
            assert fit.status == "converged"
            risks.append(sv.prediction_risk(fit.weights, data.truth))
        mean_hard = float(np.mean(risks))
        assert abs(mean_hard - 0.19071) / 0.19071 <= 0.05
        # soft tube: p=400, 50 seeds at (delta=2, eps=0.6, C=2.4)
        theory = sv.ssvr_risk(SsvrProblem(2.0, 1.0, 1.0, 0.6, GAUSS, cost=2.4)).risk
        risks = []
        for seed in range(50):
            data = sv.generate_dataset(400, 2.0, 1.0, 1.0, GAUSS, seed=seed)
            fit = sv.solve_soft_svr(data, 0.6, 2.4)
            risks.append(sv.prediction_risk(fit.weights, data.truth))
        mean_soft = float(np.mean(risks))
        stderr = float(np.std(risks, ddof=1) / math.sqrt(len(risks)))
        assert abs(mean_soft - theory) <= 3.0 * stderr


def test_criterion_5_phase_transition():
    with _Criterion(5, "feasibility phase transition", 300.0):
        dstar = sv.delta_star(1.0, 1.0, GAUSS)
        rows = sv.feasibility_curve(
            p=300, eps=1.0, sigma=1.0, noise=GAUSS,
            delta_grid=(0.9 * dstar, 1.1 * dstar), trials=20, base_seed=0)
        assert rows[0][1] >= 0.95
        assert rows[1][1] <= 0.05


def test_criterion_6_impulsive_noise_comparison():
    with _Criterion(6, "impulsive-noise comparison", 900.0):
        # d = 3: tuned S-SVR theory, oracle-ridge empirical, tuned H-SVR ~ null
        _, _, risk_s3 = sv.tune_ssvr(3.8, 1.0, 1.0, MIX3)
        assert risk_s3 == pytest.approx(0.36645, rel=0.05)
        ridge_risks = []
        for seed in range(20):
            data = sv.generate_dataset(200, 3.8, 1.0, 1.0, MIX3, seed=seed)
            _, w = sv.oracle_ridge(data)
            ridge_risks.append(sv.prediction_risk(w, data.truth))
        assert float(np.mean(ridge_risks)) == pytest.approx(0.4722, rel=0.05)
        _, risk_h3 = sv.tune_hsvr(3.8, 1.0, 1.0, MIX3)
        assert risk_h3 == pytest.approx(1.0, rel=0.05)
        # d = 10: tuned H-SVR and S-SVR theory values
        _, risk_h10 = sv.tune_hsvr(3.8, 1.0, 1.0, MIX10)
        assert risk_h10 == pytest.approx(0.67898, rel=0.02)
        _, _, risk_s10 = sv.tune_ssvr(3.8, 1.0, 1.0, MIX10)
        assert risk_s10 == pytest.approx(0.30028, rel=0.05)


def test_criterion_7_oracle_equivalences():
    with _Criterion(7, "oracle equivalences", 300.0):
        from scipy.optimize import minimize
        from tests_support import boxed_max_value, lemma_max_value
        rng = np.random.default_rng(1234)
        # sphere / box maximizers against brute force (dim <= 6, 100 each)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            a = rng.normal(size=n) * rng.uniform(0.5, 2.0)
            m = float(rng.uniform(0.2, 2.0))
            eps = float(rng.uniform(0.0, 1.2))
            want = lemma_max_value(a, m, eps)
            coef = np.abs(a) - eps
            best = 0.0
            for _ in range(4):
                t0 = rng.uniform(0.1, 1.0, size=n)
                t0 *= m / np.linalg.norm(t0)
                res = minimize(lambda t: -(coef @ t), t0, method="SLSQP",
                               bounds=[(0.0, None)] * n,
                               constraints=[{"type": "ineq",
                                             "fun": lambda t: m * m - t @ t}],
                               options={"maxiter": 300, "ftol": 1e-12})
                t = np.maximum(res.x, 0.0)
                nt = np.linalg.norm(t)
                if nt > m:
                    t *= m / nt
                best = max(best, float(coef @ t))
            assert want == pytest.approx(best, abs=1e-6)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            b = np.abs(rng.normal(size=n))
            beta = float(rng.uniform(0.05, 2.0))
            tau = float(rng.uniform(0.2, 2.0))
            want = boxed_max_value(b, beta, tau)
            best = 0.0
            for _ in range(4):
                u0 = rng.uniform(0.0, tau, size=n)
                res = minimize(lambda u: -(b @ u - beta * np.linalg.norm(u)),
                               u0, method="L-BFGS-B", bounds=[(0.0, tau)] * n)
                best = max(best, -float(res.fun))
            assert want == pytest.approx(best, abs=1e-6)
        # dual solvers against a generic primal solver on 25 small instances
        from tests_support import lp_feasible, primal_hard_oracle, primal_soft_oracle
        count = 0
        trial = 0
        while count < 25:
            trial += 1
            p = int(rng.integers(3, 12))
            n = int(rng.integers(2, 21))
            data = sv.generate_dataset(p, n / p, 1.0, 0.5, GAUSS, seed=50_000 + trial)
            if count % 2 == 0:
                eps = float(rng.uniform(0.3, 1.2))
                if not lp_feasible(data.features, data.responses, eps):
                    continue
                fit = sv.solve_hard_svr(data, eps)
                w_oracle = primal_hard_oracle(data.features, data.responses, eps)
            else:
                eps = float(rng.uniform(0.1, 0.8))
                cost = float(rng.uniform(0.5, 4.0))
                fit = sv.solve_soft_svr(data, eps, cost)
                w_oracle = primal_soft_oracle(data.features, data.responses, eps, cost)
            assert fit.status == "converged"
            np.testing.assert_allclose(fit.weights, w_oracle, atol=1e-5)
            count += 1
        # production quadrature vs the Gaussian closed form on a 20x20 grid
        from tests_support import closed_form_hinge_sq, e_hinge_sq_quad2d
        for s in np.linspace(0.05, 3.0, 20):
            for c in np.linspace(0.0, 2.5, 20):
                want = closed_form_hinge_sq(math.hypot(s, 1.0), c)
                assert abs(sv.e_hinge_moments(s, c, GAUSS)[2] - want) <= 1e-9
                assert abs(e_hinge_sq_quad2d(s, c, GAUSS) - want) <= 1e-9
        # soft -> hard limit at C = 1e6 on three feasible problems
        for delta, sigma, eps in ((1.5, 1.0, 1.0), (1.0, 0.5, 0.5), (2.0, 1.0, 1.2)):
            hard = sv.hsvr_risk(HsvrProblem(delta, sigma, 1.0, eps, GAUSS))
            assert hard.feasible
            soft = sv.ssvr_risk(SsvrProblem(delta, sigma, 1.0, eps, GAUSS, cost=1e6))
            assert soft.risk == pytest.approx(hard.risk, abs=1e-3)


def test_criterion_8_estimator_consistency():
    with _Criterion(8, "estimator consistency", 60.0):
        s2s, b2s = [], []
        for seed in range(20):
            data = sv.generate_dataset(300, 2.0, 1.0, 1.0, GAUSS, seed=seed)
            s2, b2 = sv.estimate_noise_signal(data.features, data.responses)
            s2s.append(s2)
            b2s.append(b2)
        assert float(np.mean(s2s)) == pytest.approx(1.0, rel=0.05)
        assert float(np.mean(b2s)) == pytest.approx(1.0, rel=0.05)
