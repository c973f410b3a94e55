"""Scalar limit problems: threshold identities, risk anchors, saddle checks.

Risk anchors are fixed points of the limiting curves (also exercised, with
runtime budgets, by the acceptance suite).
"""

import math

import numpy as np
import pytest

import svrisk
from svrisk import (
    HsvrProblem,
    SsvrProblem,
    delta_star,
    epsilon_star,
    hsvr_risk,
    scale_mixture,
    ssvr_risk,
    standard_gaussian,
    tune_hsvr,
    tune_ssvr,
)
from svrisk.asymptotics import _g1_edge, _threshold_slope
from svrisk.expectations import count_expectations, e_hinge_moments
from svrisk.scalar_opt import brent_root

from tests_support import (
    d_value,
    dbar_value,
    delta_star_golden,
    hsvr_risk_gated,
    hsvr_risk_golden,
    ssvr_risk_golden,
    sup_chi,
    sup_chi_golden,
)

GAUSS = standard_gaussian()

# frozen dense-grid oracle (1e4-point t grid, auto-expanded range, Gaussian
# closed form for the hinge moment): inf located at t ~ 0.77385
DELTA_STAR_1_1 = 1.8500167278


def test_every_public_name_resolves():
    assert len(set(svrisk.__all__)) == len(svrisk.__all__)
    for name in svrisk.__all__:
        assert getattr(svrisk, name) is not None, name


class TestProblemValidation:
    def test_non_finite_inputs_rejected(self):
        base = dict(delta=1.0, sigma=1.0, beta=1.0, eps=0.5)
        for name in base:
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match="finite"):
                    HsvrProblem(**{**base, name: bad})
                with pytest.raises(ValueError, match="finite"):
                    SsvrProblem(**{**base, name: bad}, cost=1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                SsvrProblem(**base, cost=bad)


class TestDeltaStar:
    def test_zero_eps_is_one(self):
        for sigma in (0.2, 0.5, 1.0):
            assert delta_star(0.0, sigma, GAUSS) == pytest.approx(1.0, abs=1e-6)

    def test_scale_invariance(self):
        a = delta_star(0.1, 0.1, GAUSS)
        b = delta_star(0.2, 0.2, GAUSS)
        assert a == pytest.approx(b, rel=1e-8)

    def test_dense_grid_oracle(self):
        assert delta_star(1.0, 1.0, GAUSS) == pytest.approx(DELTA_STAR_1_1, rel=1e-7)

    def test_strictly_increasing_in_eps(self):
        eps = np.linspace(0.0, 2.0, 9)
        vals = [delta_star(e, 1.0, GAUSS) for e in eps]
        assert np.all(np.diff(vals) > 0)

    def test_always_at_least_one(self):
        for e, s in ((0.05, 1.0), (0.5, 0.3), (2.0, 2.0)):
            assert delta_star(e, s, GAUSS) > 1.0

    def test_noiseless_limit_infinite(self):
        assert delta_star(1.0, 1e-9, GAUSS) == math.inf

    def test_mixture_threshold_smaller_with_heavier_tail(self):
        # heavier tails push observations out of the tube: d = 3 noise has
        # larger magnitude than d = 10, so the threshold drops
        d3 = delta_star(1.0, 1.0, scale_mixture(3.0))
        d10 = delta_star(1.0, 1.0, scale_mixture(10.0))
        assert 1.0 < d3 < d10 < DELTA_STAR_1_1

    @pytest.mark.parametrize("dof", [0, 2.1, 3.0, 10.0, 30.0],
                             ids=["gauss", "d2.1", "d3", "d10", "d30"])
    def test_matches_the_golden_search(self, dof):
        # the root of f'(t) against a golden search on f(t) to 1e-11 in t;
        # the grid holds thresholds from 1.00008 to 1.3e8 and infinite ones
        noise = GAUSS if dof == 0 else scale_mixture(dof)
        for eps in (0.05, 0.5, 1.0, 3.0, 20.0):
            for sigma in (0.2, 1.0):
                got = delta_star(eps, sigma, noise)
                want = delta_star_golden(eps, sigma, noise)
                if math.isinf(want):
                    assert got == want, (eps, sigma)
                else:
                    assert got == pytest.approx(want, rel=1e-10), (eps, sigma)

    @pytest.mark.parametrize("noise", [GAUSS, scale_mixture(2.1), scale_mixture(3.0),
                                       scale_mixture(10.0)],
                             ids=["gauss", "d2.1", "d3", "d10"])
    def test_threshold_slope_matches_a_central_difference(self, noise):
        # f(t) = E(|G + t sigma N| - t eps)_+^2 from hinge_sq_mean, against
        # the slope delta_star solves, 2 sigma^2 t H2 - 2 P / t; its two
        # terms each grow like 2/t as t -> 0
        for sigma, eps in ((0.2, 0.5), (1.0, 1.0), (1.0, 0.05)):
            def f(t):
                return svrisk.hinge_sq_mean(1.0, t * sigma, t * eps, noise)

            for t in (1e-3, 1.0, 1e3):
                slope, value = _threshold_slope(t, sigma, eps / sigma, noise)
                assert value == pytest.approx(f(t), rel=1e-12), (sigma, eps, t)
                h = 1e-5 * t
                fd = (f(t + h) - f(t - h)) / (2.0 * h)
                assert fd == pytest.approx(slope, rel=1e-6), (sigma, eps, t)

    @pytest.mark.parametrize("dof", [0, 3.0, 10.0], ids=["gauss", "d3", "d10"])
    def test_expectation_budget(self, dof):
        # the golden search takes 57-62 calls here
        noise = GAUSS if dof == 0 else scale_mixture(dof)
        for sigma in (0.2, 1.0):
            with count_expectations() as counter:
                delta_star(1.0, sigma, noise)
            assert counter.n <= 20, sigma

    def test_non_finite_inputs_rejected(self):
        for eps, sigma in ((1.0, math.inf), (math.inf, 1.0), (1.0, math.nan),
                           (math.nan, 1.0)):
            with pytest.raises(ValueError, match="must be finite"):
                delta_star(eps, sigma, GAUSS)


class TestEpsilonStar:
    def test_at_most_one_gives_zero(self):
        assert epsilon_star(1.0, 1.0, GAUSS) == 0.0
        assert epsilon_star(0.3, 1.0, GAUSS) == 0.0

    def test_round_trip_at_frozen_anchor(self):
        eps = epsilon_star(DELTA_STAR_1_1, 1.0, GAUSS)
        assert eps == pytest.approx(1.0, abs=1e-5)

    def test_round_trip_generic(self):
        for delta in (1.5, 2.0, 4.0):
            eps = epsilon_star(delta, 1.0, GAUSS)
            assert delta_star(eps, 1.0, GAUSS) == pytest.approx(delta, rel=1e-6)

    def test_expectation_budget(self):
        with count_expectations() as counter:
            epsilon_star(2.0, 1.0, GAUSS)
        assert counter.n <= 700


class TestDValue:
    PROB = HsvrProblem(1.3, 1.0, 1.0, 0.5, GAUSS)

    def test_nonnegative_at_g1_zero(self):
        for g2 in (0.0, 0.5, 2.0):
            assert d_value(0.0, g2, self.PROB) >= 0.0

    def test_even_in_g2(self):
        for g2 in (0.3, 1.1):
            a = d_value(0.7, g2, self.PROB)
            b = d_value(0.7, -g2, self.PROB)
            assert a == pytest.approx(b, rel=1e-12)

    def test_linear_slope_at_large_g1(self):
        # D/g1 -> sqrt(delta) - 1 with an O(1/g1) correction of size
        # ~ sqrt(delta) * c * E|G|
        prob = HsvrProblem(0.49, 1.0, 1.0, 0.5, GAUSS)
        slope_expect = math.sqrt(prob.delta) - 1.0
        for g1 in (10.0, 100.0, 1000.0):
            val = d_value(g1, 0.0, prob)
            assert val / g1 == pytest.approx(slope_expect, abs=0.5 / g1)
        assert d_value(1000.0, 0.0, prob) < -200.0  # -inf linearly


class TestHsvrRisk:
    def test_risk_anchor_small_sigma(self):
        sol = hsvr_risk(HsvrProblem(1.0, 0.2, 1.0, 0.10, GAUSS))
        assert sol.feasible
        assert sol.risk == pytest.approx(0.19071, rel=5e-3)

    def test_risk_anchor_delta_sweep(self):
        sol = hsvr_risk(HsvrProblem(1.14, 1.0, 1.0, 1.0, GAUSS))
        assert sol.risk == pytest.approx(0.73908, rel=5e-3)

    def test_infeasible_flagged(self):
        sol = hsvr_risk(HsvrProblem(10.0, 1.0, 1.0, 0.1, GAUSS))
        assert not sol.feasible
        assert sol.risk is None

    def test_null_limit_at_tiny_delta(self):
        sol = hsvr_risk(HsvrProblem(1e-4, 1.0, 1.0, 1.0, GAUSS))
        assert sol.risk == pytest.approx(1.0, rel=1e-2)
        # approaching the 0/0 cosine limit: tiny when still defined
        assert sol.cosine is None or abs(sol.cosine) < 0.05

    def test_active_constraint_residual(self):
        for delta, sigma, eps in ((1.0, 0.5, 0.4), (1.5, 1.0, 1.0), (0.5, 0.2, 0.1)):
            sol = hsvr_risk(HsvrProblem(delta, sigma, 1.0, eps, GAUSS))
            assert abs(sol.diagnostics["d_residual"]) <= 1e-7

    def test_risk_identity(self):
        sol = hsvr_risk(HsvrProblem(1.0, 0.5, 1.0, 0.4, GAUSS))
        assert sol.risk == sol.g1 ** 2 * 0.25 + sol.g2 ** 2 * 0.25

    def test_cosine_formula(self):
        sol = hsvr_risk(HsvrProblem(1.0, 0.5, 1.0, 0.4, GAUSS))
        b = 1.0 / 0.5
        want = (b - sol.g2) / math.hypot(sol.g1, sol.g2 - b)
        assert sol.cosine == pytest.approx(want, rel=1e-12)

    def test_snr_independence_near_threshold(self):
        # risks agree with their common (SNR-independent) value within 2%;
        # brute-force-verified pairwise spread at 0.999 delta_star is ~2.8%,
        # so agreement is measured against the mean
        dstar = delta_star(1.0, 1.0, GAUSS)
        risks = [hsvr_risk(HsvrProblem(0.999 * dstar, 1.0, b, 1.0, GAUSS)).risk
                 for b in (0.5, 1.0, 2.0)]
        mean = sum(risks) / 3.0
        assert max(abs(r - mean) / mean for r in risks) < 0.02


class TestDbarAndSsvr:
    def test_chi_validation(self):
        prob = SsvrProblem(1.0, 1.0, 1.0, 0.5, GAUSS, cost=1.0)
        with pytest.raises(ValueError):
            dbar_value(0.5, 0.2, 0.0, prob)
        with pytest.raises(ValueError):
            dbar_value(0.0, 0.2, 1.0, prob)

    def test_concave_in_chi(self):
        rng = np.random.default_rng(41)
        prob = SsvrProblem(1.4, 1.0, 1.0, 0.6, GAUSS, cost=2.0)
        chis = np.linspace(0.05, 6.0, 40)
        for _ in range(20):
            g1 = rng.uniform(0.05, 2.0)
            g2 = rng.uniform(0.0, 1.0)
            vals = np.array([dbar_value(g1, g2, c, prob) for c in chis])
            d2 = vals[:-2] - 2 * vals[1:-1] + vals[2:]
            assert np.all(d2 <= 1e-8)

    def test_small_delta_sup_tends_to_quadratic(self):
        # sup over chi collapses onto g1^2/2 + (g2 - beta/sigma)^2/2
        prob = SsvrProblem(1e-6, 1.0, 1.0, 0.5, GAUSS, cost=1.0)
        for g1, g2 in ((0.3, 0.4), (1.0, 0.9)):
            _, val = sup_chi(g1, g2, prob)
            want = 0.5 * g1 ** 2 + 0.5 * (g2 - 1.0) ** 2
            assert val == pytest.approx(want, abs=1e-4)

    def test_huge_threshold_leaves_quadratic_terms(self):
        prob = SsvrProblem(1.0, 1.0, 1.0, 1e3, GAUSS, cost=5.0)
        val = dbar_value(0.4, 0.3, 1.0, prob)
        want = -0.4 * 1.0 / 2.0 + 0.5 * 0.4 ** 2 + 0.5 * (0.3 - 1.0) ** 2
        assert val == pytest.approx(want, abs=1e-12)

    def test_null_limit(self):
        sol = ssvr_risk(SsvrProblem(1e-4, 1.0, 1.0, 0.6, GAUSS, cost=2.4))
        assert sol.risk == pytest.approx(1.0, rel=1e-2)

    def test_large_cost_matches_hard(self):
        hard = hsvr_risk(HsvrProblem(1.5, 1.0, 1.0, 1.0, GAUSS))
        soft = ssvr_risk(SsvrProblem(1.5, 1.0, 1.0, 1.0, GAUSS, cost=1e3))
        assert soft.risk == pytest.approx(hard.risk, abs=1e-3)

    def test_saddle_stationarity(self):
        prob = SsvrProblem(2.0, 1.0, 1.0, 0.6, GAUSS, cost=2.4)
        sol = ssvr_risk(prob)
        v_opt = sol.diagnostics["value"]
        for dg1, dg2 in ((1e-4, 0.0), (-1e-4, 0.0), (0.0, 1e-4), (0.0, -1e-4)):
            g1 = max(sol.g1 + dg1, 1e-12)
            _, v = sup_chi(g1, sol.g2 + dg2, prob, log_tol=1e-8)
            assert v >= v_opt - 1e-8

    def test_unconstrained_spot_check_of_g2_range(self):
        # the optimizer restricts g2 to [0, beta/sigma]; confirm the optimum
        # is interior by checking the sup-value rises on both sides beyond it
        prob = SsvrProblem(2.0, 1.0, 1.0, 0.6, GAUSS, cost=2.4)
        sol = ssvr_risk(prob)
        assert 0.0 < sol.g2 < 1.0
        _, v_neg = sup_chi(sol.g1, -0.05, prob)
        _, v_big = sup_chi(sol.g1, 1.05, prob)
        assert v_neg > sol.diagnostics["value"]
        assert v_big > sol.diagnostics["value"]


NOISES = {"gauss": GAUSS, "d3": scale_mixture(3.0), "d10": scale_mixture(10.0)}


def _oracle_cases(index):
    """Every (eps, C) pair with one delta per noise; over the three noises
    each pair meets every delta and each noise every value."""
    deltas = (1.5, 2.0, 3.8)
    return [(deltas[(i + j + index) % 3], eps, cost)
            for i, eps in enumerate((0.2, 0.8))
            for j, cost in enumerate((0.8, 12.8, 100.0, 1e6))]


class TestSsvrFirstOrderConditions:
    @pytest.mark.parametrize("name", list(NOISES))
    def test_matches_nested_golden_oracle(self, name):
        # the oracle's own error is ~2e-5 at tol 1e-6 (its chi search runs
        # at log tolerance 1e-4), measured over all 72 (delta, eps, C) cases
        noise = NOISES[name]
        for delta, eps, cost in _oracle_cases(list(NOISES).index(name)):
            prob = SsvrProblem(delta, 1.0, 1.0, eps, noise, cost=cost)
            want = ssvr_risk_golden(prob, tol=1e-6)[2]
            assert ssvr_risk(prob).risk == pytest.approx(want, rel=1e-4), (delta, eps, cost)

    def test_sup_chi_matches_golden_search(self):
        # interior maximisers and a hard-feasible slice (chi* = 0)
        prob = SsvrProblem(2.0, 1.0, 1.0, 0.6, NOISES["d3"], cost=2.4)
        for g1, g2 in ((0.3, 0.2), (0.9, 0.5), (2.0, 0.1)):
            chi, val = sup_chi(g1, g2, prob, log_tol=1e-10)
            chi_g, val_g = sup_chi_golden(g1, g2, prob, log_tol=1e-8)
            assert val == pytest.approx(val_g, abs=1e-12)
            assert chi == pytest.approx(chi_g, rel=1e-6)
        hard = SsvrProblem(1.5, 1.0, 1.0, 1.0, GAUSS, cost=2.4)
        chi, val = sup_chi(2.0, 0.3, hard)
        assert chi == 0.0
        assert val == 0.5 * 2.0 ** 2 + 0.5 * (0.3 - 1.0) ** 2

    def test_certificates(self):
        # C = 20 puts the g1 root on a numerical step just below the hard edge
        for prob in (SsvrProblem(2.0, 1.0, 1.0, 0.6, GAUSS, cost=2.4),
                     SsvrProblem(3.8, 1.0, 1.0, 0.8, NOISES["d3"], cost=3.2),
                     SsvrProblem(1.0, 0.5, 1.0, 0.5, GAUSS, cost=20.0),
                     SsvrProblem(1.5, 1.0, 1.0, 1.0, GAUSS, cost=1e6)):
            sol = ssvr_risk(prob)
            diag = sol.diagnostics
            assert diag["chi_residual"] <= 1e-10
            assert diag["stationarity"] <= 1e-6
            assert 0 < diag["value_evals"] < diag["expect_evals"] < 5000
        hard = hsvr_risk(HsvrProblem(1.0, 0.5, 1.0, 0.4, GAUSS))
        assert hard.diagnostics["expect_evals"] > 0
        assert hsvr_risk(HsvrProblem(10.0, 1.0, 1.0, 0.1, GAUSS)).diagnostics["expect_evals"] > 0

    def test_expectation_budget(self):
        # the benchmark's SSVR_POINT (294 calls): the g1 bracket stops at
        # the first point where dV/dg1 > 0
        sol = ssvr_risk(SsvrProblem(2.0, 1.0, 1.0, 0.6, GAUSS, cost=2.4))
        assert sol.diagnostics["expect_evals"] <= 310

    def test_edge_regimes_return_certified_values(self):
        # C -> 0 and delta -> 0 make g1 and k tiny, where E min(h, k)^2
        # cancels to rounding noise in its difference form; eps = 0 and an
        # infeasible tube at large C stress the other ends
        cases = [((2.0, 1.0, 1.0, 0.6, 1e-8), 1.0), ((1e-12, 1.0, 1.0, 0.6, 2.4), 1.0),
                 ((2.0, 1.0, 1.0, 0.0, 2.4), None), ((2.0, 1.0, 1.0, 0.6, 1e9), None)]
        for (delta, sigma, beta, eps, cost), want in cases:
            sol = ssvr_risk(SsvrProblem(delta, sigma, beta, eps, GAUSS, cost=cost))
            if want is not None:
                assert sol.risk == pytest.approx(want, rel=1e-6)
            assert sol.diagnostics["chi_residual"] <= 1e-10
            assert sol.diagnostics["stationarity"] <= 1e-4
        # the infeasible tube's risk settles as C grows (5.5e-6 apart here)
        near = ssvr_risk(SsvrProblem(2.0, 1.0, 1.0, 0.6, GAUSS, cost=1e6)).risk
        assert sol.risk == pytest.approx(near, rel=1e-4)

    def test_large_cost_solves_the_hard_edge_equations(self):
        # C -> inf: g2 = (beta/sigma)(1 - delta P(|V| > c)) and
        # delta H2(c) = g1^2, solved here directly by nested roots
        delta, sigma, eps = 1.5, 1.0, 1.0
        c, b = eps / sigma, 1.0 / sigma
        sol = ssvr_risk(SsvrProblem(delta, sigma, 1.0, eps, GAUSS, cost=1e6))

        def edge(g2):
            f = lambda g1: delta * e_hinge_moments(math.hypot(g1, g2), c, GAUSS)[2] - g1 * g1
            return brent_root(f, 1e-6, 1.2, xtol=1e-15)

        def slope(g2):
            p0 = e_hinge_moments(math.hypot(edge(g2), g2), c, GAUSS)[0]
            return g2 - b * (1.0 - delta * p0)

        g2 = brent_root(slope, 0.2, 0.5, xtol=1e-15)
        g1 = edge(g2)
        assert sol.g2 == pytest.approx(g2, rel=1e-9)
        assert sol.g1 == pytest.approx(g1, rel=1e-9)
        # chi* tends to the multiplier g1 sigma / (1 - delta P(|V| > c))
        p0 = e_hinge_moments(math.hypot(g1, g2), c, GAUSS)[0]
        assert sol.chi == pytest.approx(g1 * sigma / (1.0 - delta * p0), rel=1e-8)


# the seven criterion-2 anchors: (delta, sigma, eps), beta = 1
HSVR_ANCHORS = ((1.0, 0.5, 0.13), (1.0, 0.5, 0.41), (1.0, 0.5, 1.0), (1.0, 0.2, 0.10),
                (0.01, 1.0, 1.0), (1.14, 1.0, 1.0), (1.82, 1.0, 1.0))


class TestHsvrFirstOrderConditions:
    @pytest.mark.parametrize("name", list(NOISES))
    def test_matches_golden_search_oracle(self, name):
        # the oracle's golden g2 search stops 1.5-3.6e-5 short of its optimum
        # at worst, so agreement is to 1e-5; 0.999 delta* has the narrowest
        # feasible g2 range
        noise = NOISES[name]
        cases = [(0.3, 1.0, 1.0, 1.0), (1.0, 0.5, 1.0, 0.4), (1.0, 0.2, 2.0, 0.1)]
        dstar = delta_star(1.0, 1.0, noise)
        cases += [(0.9 * dstar, 1.0, 1.0, 1.0), (0.999 * dstar, 1.0, 0.5, 1.0)]
        for delta, sigma, beta, eps in cases:
            prob = HsvrProblem(delta, sigma, beta, eps, noise)
            want = hsvr_risk_golden(prob)
            sol = hsvr_risk(prob)
            assert sol.feasible and want.feasible
            assert sol.risk == pytest.approx(want.risk, rel=1e-5), (delta, sigma, beta, eps)

    def test_equals_the_two_nested_roots(self):
        # g2 = (beta/sigma)(1 - delta P(|V| > c)) and delta H2(c) = g1^2
        # solved by two nested Brent roots (and ssvr_risk at C = 1e6)
        for (delta, sigma, eps), want in (((1.5, 1.0, 1.0), 0.7976299721),
                                          ((1.0, 0.5, 0.5), 0.4440912765),
                                          ((2.0, 1.0, 1.2), 0.6801620662)):
            sol = hsvr_risk(HsvrProblem(delta, sigma, 1.0, eps, GAUSS))
            assert sol.risk == pytest.approx(want, rel=1e-8)

    def test_next_to_the_threshold_matches_the_soft_limit(self):
        # at (1 - 1e-6) delta* the feasible set is a sliver around g2 = 0;
        # the soft risk tends to the hard one as C -> inf
        dstar = delta_star(1.0, 0.2, GAUSS)
        delta = (1.0 - 1e-6) * dstar
        sol = hsvr_risk(HsvrProblem(delta, 0.2, 2.0, 1.0, GAUSS))
        soft = ssvr_risk(SsvrProblem(delta, 0.2, 2.0, 1.0, GAUSS, cost=1e10))
        assert sol.feasible
        assert sol.risk == pytest.approx(soft.risk, rel=1e-6)
        assert abs(sol.diagnostics["d_residual"]) <= 1e-7

    def test_past_the_threshold_is_infeasible(self):
        for noise in (GAUSS, NOISES["d3"]):
            dstar = delta_star(1.0, 1.0, noise)
            sol = hsvr_risk(HsvrProblem(1.01 * dstar, 1.0, 1.0, 1.0, noise))
            assert not sol.feasible
            assert sol.risk is None

    def test_certificates_and_cost_on_the_anchors(self):
        for delta, sigma, eps in HSVR_ANCHORS:
            diag = hsvr_risk(HsvrProblem(delta, sigma, 1.0, eps, GAUSS)).diagnostics
            assert abs(diag["d_residual"]) <= 1e-7
            assert diag["stationarity"] <= 1e-8
            assert 0 < diag["expect_evals"] <= 80, (delta, sigma, eps)

    @pytest.mark.parametrize("name", ["gauss", "d3"])
    def test_feasibility_matches_the_delta_star_gate(self, name):
        # the g2 = 0 slice certificate alone gives the verdicts, and the
        # risks bit for bit, of the solve gated by delta_star, on both sides
        # of the threshold and 1e-9 from it
        noise = NOISES[name]
        for sigma, eps, beta in ((1.0, 1.0, 1.0), (0.2, 0.1, 2.0), (1.0, 3.0, 0.5)):
            dstar = delta_star(eps, sigma, noise)
            for f in (0.9, 1.0 - 1e-9, 1.0 + 1e-9, 1.1):
                prob = HsvrProblem(f * dstar, sigma, beta, eps, noise)
                sol = hsvr_risk(prob)
                assert (sol.feasible, sol.risk) == hsvr_risk_gated(prob), (sigma, eps, beta, f)
                assert sol.feasible == (f < 1.0)

    @pytest.mark.parametrize("name", ["gauss", "d3"])
    def test_zero_eps_threshold_is_one(self, name):
        # at eps = 0 the edge of the g2 = 0 slice runs off to g1 = inf as
        # delta -> 1, where delta_star = 1 exactly
        noise = NOISES[name]
        for delta, feasible in ((1.0 - 1e-9, True), (1.0, False), (1.0 + 1e-9, False)):
            prob = HsvrProblem(delta, 1.0, 1.0, 0.0, noise)
            sol = hsvr_risk(prob)
            assert sol.feasible is feasible, delta
            assert (sol.feasible, sol.risk) == hsvr_risk_gated(prob)

    def test_lower_edge_newton(self):
        # the Newton edge is the left root of D(., g2) and its tail
        # probability; an infeasible slice returns None
        prob = HsvrProblem(1.5, 1.0, 1.0, 1.0, GAUSS)
        for g2 in (0.0, 0.3, 0.6):
            g1, p = _g1_edge(prob, g2)
            assert abs(d_value(g1, g2, prob)) <= 1e-14
            assert d_value(0.999 * g1, g2, prob) > 0.0
            assert p == pytest.approx(e_hinge_moments(math.hypot(g1, g2), 1.0, GAUSS)[0],
                                      rel=1e-12)
        assert _g1_edge(prob, 3.0) is None
        assert _g1_edge(HsvrProblem(2.0, 1.0, 1.0, 1.0, GAUSS), 0.0) is None


class TestTuneHsvr:
    @pytest.mark.parametrize("tune", [tune_hsvr, tune_ssvr])
    def test_non_finite_or_non_positive_delta_rejected(self, tune):
        # checked before epsilon_star, whose bracket would fail without
        # naming delta
        for bad in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="delta must be finite"):
                tune(bad, 1.0, 1.0, GAUSS)

    def test_monotone_improvement_in_delta(self):
        # with the tube width tuned at each delta, more samples always help
        risks = [tune_hsvr(d, 1.0, 1.0, GAUSS)[1] for d in (1.0, 2.0, 4.0)]
        assert risks[0] > risks[1] > risks[2]
