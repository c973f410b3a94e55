"""Expectation functionals against closed forms, quadrature oracles and
brute-force maximizers."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import gammaln, ndtr

from svrisk import (
    DEFAULT_QUAD,
    QuadratureSpec,
    count_expectations,
    e_hinge_abs,
    e_hinge_moments,
    e_hinge_sq,
    e_tail_prob,
    hinge_sq_mean,
    scale_mixture,
    standard_gaussian,
)
from svrisk.expectations import _mixing_rule

from tests_support import (
    boxed_max_chi_objective,
    boxed_max_value,
    closed_form_hinge_sq,
    e_hinge_huber,
    e_hinge_sq_quad2d,
    gauss_hinge_abs,
    gauss_hinge_huber,
    gauss_hinge_sq,
    lemma_max_value,
    noise_pdf,
    soft_expectation,
)

GAUSS = standard_gaussian()
MIX3 = scale_mixture(3.0)
MIX10 = scale_mixture(10.0)

# frozen from the 1-D adaptive oracle: 2 * int_{c/s0}^inf (s0 z - c)^2 phi(z) dz
# with s0 = sqrt(2), c = 1 (quad abs err < 1e-12)
HINGE_SQ_1_1 = 0.559717787625


class TestHingeSquare:
    def test_unit_cases(self):
        assert e_hinge_sq(1.0, 0.0, GAUSS) == pytest.approx(2.0, abs=1e-12)
        assert e_hinge_sq(0.0, 0.0, GAUSS) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_value(self):
        assert e_hinge_sq(1.0, 1.0, GAUSS) == pytest.approx(HINGE_SQ_1_1, abs=1e-9)

    def test_matches_quadrature_oracle_on_grid(self):
        for s in (0.3, 1.0, 2.5):
            for c in (0.0, 0.5, 1.7):
                s0 = math.hypot(s, 1.0)
                want, _ = quad(
                    lambda z: max(s0 * abs(z) - c, 0.0) ** 2
                    * math.exp(-z * z / 2) / math.sqrt(2 * math.pi), -40, 40,
                    points=[-c / s0, c / s0])
                assert e_hinge_sq(s, c, GAUSS) == pytest.approx(want, abs=1e-9)

    def test_mixture_second_moment_edge(self):
        # s = 0, c = 0 reduces to E N^2 = d/(d-2), handled fully by the tail
        assert e_hinge_sq(0.0, 0.0, MIX3) == pytest.approx(3.0, rel=1e-10)
        assert e_hinge_sq(0.0, 0.0, MIX10) == pytest.approx(1.25, rel=1e-10)

    def test_mixture_against_monte_carlo(self):
        rng = np.random.default_rng(5)
        n = 4_000_000
        d = 10.0
        noise = np.sqrt(d / rng.chisquare(d, n)) * rng.standard_normal(n)
        g = rng.standard_normal(n)
        for s, c in ((0.8, 0.6), (0.0, 1.0)):
            v = np.maximum(np.abs(s * g + noise) - c, 0.0) ** 2
            se = v.std(ddof=1) / math.sqrt(n)
            assert e_hinge_sq(s, c, MIX10) == pytest.approx(v.mean(), abs=4 * se)

    def test_monotone_in_s_and_c(self):
        for noise in (GAUSS, MIX3):
            svals = np.linspace(0.0, 3.0, 13)
            vals = [e_hinge_sq(s, 0.7, noise) for s in svals]
            assert np.all(np.diff(vals) >= -1e-12)
            cvals = np.linspace(0.0, 3.0, 13)
            vals = [e_hinge_sq(0.7, c, noise) for c in cvals]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_general_form_convex_in_t(self):
        # t -> E(|G + t sigma N| - t eps)_+^2 has nonnegative second differences
        sigma, eps = 0.8, 0.5
        for noise in (GAUSS, MIX3):
            ts = np.linspace(0.0, 3.0, 31)
            vals = np.array([hinge_sq_mean(1.0, t * sigma, t * eps, noise) for t in ts])
            d2 = vals[:-2] - 2 * vals[1:-1] + vals[2:]
            assert np.all(d2 >= -1e-10)

    def test_node_doubling_stability(self):
        # abs_tol refines the production mixture rule; the node counts
        # (64 and 20 by default) refine the all-numeric cross-check path
        base = QuadratureSpec()
        fine = QuadratureSpec(abs_tol=1e-12)
        for noise in (MIX3, MIX10):
            for s, c in ((0.5, 0.3), (2.0, 1.0), (0.05, 2.0)):
                a = e_hinge_sq(s, c, noise, base)
                b = e_hinge_sq(s, c, noise, fine)
                assert abs(a - b) < base.abs_tol
                a2 = e_hinge_sq_quad2d(s, c, noise)
                b2 = e_hinge_sq_quad2d(s, c, noise, gauss_nodes=128, mixture_nodes=40)
                assert abs(a2 - b2) < base.abs_tol

    def test_scalar_gaussian_branches_match_the_array_forms(self):
        # the scalar-math Gaussian branches (and hinge_sq_mean's a = 0 branch
        # on a mixture) against the numpy closed forms of V ~ N(mu, s^2) at
        # mu = 0; c = 150 puts c/sd past 39 for every s, and Huber's
        # difference form H2(c) - H2(c + k) is checked down to k = 1e-9
        for s in (0.0, 0.3, 1.0, 3.0):
            sd = math.hypot(s, 1.0)
            for c in (0.0, 0.5, 2.0, 45.0, 150.0):
                for a in (0.0, 0.5, 2.0):
                    want = float(gauss_hinge_sq(0.0, math.hypot(s, a), c))
                    assert abs(hinge_sq_mean(s, a, c, GAUSS) - want) <= 1e-13
                    want = float(gauss_hinge_sq(0.0, s, c))
                    assert abs(hinge_sq_mean(s, 0.0, c, MIX3) - want) <= 1e-13
                want = float(gauss_hinge_abs(0.0, sd, c))
                assert abs(e_hinge_abs(s, c, GAUSS) - want) <= 1e-13
                for k in (1e-9, 1e-6, 0.1, 1.0, 10.0):
                    want = float(gauss_hinge_huber(0.0, sd, c, k))
                    assert abs(e_hinge_huber(s, c, k, GAUSS) - want) <= 1e-13
        assert hinge_sq_mean(0.0, 0.0, 0.7, GAUSS) == 0.0  # V = 0 exactly
        assert hinge_sq_mean(0.0, 0.0, 0.0, MIX3) == 0.0


class TestCrossCheckQuadrature:
    def test_2d_path_matches_closed_form(self):
        for s in (0.4, 1.0, 2.0):
            for c in (0.0, 0.6, 1.5):
                want = closed_form_hinge_sq(math.hypot(s, 1.0), c)
                got = e_hinge_sq_quad2d(s, c, GAUSS)
                assert got == pytest.approx(want, abs=1e-9)

    def test_2d_path_matches_mixture_production(self):
        for noise in (MIX3, MIX10):
            for s, c in ((0.5, 0.4), (1.5, 1.0), (0.05, 2.0)):
                a = e_hinge_sq(s, c, noise)
                b = e_hinge_sq_quad2d(s, c, noise)
                assert a == pytest.approx(b, abs=1e-8)


def _student_abs_mean(d):
    # E|N| for the Student-t with d degrees of freedom
    return 2.0 * math.sqrt(d) * math.exp(gammaln((d + 1) / 2) - gammaln(d / 2)) / (
        math.sqrt(math.pi) * (d - 1.0))


def _mixture_oracle(cond, poly, d, kinks, x_max):
    """E cond(N) for even cond, by conditioning on N = x.

    cond - poly -> 0 past x_max, with poly = (q0, q1, q2) the polynomial
    asymptote of cond; poly's part is integrated through the exact moments
    E|N| and E N^2 = d/(d-2), the rest by adaptive quadrature on [0, x_max]
    split at the kinks.
    """
    q0, q1, q2 = poly
    noise = scale_mixture(d)

    def integrand(x):
        return (float(cond(x)) - (q0 + q1 * x + q2 * x * x)) * noise_pdf(noise, x)

    pts = [p for p in kinks if 0.0 < p < x_max]
    body, _ = quad(integrand, 0.0, x_max, points=pts or None, limit=400,
                   epsabs=1e-13, epsrel=1e-13)
    return 2.0 * body + q0 + q1 * _student_abs_mean(d) + q2 * d / (d - 2.0)


def oracle_hinge_sq_mean(s, a, c, d):
    return _mixture_oracle(lambda x: gauss_hinge_sq(a * x, s, c),
                           (s * s + c * c, -2.0 * a * c, a * a), d,
                           (c / a,), (c + 40.0 * s) / a + 1.0)


def oracle_hinge_abs(s, c, d):
    return _mixture_oracle(lambda x: gauss_hinge_abs(x, s, c), (-c, 1.0, 0.0), d,
                           (c,), c + 40.0 * s + 1.0)


def oracle_hinge_huber(s, c, k, d):
    return _mixture_oracle(lambda x: gauss_hinge_huber(x, s, c, k),
                           (-k * c - 0.5 * k * k, k, 0.0), d,
                           (c, c + k), c + k + 40.0 * s + 1.0)


ORACLE_SC = ((0.0, 0.0), (0.0, 1.3), (0.05, 2.0), (0.7, 0.0), (1.5, 0.8), (3.0, 4.0))


class TestMixtureOracle:
    """Production mixture rule against the 1-D conditional-on-N oracle."""

    @pytest.mark.parametrize("d", [2.5, 3.0, 10.0, 200.0])
    def test_matches_1d_oracle(self, d):
        noise = scale_mixture(d)
        for s, c in ORACLE_SC:
            for a in (0.5, 2.5):
                assert hinge_sq_mean(s, a, c, noise) == pytest.approx(
                    oracle_hinge_sq_mean(s, a, c, d), abs=1e-9)
            assert e_hinge_abs(s, c, noise) == pytest.approx(
                oracle_hinge_abs(s, c, d), abs=1e-9)
            for k in (0.1, 1.0, 10.0):
                assert e_hinge_huber(s, c, k, noise) == pytest.approx(
                    oracle_hinge_huber(s, c, k, d), abs=1e-9)

    @pytest.mark.parametrize("d", [2.1, 2.01])
    def test_dof_near_two_within_abs_tol(self, d):
        # E N^2 = d/(d-2) blows up and the tau tail thins out only like
        # tau^(1 - d/2); the rule restores the missed E tau exactly, so
        # values stay within abs_tol of the oracle with a bounded rule
        noise = scale_mixture(d)
        tol = DEFAULT_QUAD.abs_tol
        for s, c in ORACLE_SC:
            assert hinge_sq_mean(s, 1.0, c, noise) == pytest.approx(
                oracle_hinge_sq_mean(s, 1.0, c, d), abs=tol)
            assert e_hinge_abs(s, c, noise) == pytest.approx(
                oracle_hinge_abs(s, c, d), abs=tol)
            for k in (0.1, 10.0):
                assert e_hinge_huber(s, c, k, noise) == pytest.approx(
                    oracle_hinge_huber(s, c, k, d), abs=tol)
        nodes = _mixing_rule(d, 1e-12).tau.size
        assert nodes <= 2 * _mixing_rule(3.0, 1e-12).tau.size

    def test_abs_tol_convergence(self):
        fine = QuadratureSpec(abs_tol=1e-12)
        for d in (2.5, 3.0, 10.0, 100.0):
            noise = scale_mixture(d)
            for s, c in ((0.0, 0.0), (0.5, 0.3), (2.0, 1.0), (0.05, 2.0)):
                pairs = [(hinge_sq_mean(s, a, c, noise), hinge_sq_mean(s, a, c, noise, fine))
                         for a in (1.0, 2.5)]
                pairs.append((e_hinge_abs(s, c, noise), e_hinge_abs(s, c, noise, fine)))
                pairs += [(e_hinge_huber(s, c, k, noise), e_hinge_huber(s, c, k, noise, fine))
                          for k in (0.1, 2.0)]
                for base, tight in pairs:
                    assert abs(base - tight) < 1e-9


def oracle_tail_prob(s, c, noise):
    """P(|sG + N| > c) by conditioning on N = x, adaptive quadrature over noise_pdf."""
    if s == 0.0:
        tail, _ = quad(lambda x: noise_pdf(noise, x), c, np.inf, epsabs=1e-14, epsrel=1e-13)
        return 2.0 * tail

    def integrand(x):  # even in x
        return (ndtr((x - c) / s) + ndtr((-c - x) / s)) * noise_pdf(noise, x)

    x_mid = c + 40.0 * s
    body, _ = quad(integrand, 0.0, x_mid, points=[c], limit=400, epsabs=1e-14, epsrel=1e-13)
    tail, _ = quad(integrand, x_mid, np.inf, epsabs=1e-14, epsrel=1e-13)
    return 2.0 * (body + tail)


TAIL_SC = ((0.0, 0.0), (0.0, 1.3), (0.05, 2.0), (0.7, 0.0), (1.5, 0.8), (3.0, 4.0), (0.4, 9.0))
TAIL_NOISES = [GAUSS, MIX3, MIX10]


class TestTailMoments:
    @pytest.mark.parametrize("noise", TAIL_NOISES, ids=["gauss", "d3", "d10"])
    def test_tail_prob_matches_quadrature_oracle(self, noise):
        for s, c in TAIL_SC:
            assert e_tail_prob(s, c, noise) == pytest.approx(
                oracle_tail_prob(s, c, noise), abs=1e-9)

    @pytest.mark.parametrize("noise", TAIL_NOISES, ids=["gauss", "d3", "d10"])
    def test_stein_identity_for_hinge_square(self, noise):
        # d/ds E(|sG + N| - c)_+^2 = 2 s P(|sG + N| > c)
        h = 1e-4
        for s, c in ((0.3, 0.5), (1.2, 0.0), (2.0, 2.5), (0.8, 6.0)):
            fd = (e_hinge_sq(s + h, c, noise) - e_hinge_sq(s - h, c, noise)) / (2.0 * h)
            assert fd == pytest.approx(2.0 * s * e_tail_prob(s, c, noise), abs=1e-7)

    @pytest.mark.parametrize("noise", TAIL_NOISES, ids=["gauss", "d3", "d10"])
    def test_tail_prob_is_minus_c_derivative_of_hinge(self, noise):
        h = 1e-4
        for s, c in ((0.3, 0.5), (1.2, 0.2), (2.0, 2.5), (0.0, 1.0), (0.8, 6.0)):
            fd = (e_hinge_abs(s, c - h, noise) - e_hinge_abs(s, c + h, noise)) / (2.0 * h)
            assert fd == pytest.approx(e_tail_prob(s, c, noise), abs=1e-7)

    def test_hinge_moments_match_the_hinge_functionals(self):
        for s, c in TAIL_SC:
            for noise in (MIX3, MIX10):  # the same vector pass: bit-identical
                _, h1, h2 = e_hinge_moments(s, c, noise)
                assert h1 == e_hinge_abs(s, c, noise)
                assert h2 == e_hinge_sq(s, c, noise)
            _, h1, h2 = e_hinge_moments(s, c, GAUSS)
            assert h1 == pytest.approx(e_hinge_abs(s, c, GAUSS), rel=1e-12, abs=1e-15)
            assert h2 == pytest.approx(e_hinge_sq(s, c, GAUSS), rel=1e-12, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            e_tail_prob(-0.1, 1.0, GAUSS)
        with pytest.raises(ValueError):
            e_hinge_moments(0.1, -1.0, MIX3)


class TestEvalCounter:
    def test_counts_each_public_functional_once(self):
        with count_expectations() as counter:
            e_hinge_sq(0.5, 0.2, MIX3)
            e_hinge_abs(0.5, 0.2, GAUSS)
            e_hinge_huber(0.5, 0.2, 1.0, GAUSS)
            soft_expectation(0.5, 0.1, 1.0, 2.0, 0.2, GAUSS)
            e_hinge_moments(0.5, 0.2, MIX10)
            e_tail_prob(0.5, 0.2, GAUSS)
        assert counter.n == 6

    def test_nested_blocks_add_to_the_enclosing_count(self):
        with count_expectations() as outer:
            e_hinge_sq(0.5, 0.2, GAUSS)
            with count_expectations() as inner:
                e_hinge_sq(0.5, 0.2, GAUSS)
                e_hinge_abs(0.5, 0.2, GAUSS)
            assert inner.n == 2
        assert outer.n == 3

    def test_no_count_outside_a_block(self):
        e_hinge_sq(0.5, 0.2, GAUSS)
        with count_expectations() as counter:
            pass
        assert counter.n == 0


class TestQuadratureSpec:
    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=1e-6)


class TestHingeAbs:
    def test_gaussian_closed_form(self):
        # E(|V| - c)_+ = 2 [s0 phi(a) - c Q(a)], a = c/s0
        from scipy.special import ndtr
        for s, c in ((0.5, 0.2), (1.0, 1.0)):
            s0 = math.hypot(s, 1.0)
            a = c / s0
            want = 2 * (s0 * math.exp(-a * a / 2) / math.sqrt(2 * math.pi)
                        - c * ndtr(-a))
            assert e_hinge_abs(s, c, GAUSS) == pytest.approx(want, rel=1e-12)

    def test_mixture_against_monte_carlo(self):
        rng = np.random.default_rng(17)
        n = 2_000_000
        d = 5.0
        noise = np.sqrt(d / rng.chisquare(d, n)) * rng.standard_normal(n)
        g = rng.standard_normal(n)
        v = np.maximum(np.abs(0.9 * g + noise) - 0.4, 0.0)
        se = v.std(ddof=1) / math.sqrt(n)
        assert e_hinge_abs(0.9, 0.4, scale_mixture(d)) == pytest.approx(v.mean(), abs=4 * se)


class TestSoftExpectation:
    def test_domain_errors(self):
        with pytest.raises(ValueError):
            soft_expectation(1.0, 0.0, 0.0, 1.0, 0.1, GAUSS)
        with pytest.raises(ValueError):
            soft_expectation(1.0, 0.0, 1.0, -2.0, 0.1, GAUSS)
        with pytest.raises(ValueError):
            soft_expectation(0.0, 0.0, 1.0, 1.0, 0.1, GAUSS)

    def test_monte_carlo_oracle(self):
        # frozen MC oracle (1e7 samples, seed 12345): 0.720491 +- 0.000242
        got = soft_expectation(1.0, 0.0, 1.0, 1.0, 0.0, GAUSS)
        assert got == pytest.approx(0.720491, abs=3 * 0.000242)

    def test_diverging_branch_threshold_kills_linear_branch(self):
        # as the branch threshold g1*C/chi grows (chi -> 0 at fixed scale),
        # the linear-branch probability P(h chi > g1 C) -> 0 and the
        # expectation collapses onto the pure quadratic branch chi/(2g1) E h^2
        from scipy.special import ndtr
        g1, g2, cost, thr = 1.0, 0.5, 1.0, 0.3
        s = math.hypot(g1, g2)
        s0 = math.hypot(s, 1.0)
        for chi in (0.05, 0.005):
            k = g1 * cost / chi
            p_linear = 2 * ndtr(-(thr + k) / s0)
            assert p_linear < 1e-12
            full_quad = chi / (2 * g1) * e_hinge_sq(s, thr, GAUSS)
            got = soft_expectation(g1, g2, chi, cost, thr, GAUSS)
            assert got == pytest.approx(full_quad, rel=1e-10)

    def test_huge_threshold_vanishes(self):
        got = soft_expectation(1.0, 0.5, 1.0, 1.0, 1e3, GAUSS)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_kink_straddling_node_doubling(self):
        base = QuadratureSpec()
        fine = QuadratureSpec(abs_tol=1e-12)
        for noise in (MIX3, GAUSS):
            a = soft_expectation(0.7, 0.4, 1.3, 2.0, 0.6, noise, base)
            b = soft_expectation(0.7, 0.4, 1.3, 2.0, 0.6, noise, fine)
            assert abs(a - b) < base.abs_tol

    def test_huber_is_continuous_at_branch(self):
        # value at k matches both branch formulas
        for k in (0.3, 2.0):
            lo = e_hinge_huber(1.0, 0.5, k - 1e-9, GAUSS)
            hi = e_hinge_huber(1.0, 0.5, k + 1e-9, GAUSS)
            assert lo == pytest.approx(hi, abs=1e-8)


class TestLemmaMaxValue:
    def test_examples(self):
        assert lemma_max_value([2.0, -2.0], 1.0, 1.0) == pytest.approx(math.sqrt(2.0), abs=1e-9)
        assert lemma_max_value([0.5, 0.3], 3.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            lemma_max_value([1.0], 0.0, 0.5)

    def test_matches_sphere_maximization_oracle(self):
        # independent oracle: flipping u_i to sign(a_i)|u_i| never lowers
        # u.a - eps||u||_1, so maximize the smooth reduced program
        # sum t_i (|a_i| - eps) over t >= 0 with SLSQP restarts.  The ball
        # ||t|| <= m is used rather than the sphere: when every |a_i| <= eps
        # the clipped value is 0, attained at t = 0, which the sphere
        # excludes; everywhere else the optimum sits on the boundary.
        rng = np.random.default_rng(100)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            a = rng.normal(size=n) * rng.uniform(0.5, 3.0)
            m = float(rng.uniform(0.2, 3.0))
            eps = float(rng.uniform(0.0, 1.5))
            want = lemma_max_value(a, m, eps)
            coef = np.abs(a) - eps
            best = 0.0
            for _ in range(6):
                t0 = rng.uniform(0.1, 1.0, size=n)
                t0 *= m / np.linalg.norm(t0)
                res = minimize(
                    lambda t: -(coef @ t), t0, method="SLSQP",
                    bounds=[(0.0, None)] * n,
                    constraints=[{"type": "ineq",
                                  "fun": lambda t: m * m - t @ t}],
                    options={"maxiter": 400, "ftol": 1e-12})
                t = np.maximum(res.x, 0.0)
                norm = np.linalg.norm(t)
                if norm > m:
                    t *= m / norm
                best = max(best, float(coef @ t))
            assert want >= best - 1e-6
            assert want == pytest.approx(best, abs=1e-6)


class TestBoxedMaxValue:
    def test_beta_zero_branch(self):
        assert boxed_max_value([1.0, 1.0], 0.0, 2.0) == pytest.approx(4.0)

    def test_zero_hinges(self):
        assert boxed_max_value([0.0, 0.0], 1.0, 1.0) == 0.0

    def test_matches_box_maximization_oracle(self):
        rng = np.random.default_rng(200)
        for _ in range(100):
            n = rng.integers(1, 7)
            b = np.maximum(rng.normal(size=n), 0.0) * rng.uniform(0.3, 2.0)
            beta = rng.uniform(0.05, 2.0)
            tau = rng.uniform(0.2, 2.5)
            want = boxed_max_value(b, beta, tau)
            # direct maximization of sum b_i u_i - beta ||u|| over [0, tau]^n
            # (optimum has u_i >= 0 since b_i >= 0)
            def neg(u):
                return -(b @ u - beta * np.linalg.norm(u))
            best = 0.0
            for _ in range(8):
                u0 = rng.uniform(0.0, tau, size=n)
                res = minimize(neg, u0, method="L-BFGS-B",
                               bounds=[(0.0, tau)] * n)
                best = max(best, -res.fun)
            assert want == pytest.approx(best, abs=1e-6)

    def test_chi_objective_concave(self):
        rng = np.random.default_rng(300)
        chis = np.linspace(0.05, 8.0, 60)
        for _ in range(20):
            n = rng.integers(1, 6)
            b = np.abs(rng.normal(size=n))
            beta = rng.uniform(0.1, 2.0)
            tau = rng.uniform(0.2, 2.0)
            vals = np.array([boxed_max_chi_objective(b, beta, tau, c) for c in chis])
            d2 = vals[:-2] - 2 * vals[1:-1] + vals[2:]
            assert np.all(d2 <= 1e-9)
