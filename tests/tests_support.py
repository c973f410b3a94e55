"""Shared independent oracles for the solver and acceptance tests."""

import math
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.special import gammaln, ndtr, stdtr

from svrisk.asymptotics import (
    _HSVR_XTOL,
    AsymptoticSolution,
    HsvrProblem,
    SsvrProblem,
    _chi_level,
    _cosine_limit,
    _dbar_g1_zero,
    _g1_edge,
    delta_star,
)
from svrisk.expectations import (
    DEFAULT_QUAD,
    _count,
    _gauss0_hinge_sq,
    _gauss0_scalar,
    _h2_from,
    _mixing_rule,
    e_hinge_sq,
)
from svrisk.noise import GAUSSIAN, NoiseModel
from svrisk.scalar_opt import brent_root, golden_section_min

_G1_CAP = 1e6


def closed_form_hinge_sq(s0, c):
    """E(|V| - c)_+^2 for V ~ N(0, s0^2) through the normal cdf."""
    if s0 == 0.0:
        return 0.0
    a = c / s0
    q = ndtr(-a)
    ph = math.exp(-a * a / 2) / math.sqrt(2 * math.pi)
    return 2 * ((s0 * s0 + c * c) * q - s0 * c * ph)


# ---------------------------------------------------------------------------
# Functions that no production path calls, kept here as oracles and as the
# definitions the tests check: the noise density and cdf, the Huber
# functional and the soft saddle function Dbar, the hard constraint D,
# two deterministic max-value formulas, and the bisection and golden-max
# searches.
# ---------------------------------------------------------------------------

def golden_section_max(f, lo, hi, tol=1e-10, max_iter=400):
    """Maximize a unimodal ``f`` on [lo, hi]; returns (x, f(x))."""
    x, fneg = golden_section_min(lambda t: -f(t), lo, hi, tol=tol, max_iter=max_iter)
    return x, -fneg


def bisect_root(f, lo, hi, f_lo=None, f_hi=None, tol=1e-13, max_iter=200):
    """Root of ``f`` on [lo, hi] by bisection; f(lo), f(hi) must differ in sign.

    Tolerance is absolute on the interval width with a small relative floor.
    """
    a, b = float(lo), float(hi)
    fa = f(a) if f_lo is None else f_lo
    fb = f(b) if f_hi is None else f_hi
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError("bisect_root: no sign change on the bracket")
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        if (b - a) <= tol + 1e-15 * (abs(a) + abs(b)):
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def noise_pdf(model: NoiseModel, x):
    """Density of the noise at ``x`` (scalar or array).

    The scale-mixture density is the Student-t density with ``dof``
    degrees of freedom (the mixing variable integrates out).
    """
    x = np.asarray(x, dtype=float)
    if model.kind == GAUSSIAN:
        out = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    else:
        d = model.dof
        log_norm = gammaln((d + 1.0) / 2.0) - gammaln(d / 2.0) - 0.5 * np.log(d * np.pi)
        out = np.exp(log_norm - 0.5 * (d + 1.0) * np.log1p(x * x / d))
    return out if out.ndim else float(out)


def noise_cdf(model: NoiseModel, x):
    """Cumulative distribution of the noise at ``x`` (scalar or array)."""
    x = np.asarray(x, dtype=float)
    if model.kind == GAUSSIAN:
        out = ndtr(x)
    else:
        out = stdtr(model.dof, x)
    return out if out.ndim else float(out)


def e_hinge_huber(s, c, k, noise, quad=DEFAULT_QUAD):
    """E rho_k((|s*G + N| - c)_+) with rho_k the Huber function."""
    s, c, k = float(s), float(c), float(k)
    if s < 0 or c < 0 or k < 0:
        raise ValueError("s, c, k must be nonnegative")
    _count()
    # rho_k(h) = h^2/2 - (h - k)_+^2/2, so E rho_k(h) = (H2(c) - H2(c+k))/2
    if noise.is_gaussian:
        sd = math.hypot(s, 1.0)
        return 0.5 * (_h2_from(sd, c, *_gauss0_scalar(sd, c))
                      - _h2_from(sd, c + k, *_gauss0_scalar(sd, c + k)))
    # on the mixture the s^2 + tau asymptotes of the two terms cancel
    rule = _mixing_rule(noise.dof, quad.abs_tol)
    sd = np.sqrt(s * s + rule.tau)
    return 0.5 * float(rule.w @ (_gauss0_hinge_sq(sd, c) - _gauss0_hinge_sq(sd, c + k)))


def soft_expectation(g1, g2, chi, cost, thr, noise, quad=DEFAULT_QUAD):
    """Expectation block of the soft-margin saddle function.

    Equals E{ C[(h - C*g1/(2 chi)] 1{h chi > g1 C} + chi/(2 g1) h^2
    1{h chi <= g1 C} } with h = (|sqrt(g1^2+g2^2) G + N| - thr)_+, which
    collapses to (chi/g1) * E rho_k(h) for the Huber threshold
    k = g1*C/chi.
    """
    if chi <= 0.0 or cost <= 0.0:
        raise ValueError("chi and cost must be positive")
    if g1 <= 0.0:
        raise ValueError("g1 must be positive (the g1 = 0 branch is separate)")
    k = g1 * cost / chi
    s = math.hypot(g1, g2)
    return (chi / g1) * e_hinge_huber(s, thr, k, noise, quad)


def d_value(g1, g2, prob: HsvrProblem, quad=DEFAULT_QUAD):
    """Constraint function D(g1, g2); the feasible region is {D <= 0}.

    Jointly convex, even in g2, and D(0, g2) >= 0 for every g2.
    """
    s = math.hypot(g1, g2)
    c = prob.eps / prob.sigma
    return math.sqrt(prob.delta) * math.sqrt(
        max(e_hinge_sq(s, c, prob.noise, quad), 0.0)
    ) - g1


def dbar_value(g1, g2, chi, prob: SsvrProblem, quad=DEFAULT_QUAD):
    """Saddle function of the soft problem at (g1 > 0, g2, chi > 0).

    Concave in chi for fixed (g1, g2); its sup over chi is jointly convex
    in (g1, g2).  The g1 = 0 slice is handled by ``_dbar_g1_zero``.
    """
    if chi <= 0.0:
        raise ValueError("chi must be positive")
    if g1 <= 0.0:
        raise ValueError("g1 must be positive; use the g1 = 0 branch")
    sigma = prob.sigma
    thr = prob.eps / sigma
    b = prob.beta / sigma
    expect = soft_expectation(g1, g2, chi, prob.cost, thr, prob.noise, quad)
    return (prob.delta / sigma) * expect - g1 * chi / (2.0 * sigma) \
        + 0.5 * g1 * g1 + 0.5 * (g2 - b) ** 2


def lemma_max_value(a, m, eps):
    """max over {||u||_2 = m} of u.a - eps*||u||_1  =  m * sqrt(sum (|a_i|-eps)_+^2)."""
    if m <= 0.0:
        raise ValueError("m must be strictly positive")
    a = np.asarray(a, dtype=float)
    return float(m * np.sqrt(np.sum(np.maximum(np.abs(a) - eps, 0.0) ** 2)))


def boxed_max_chi_objective(b, beta, tau, chi):
    """The concave chi-parameterization of the box-constrained maximum.

    psi(chi) = sum_i [ b_i^2 chi / (2 beta)            if b_i chi / beta <= tau
                       b_i tau - beta tau^2 / (2 chi)  otherwise ] - beta chi / 2
    """
    if chi <= 0.0:
        raise ValueError("chi must be positive")
    if beta <= 0.0:
        raise ValueError("chi-form requires beta > 0")
    b = np.asarray(b, dtype=float)
    small = b * chi / beta <= tau
    terms = np.where(small, b * b * chi / (2.0 * beta), b * tau - beta * tau * tau / (2.0 * chi))
    return float(np.sum(terms) - 0.5 * beta * chi)


def boxed_max_value(b, beta, tau):
    """max over {|u_i| <= tau} of sum b_i |u_i| - beta * ||u||_2.

    For beta = 0 the maximum is tau * sum b_i; for beta > 0 it equals the
    supremum over chi > 0 of ``boxed_max_chi_objective`` (concave in chi),
    located here by expanding golden-section search.
    """
    if tau <= 0.0:
        raise ValueError("tau must be strictly positive")
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    b = np.asarray(b, dtype=float)
    if np.any(b < 0.0):
        raise ValueError("b entries must be nonnegative")
    if beta == 0.0:
        return float(tau * np.sum(b))
    if not np.any(b > 0.0):
        return 0.0

    def psi(chi):
        return boxed_max_chi_objective(b, beta, tau, chi)

    lo, hi = 1e-8, 1.0
    while psi(hi) >= psi(hi / 2.0) and hi < 1e14:
        hi *= 4.0
    _, val = golden_section_max(psi, lo, hi, tol=1e-12 * hi)
    return float(max(val, 0.0))


# Closed forms for V ~ N(mu, s^2) with mu an array and s, c, k scalars,
# computed with numpy ufuncs; the oracles for the scalar Gaussian branches of
# the production functionals and, conditioned on N = x, for the mixture.

_ZMAX = 39.0  # beyond this phi underflows to exactly 0.0 in float64


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _clip(z):
    return np.clip(z, -_ZMAX, _ZMAX)


def gauss_hinge_sq(mu, s, c):
    """E (|V| - c)_+^2 for V ~ N(mu, s^2)."""
    mu = np.asarray(mu, dtype=float)
    if s == 0.0:
        return np.maximum(np.abs(mu) - c, 0.0) ** 2
    za = _clip((c - mu) / s)
    i0 = ndtr(-za)
    e1 = _phi(za)
    e2 = i0 + za * e1
    m = mu - c
    p1 = m * m * i0 + 2.0 * m * s * e1 + s * s * e2

    zb = _clip((-c - mu) / s)
    i0 = ndtr(zb)
    pb = _phi(zb)
    e2 = i0 - zb * pb
    m = mu + c
    p2 = m * m * i0 - 2.0 * m * s * pb + s * s * e2
    return p1 + p2


def gauss_hinge_abs(mu, s, c):
    """E (|V| - c)_+ for V ~ N(mu, s^2)."""
    mu = np.asarray(mu, dtype=float)
    if s == 0.0:
        return np.maximum(np.abs(mu) - c, 0.0)
    za = _clip((c - mu) / s)
    p1 = (mu - c) * ndtr(-za) + s * _phi(za)
    zb = _clip((-c - mu) / s)
    p2 = -(mu + c) * ndtr(zb) + s * _phi(zb)
    return p1 + p2


def gauss_hinge_huber(mu, s, c, k):
    """E rho_k((|V| - c)_+) for V ~ N(mu, s^2), rho_k the Huber function."""
    mu = np.asarray(mu, dtype=float)
    if s == 0.0:
        h = np.maximum(np.abs(mu) - c, 0.0)
        return np.where(h <= k, 0.5 * h * h, k * h - 0.5 * k * k)
    za = _clip((c - mu) / s)
    zb = _clip((c + k - mu) / s)
    pa, pb = _phi(za), _phi(zb)
    i0 = ndtr(zb) - ndtr(za)
    e1 = pa - pb
    e2 = i0 + za * pa - zb * pb
    m = mu - c
    quad_pos = 0.5 * (m * m * i0 + 2.0 * m * s * e1 + s * s * e2)
    i0t = ndtr(-zb)
    lin_pos = k * (m * i0t + s * pb) - 0.5 * k * k * i0t

    za2 = _clip((-c - k - mu) / s)
    zb2 = _clip((-c - mu) / s)
    pa2, pb2 = _phi(za2), _phi(zb2)
    i0 = ndtr(zb2) - ndtr(za2)
    e1 = pa2 - pb2
    e2 = i0 + za2 * pa2 - zb2 * pb2
    m2 = mu + c
    quad_neg = 0.5 * (m2 * m2 * i0 + 2.0 * m2 * s * e1 + s * s * e2)
    i0t = ndtr(za2)
    lin_neg = -k * (m2 * i0t - s * pa2) - 0.5 * k * k * i0t
    return quad_pos + lin_pos + quad_neg + lin_neg


# All-numeric hinge-square: both the G and the noise direction integrated by
# Gauss-Legendre panels, with analytic Student-t tails.  It shares no code
# with the production mixture rule, which makes it the independent oracle.

_ZTAIL = 16.0  # conditional == asymptote to ~exp(-128) past this many sigmas


def _student_norm_const(d):
    return math.exp(gammaln((d + 1.0) / 2.0) - gammaln(d / 2.0)) / math.sqrt(d * math.pi)


def student_tail_moments(dof, x):
    """(m0, m1, m2) = integrals of (1, t, t^2) * pdf_t over [x, inf), x >= 0.

    Requires dof > 2; m2 uses the reduction to a Student-t with dof-2.
    """
    d = float(dof)
    m0 = float(stdtr(d, -x))
    a_d = _student_norm_const(d)
    m1 = a_d * d / (d - 1.0) * (1.0 + x * x / d) ** (-(d - 1.0) / 2.0)
    dp = d - 2.0
    a_dp = _student_norm_const(dp)
    m2 = d * ((a_d / a_dp) * math.sqrt(d / dp) * float(stdtr(dp, -x * math.sqrt(dp / d))) - m0)
    return m0, m1, m2


@lru_cache(maxsize=32)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _half_line_breaks(x_cut, landmarks, width, scale):
    """Panel endpoints on [0, x_cut]: kink fans plus a geometric ladder."""
    if x_cut <= 0.0:
        return np.empty(0)
    pts = {0.0, x_cut}
    for lm in landmarks:
        if 0.0 < lm < x_cut:
            pts.add(lm)
        if width > 0.0:
            off = width
            for _ in range(48):
                if off >= x_cut:
                    break
                for q in (lm - off, lm + off):
                    if 0.0 < q < x_cut:
                        pts.add(q)
                off *= 4.0
    g = 0.5 * scale
    while g < x_cut:
        pts.add(g)
        g *= 2.0
    raw = np.array(sorted(pts))
    keep = [raw[0]]
    for v in raw[1:]:
        if v - keep[-1] > 1e-13 * max(1.0, x_cut):
            keep.append(v)
    keep[-1] = x_cut
    # cap panel width: absolute floor ~scale/2, relative growth ~60% of position
    out = [keep[0]]
    for hi in keep[1:]:
        lo = out[-1]
        hmax = max(0.5 * scale, 0.6 * max(lo, 0.25 * scale))
        nsub = min(int(math.ceil((hi - lo) / hmax)), 24)
        for j in range(1, nsub):
            out.append(lo + (hi - lo) * j / nsub)
        out.append(hi)
    return np.array(out)


def _panel_grid(breaks, n):
    xi, wi = _leggauss(n)
    lo = breaks[:-1]
    hi = breaks[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    w = (half[:, None] * wi[None, :]).ravel()
    return x, w


def _mixture_expect(cond, noise, x_cut, landmarks, width, tail_coeffs, nodes):
    """2 * (int_0^x_cut pdf_t(x) cond(x) dx + polynomial tail), cond even in x."""
    d = noise.dof
    scale = math.sqrt(d / (d - 2.0))
    total = 0.0
    if x_cut > 0.0:
        breaks = _half_line_breaks(x_cut, landmarks, width, scale)
        x, w = _panel_grid(breaks, nodes)
        total += float(np.dot(w * noise_pdf(noise, x), cond(x)))
    q0, q1, q2 = tail_coeffs
    m0, m1, m2 = student_tail_moments(d, max(x_cut, 0.0))
    total += q0 * m0 + q1 * m1 + q2 * m2
    return 2.0 * total


def _cond_hinge_sq_numeric(mu, s, c, nodes):
    """Inner integral over G by kink-split Gauss-Legendre panels."""
    zr = 10.0
    kinks = sorted({(-c - mu) / s, (c - mu) / s})
    breaks = [-zr]
    for kz in kinks:
        if -zr < kz < zr:
            breaks.append(kz)
    breaks.append(zr)
    total = 0.0
    xi, wi = _leggauss(nodes)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        z = mid + half * xi
        v = mu + s * z
        total += half * float(np.dot(wi, np.maximum(np.abs(v) - c, 0.0) ** 2 * _phi(z)))
    return total


def e_hinge_sq_quad2d(s, c, noise, gauss_nodes=64, mixture_nodes=20):
    """E (|s*G + N| - c)_+^2 with both integrals done numerically.

    Cross-check for ``svrisk.e_hinge_sq``: Gauss-Legendre panels with
    ``gauss_nodes`` nodes each in the G direction, split at the hinge kinks,
    inside panels with ``mixture_nodes`` nodes each on a kink-aware grid in
    the noise direction.
    """
    s, c = float(s), float(c)
    if s == 0.0:
        return e_hinge_sq(s, c, noise)

    def cond(xs):
        return np.array([_cond_hinge_sq_numeric(x, s, c, gauss_nodes)
                         for x in np.atleast_1d(xs)])

    if noise.is_gaussian:
        x_cut = c + 12.0 * s + 12.0
        breaks = _half_line_breaks(x_cut, (c,), s, 1.0)
        x, w = _panel_grid(breaks, mixture_nodes)
        central = float(np.dot(w * _phi(x), cond(x)))
        m0 = float(ndtr(-x_cut))
        m1 = float(_phi(x_cut))
        m2 = m0 + x_cut * m1
        q0, q1, q2 = s * s + c * c, -2.0 * c, 1.0
        return 2.0 * (central + q0 * m0 + q1 * m1 + q2 * m2)
    x_cut = c + _ZTAIL * s
    tail = (s * s + c * c, -2.0 * c, 1.0)
    return _mixture_expect(cond, noise, x_cut, (c,), s, tail, mixture_nodes)


def primal_hard_oracle(x, y, eps):
    """Generic solver for min ||w||^2/2 s.t. |y - X'w| <= eps (SLSQP)."""
    p, n = x.shape
    cons = [{"type": "ineq", "fun": lambda w, i=i: eps - (y[i] - x[:, i] @ w)}
            for i in range(n)]
    cons += [{"type": "ineq", "fun": lambda w, i=i: eps + (y[i] - x[:, i] @ w)}
             for i in range(n)]
    w0 = np.linalg.lstsq(x.T, y, rcond=None)[0]
    res = minimize(lambda w: 0.5 * w @ w, w0, jac=lambda w: w, method="SLSQP",
                   constraints=cons, options={"maxiter": 600, "ftol": 1e-14})
    return res.x


def primal_soft_oracle(x, y, eps, cost):
    """Slack reformulation of the soft objective solved by SLSQP."""
    p, n = x.shape

    def unpack(z):
        return z[:p], z[p:]

    def fun(z):
        w, xi = unpack(z)
        return 0.5 * w @ w + cost / p * xi.sum()

    cons = []
    for i in range(n):
        cons.append({"type": "ineq",
                     "fun": lambda z, i=i: eps + unpack(z)[1][i]
                     - (y[i] - x[:, i] @ unpack(z)[0])})
        cons.append({"type": "ineq",
                     "fun": lambda z, i=i: eps + unpack(z)[1][i]
                     + (y[i] - x[:, i] @ unpack(z)[0])})
    bounds = [(None, None)] * p + [(0.0, None)] * n
    z0 = np.zeros(p + n)
    z0[p:] = np.maximum(np.abs(y) - eps, 0.0)
    res = minimize(fun, z0, method="SLSQP", bounds=bounds, constraints=cons,
                   options={"maxiter": 800, "ftol": 1e-14})
    return res.x[:p]


def lp_feasible(x, y, eps):
    """LP certificate: does any w satisfy |y - X'w| <= eps?"""
    p, n = x.shape
    a_ub = np.zeros((2 * n, p + 1))
    b_ub = np.zeros(2 * n)
    a_ub[:n, :p] = -x.T
    a_ub[:n, p] = -1.0
    b_ub[:n] = -y
    a_ub[n:, :p] = x.T
    a_ub[n:, p] = -1.0
    b_ub[n:] = y
    c = np.zeros(p + 1)
    c[p] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (p + 1),
                  method="highs")
    return res.status == 0 and res.x[p] <= eps + 1e-9


def sup_chi(g1, g2, prob, quad, chi_hint=1.0, log_tol=1e-6):
    """(chi*, sup over chi of Dbar) at fixed (g1 > 0, g2).

    The first-order condition in chi solved by ``svrisk.asymptotics._chi_level``
    (which ``ssvr_risk`` calls directly), returned as a (chi, value) pair;
    chi* = 0 on the hard-feasible slice.  ``log_tol`` is the tolerance on
    log chi*.
    """
    lvl = _chi_level(g1, g2, prob, quad, g1 * prob.cost / chi_hint, log_tol)
    return g1 * prob.cost / lvl.k, lvl.value


def sup_chi_golden(g1, g2, prob, quad, chi_hint=1.0, log_tol=1e-6):
    """sup over chi of Dbar by golden search in log chi on an expanded bracket.

    The nested-golden reference for ``sup_chi``.
    """

    def f(chi):
        return dbar_value(g1, g2, chi, prob, quad)

    lo = max(chi_hint / 64.0, 1e-9)
    hi = chi_hint * 64.0
    f_lo, f_mid, f_hi = f(lo), f(chi_hint), f(hi)
    while f_hi >= f_mid and hi < 1e15:
        lo, f_lo = chi_hint, f_mid
        chi_hint, f_mid = hi, f_hi
        hi *= 64.0
        f_hi = f(hi)
    while f_lo >= f_mid and lo > 1e-15:
        hi, f_hi = chi_hint, f_mid
        chi_hint, f_mid = lo, f_lo
        lo /= 64.0
        f_lo = f(lo)
    # golden search in log-chi (concavity in chi implies unimodality here)
    llo, lhi = math.log(lo), math.log(hi)
    lx, val = golden_section_min(lambda t: -f(math.exp(t)), llo, lhi, tol=log_tol)
    return math.exp(lx), -val


def ssvr_risk_golden(prob, quad=DEFAULT_QUAD, tol=1e-8):
    """Soft-SVR risk (g1, g2, risk) by three nested golden searches.

    The reference for ``svrisk.ssvr_risk``: the convex g1-slice of
    V(g1, g2) = sup_chi Dbar is minimized fully (bracket expanded
    geometrically, g1 = 0 by its exact branch) inside a golden search over
    g2 in [0, beta/sigma], and the sup over chi is ``sup_chi_golden``.
    """
    b = prob.beta / prob.sigma
    chi_memo = {"chi": 1.0}
    sup_tol = min(max(0.1 * math.sqrt(tol), 1e-6), 1e-3)

    def value(g1, g2):
        if g1 <= 0.0:
            return _dbar_g1_zero(g2, prob, quad)
        chi, val = sup_chi_golden(g1, g2, prob, quad, chi_hint=chi_memo["chi"],
                                  log_tol=sup_tol)
        chi_memo["chi"] = chi
        return val

    g1_memo = {"g1": 1.0}

    def inner_min(g2):
        def f(g1):
            return value(g1, g2)

        hi = max(2.0 * g1_memo["g1"], 0.5)
        f_half, f_hi = f(hi / 2.0), f(hi)
        while f_hi <= f_half and hi < 1e6:
            hi *= 2.0
            f_half, f_hi = f_hi, f(hi)
        g1, v = golden_section_min(f, 0.0, hi, tol=tol * max(1.0, hi / 4.0))
        v0 = value(0.0, g2)
        if v0 < v:
            g1, v = 0.0, v0
        else:
            g1_memo["g1"] = max(g1, 1e-3)
        return g1, v

    g2o, _ = golden_section_min(lambda g2: inner_min(g2)[1], 0.0, b, tol=tol * max(1.0, b))
    g1o, v_opt = inner_min(g2o)
    return g1o, g2o, prob.sigma ** 2 * (g1o ** 2 + g2o ** 2), v_opt


def g1_lower_edge_golden(prob, g2, quad):
    """Smallest feasible g1 at fixed g2, or None if the g2-slice is infeasible.

    D(., g2) is convex with D(0, g2) >= 0: minimize it (expanding the
    bracket geometrically), then bisect for the left root.
    """

    def f(g1):
        return d_value(g1, g2, prob, quad)

    f0 = f(0.0)
    if f0 <= 0.0:
        return 0.0
    hi = 1.0
    f_half = f(0.5)
    f_hi = f(hi)
    while f_hi <= f_half and f_hi > 0.0 and hi < _G1_CAP:
        hi *= 2.0
        f_half = f_hi
        f_hi = f(hi)
    if f_hi > 0.0:
        g1m, fm = golden_section_min(f, 0.0, hi, tol=1e-12 * max(1.0, hi))
        if fm > 0.0:
            return None
        hi = g1m
        f_hi = fm
    return bisect_root(f, 0.0, hi, f_lo=f0, f_hi=f_hi, tol=1e-13 * max(1.0, hi))


def hsvr_risk_golden(prob, quad=DEFAULT_QUAD):
    """Hard-SVR risk by a golden search over g2 around a bisected g1 edge.

    The reference for ``svrisk.hsvr_risk``: the smallest feasible g1 at each
    g2 (``g1_lower_edge_golden``) inside a golden search over g2 in
    [0, beta/sigma], restricted to the sub-interval where a feasible g1
    exists.  Its golden search stops ~sqrt(machine eps) short of the
    optimum, 1.5-3.6e-5 relative in the risk.
    """
    dstar = delta_star(prob.eps, prob.sigma, prob.noise, quad)
    if not prob.delta < dstar:
        return AsymptoticSolution(None, None, None, None, False,
                                  diagnostics={"delta_star": dstar})
    b = prob.beta / prob.sigma

    def lower_edge(g2):
        return g1_lower_edge_golden(prob, g2, quad)

    g2_hi = b
    if lower_edge(b) is None:
        # feasible g2 range shrinks near the threshold; bisect its edge
        g2_hi = bisect_root(
            lambda g2: -1.0 if lower_edge(g2) is not None else 1.0,
            0.0, b, f_lo=-1.0, f_hi=1.0, tol=1e-12 * max(1.0, b))
        g2_hi = max(g2_hi * (1.0 - 1e-9) - 1e-15, 0.0)
        while lower_edge(g2_hi) is None and g2_hi > 0.0:
            g2_hi *= 0.999

    def objective(g2):
        g1 = lower_edge(g2)
        if g1 is None:
            return math.inf
        return 0.5 * g1 * g1 + 0.5 * (g2 - b) ** 2

    g2_opt, _ = golden_section_min(objective, 0.0, g2_hi, tol=1e-10 * max(1.0, b))
    g1_opt = lower_edge(g2_opt)
    if g1_opt is None:  # numerical edge: fall back to the certified endpoint
        g2_opt = 0.0
        g1_opt = lower_edge(0.0)
    risk = prob.sigma ** 2 * (g1_opt ** 2 + g2_opt ** 2)
    return AsymptoticSolution(
        g1=g1_opt, g2=g2_opt, risk=risk,
        cosine=_cosine_limit(g1_opt, g2_opt, b),
        feasible=True,
        diagnostics={
            "delta_star": dstar,
            "d_residual": d_value(g1_opt, g2_opt, prob, quad),
        },
    )


def hsvr_risk_gated(prob, quad=DEFAULT_QUAD):
    """(feasible, risk) of the hard SVR with feasibility gated by ``delta_star``.

    The reference for the feasibility rule of ``svrisk.hsvr_risk``: the
    problem counts as feasible only when delta < delta_star(eps, sigma)
    (a golden search over t) and the g2 = 0 slice has a Newton edge; the
    risk then comes from the same KKT solve as in ``hsvr_risk``, the edge
    ``_g1_edge`` inside a Brent root of the g2 fixed point.
    """
    if not prob.delta < delta_star(prob.eps, prob.sigma, prob.noise, quad):
        return False, None
    b = prob.beta / prob.sigma
    edges = {}

    def residual(g2):
        edges[g2] = edge = _g1_edge(prob, g2, quad)
        if edge is None:
            return 1.0
        return g2 - b * (1.0 - prob.delta * edge[1])

    f0 = residual(0.0)
    if edges[0.0] is None:
        return False, None
    g2 = 0.0
    if f0 < 0.0:
        g2 = brent_root(residual, 0.0, b, f_lo=f0, xtol=_HSVR_XTOL * max(1.0, b))
    g1 = edges[g2][0]
    return True, prob.sigma ** 2 * (g1 ** 2 + g2 ** 2)
