"""Shared independent oracles for the solver and acceptance tests."""

import math

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.special import ndtr

from svrisk.asymptotics import (
    AsymptoticSolution,
    _cosine_limit,
    _dbar_g1_zero,
    d_value,
    dbar_value,
    delta_star,
)
from svrisk.expectations import DEFAULT_QUAD
from svrisk.scalar_opt import bisect_root, golden_section_min

_G1_CAP = 1e6


def closed_form_hinge_sq(s0, c):
    """E(|V| - c)_+^2 for V ~ N(0, s0^2) through the normal cdf."""
    if s0 == 0.0:
        return 0.0
    a = c / s0
    q = ndtr(-a)
    ph = math.exp(-a * a / 2) / math.sqrt(2 * math.pi)
    return 2 * ((s0 * s0 + c * c) * q - s0 * c * ph)


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


def sup_chi_golden(g1, g2, prob, quad, chi_hint=1.0, log_tol=1e-6):
    """sup over chi of Dbar by golden search in log chi on an expanded bracket.

    The nested-golden reference for ``svrisk.asymptotics._sup_chi``.
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
