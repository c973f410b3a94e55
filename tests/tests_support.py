"""Shared independent oracles for the solver and acceptance tests."""

import math

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.special import ndtr

from svrisk.asymptotics import _dbar_g1_zero, dbar_value
from svrisk.expectations import DEFAULT_QUAD
from svrisk.scalar_opt import golden_section_min


def closed_form_hinge_sq(s0, c):
    """E(|V| - c)_+^2 for V ~ N(0, s0^2) through the normal cdf."""
    if s0 == 0.0:
        return 0.0
    a = c / s0
    q = ndtr(-a)
    ph = math.exp(-a * a / 2) / math.sqrt(2 * math.pi)
    return 2 * ((s0 * s0 + c * c) * q - s0 * c * ph)


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
