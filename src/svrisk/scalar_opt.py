"""Scalar minimization and root bracketing helpers.

Small, deterministic routines used throughout the asymptotic calculators:
golden-section search on unimodal functions, geometric bracket expansion,
and bracketed root finding (Brent's method with a bisection safeguard).
No randomness, no global state.
"""

from __future__ import annotations

import math

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_EPS = 2.220446049250313e-16
_BRENT_RTOL = 4.0 * _EPS  # relative part of brent_root's tolerance
_BRENT_MAX_ITER = 200  # at least 100 halvings of the bracket


def golden_section_min(f, lo, hi, tol=1e-10, max_iter=400):
    """Minimize a unimodal ``f`` on [lo, hi].

    Returns (x, f(x)).  ``tol`` is an absolute tolerance on the final
    interval width (a relative floor of ~1e-14*|x| guards huge brackets).
    """
    a, b = float(lo), float(hi)
    if b < a:
        a, b = b, a
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + INVPHI2 * h
    d = a + INVPHI * h
    fc = f(c)
    fd = f(d)
    for _ in range(max_iter):
        if h <= tol + 1e-14 * (abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INVPHI * h
            fd = f(d)
    if fc < fd:
        return c, fc
    return d, fd


def expand_bracket_min(f, x0=1.0, grow=2.0, cap=1e12):
    """Expand the right endpoint until ``f`` has started to increase.

    For a convex ``f`` on [0, inf) this certifies the minimizer lies in
    [0, hi].  Returns (hi, f(hi), exhausted) where ``exhausted`` means the
    cap was hit while f was still decreasing (minimum possibly at +inf).
    """
    hi = float(x0)
    f_prev = f(hi / grow)
    f_hi = f(hi)
    while f_hi <= f_prev and hi < cap:
        hi *= grow
        f_prev = f_hi
        f_hi = f(hi)
    return hi, f_hi, f_hi <= f_prev


def brent_root(f, lo, hi, f_lo=None, f_hi=None, xtol=1e-13):
    """Root of ``f`` on [lo, hi] by Brent's method; f(lo), f(hi) must differ in sign.

    Inverse quadratic interpolation and secant steps, with a bisection step
    whenever an interpolation step would not shrink the bracket fast enough,
    so convergence is never slower than about twice bisection.  The returned
    point lies within ~xtol + 4*eps*|x| of a sign change of ``f``: of the root
    of a continuous function, or of the jump of a step.  Of the two final
    bracket ends it is the one with the smaller |f|.  ``f_lo``/``f_hi`` spare
    the evaluations at the ends when the caller already has them.
    """
    a, b = float(lo), float(hi)
    fa = f(a) if f_lo is None else f_lo
    fb = f(b) if f_hi is None else f_hi
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("brent_root: no sign change on the bracket")
    c, fc = a, fa
    d = e = b - a
    for _ in range(_BRENT_MAX_ITER):
        if (fb > 0.0) == (fc > 0.0):
            # keep the sign change between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 0.5 * (xtol + _BRENT_RTOL * abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p = 2.0 * m * s
                q = 1.0 - s
            else:  # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)
    return b
