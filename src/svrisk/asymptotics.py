"""Deterministic scalar problems for the high-dimensional SVR limits.

Solves, for a given sample ratio delta = n/p, noise scale sigma, signal
norm beta and tube half-width eps:

- the hard-margin feasibility threshold delta_star (the root of the
  derivative of a 1-D convex function) and its inverse epsilon_star;
- the hard-SVR limiting risk: minimize (g2 - beta/sigma)^2/2 + g1^2/2
  subject to D(g1, g2) <= 0 where
  D(g1, g2) = sqrt(delta) * sqrt(E (|sqrt(g1^2+g2^2) G + N| - eps/sigma)_+^2) - g1,
  solved from its two KKT conditions, the lower edge D = 0 and the fixed
  point in g2, by one safeguarded Newton iteration on (g1, g2), started
  from the edge of the g2 = 0 slice, whose Newton search from g1 = 0
  also decides feasibility;
- the soft-SVR limiting risk: min over (g1, g2) of sup over chi > 0 of
  the saddle function Dbar (concave in chi, convex in (g1, g2)), solved
  from its first-order conditions, which leave two equations in
  (g1, g2), by one safeguarded Newton iteration on (g1, log g2);
- hyperparameter tuning (optimal eps, and jointly optimal (eps, C)).

Both risks are solved in the fixed-point style of CGMT analyses
(Thrampoulidis, Abbasi & Hassibi, "Precise error analysis of regularized
M-estimators in high dimensions", 2018).  (g1, g2) are the error-vector
norms orthogonal to / along the ground truth, scaled by 1/sigma, so the
limiting risk is sigma^2 (g1^2 + g2^2).
All routines are pure and deterministic; the risk solutions report how
many expectation evaluations they made in ``diagnostics["expect_evals"]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .expectations import count_expectations, e_hinge_moments
from .noise import NoiseModel, standard_gaussian
from .scalar_opt import brent_root, expand_bracket_root, golden_section_min

_COSINE_FLOOR = 1e-6  # below this error norm the cosine limit is 0/0
_T_CAP = 1e12  # where the doubling bracket of delta_star's t stops
_E_ABS_G = math.sqrt(2.0 / math.pi)  # E|G|, G standard normal
_DSTAR_XTOL = 1e-11  # delta_star's t root tolerance, times max(1, bracket end)
_EDGE_RTOL = 1e-15  # relative step at which the g1-edge Newton stops
_EDGE_MAX_ITER = 200  # Newton from g1 = 0 halves its error at worst
_HSVR_RTOL = 1e-14  # relative (g1, g2) step at which hsvr_risk's Newton solve stops
_NOISE_STEP = 1e-9  # a Newton step this small (relative) that fails is rounding noise
_HSVR_MAX_ITER = 100  # Newton steps of hsvr_risk; a step costs one call or more
_HSVR_D_CERT = 1e-7  # |D| / max(1, g1) that certifies hsvr_risk's point
_HSVR_STAT_CERT = 1e-5  # stationarity that does (its rounding floor near delta* is ~3e-7)
_SSVR_CURVE_RTOL = 1e-2  # relative g1 step within which a point is on the D = 0 curve
_SSVR_LOG_STEP = 2.0  # step down in log g2 while ssvr_risk's bracket has no lower end
_SSVR_MAX_EVALS = 100  # residual evaluations of ssvr_risk (two calls each)
_K_CAP = 1e100  # every tail at c + k is 0 past it, and (c + k)^2 stays finite
_TUNE_EPS_CAP = 400.0  # tune_hsvr's largest eps, times sigma
_TUNE_SSVR_ROUNDS = 2  # coordinate refinement rounds of tune_ssvr


class UncertifiedLimit(ArithmeticError):
    """Raised when a risk solve ends at a point its residuals do not certify."""


@dataclass(frozen=True)
class HsvrProblem:
    """Asymptotic hard-SVR instance: delta = n/p, noise scale, signal norm,
    tube half-width, noise law."""

    delta: float
    sigma: float
    beta: float
    eps: float
    noise: NoiseModel = field(default_factory=standard_gaussian)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.delta, self.sigma, self.beta, self.eps))):
            raise ValueError("delta, sigma, beta, eps must be finite")
        if self.delta <= 0 or self.sigma <= 0 or self.beta <= 0:
            raise ValueError("delta, sigma, beta must be strictly positive")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")


@dataclass(frozen=True)
class SsvrProblem(HsvrProblem):
    """Soft-SVR instance: hard-SVR fields plus the slack weight C."""

    cost: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(self.cost):
            raise ValueError("cost must be finite")
        if self.cost <= 0:
            raise ValueError("cost must be strictly positive")


@dataclass(frozen=True)
class AsymptoticSolution:
    """Solution of a scalar risk problem.

    risk = sigma^2 (g1^2 + g2^2) when feasible; cosine is None when the
    limit is 0/0 (error norm below ~1e-6).  chi is the saddle variable of
    the soft problem (None for hard).  diagnostics carries solver residuals.
    """

    g1: float | None
    g2: float | None
    risk: float | None
    cosine: float | None
    feasible: bool
    chi: float | None = None
    diagnostics: dict = field(default_factory=dict)


def _cosine_limit(g1, g2, b_over_sigma):
    den = math.hypot(g1, g2 - b_over_sigma)
    if den < _COSINE_FLOOR:
        return None
    return (b_over_sigma - g2) / den


# ---------------------------------------------------------------------------
# Feasibility threshold.
# ---------------------------------------------------------------------------

def _threshold_slope(t, sigma, c, noise):
    """(f'(t), f(t)) for f(t) = E (|G + t*sigma*N| - t*eps)_+^2, c = eps/sigma, t > 0.

    With u = t sigma and s = 1/u, f(t) = u^2 H2(s, c), where H2 is the
    hinge-square of s*G + N.  Stein's lemma (dH2/ds = 2 s P, P = P(|V| > c))
    gives f'(t) = 2 sigma^2 t H2 - 2 P / t, all from one
    ``e_hinge_moments`` call.
    """
    u = t * sigma
    p, _, h2 = e_hinge_moments(1.0 / u, c, noise)
    return 2.0 * sigma * u * h2 - 2.0 * p / t, u * u * h2


def _check_positive(name, value):
    # before a bracket, which would take inf or nan for a sign change and
    # fail with a message that does not name the argument
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and strictly positive")


def delta_star(eps, sigma, noise=None):
    """Hard-margin feasibility threshold 1 / inf_t E (|G + t*sigma*N| - t*eps)_+^2.

    The objective f(t) is convex in t and even under t -> -t for
    symmetric noise, so its infimum over t >= 0 is where f'(t) = 0
    (``_threshold_slope``, one expectation call for f' and f).
    f'(0) = -2 eps E|G| < 0: the right end of the bracket doubles from
    t = 1 until f' > 0, and ``brent_root`` solves f'(t) = 0 on it.
    Returns math.inf when the infimum is numerically zero (below 1e-13,
    or f' <= 0 up to t = 1e12: the noiseless limit with eps > 0, where
    every delta is feasible).  eps >= 0 and sigma > 0 must be finite.
    """
    _check_positive("sigma", sigma)
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError("eps must be finite and nonnegative")
    noise = noise or standard_gaussian()
    if eps == 0.0:
        # E(G + t sigma N)^2 = 1 + (t sigma)^2 E N^2, minimized at t = 0
        return 1.0
    c = eps / sigma
    values = {}

    def slope(t):
        df, values[t] = _threshold_slope(t, sigma, c, noise)
        return df

    lo, hi, f_lo, f_hi = expand_bracket_root(slope, 0.0, 1.0, _T_CAP,
                                             f_lo=-2.0 * eps * _E_ABS_G)
    if f_hi <= 0.0:
        return math.inf
    t = brent_root(slope, lo, hi, f_lo=f_lo, f_hi=f_hi, xtol=_DSTAR_XTOL * max(1.0, hi))
    if t not in values:  # an end the bracket supplied without a call
        slope(t)
    fmin = values[t]
    if fmin < 1e-13:
        return math.inf
    return 1.0 / fmin


def epsilon_star(delta, sigma, noise=None):
    """Smallest tube half-width making sample ratio ``delta`` feasible.

    Inverts the strictly increasing map eps -> delta_star(eps, sigma).
    For delta <= 1 every eps >= 0 is feasible, so the threshold is 0.
    delta > 0 and sigma > 0 must be finite.
    """
    _check_positive("delta", delta)
    _check_positive("sigma", sigma)
    if delta <= 1.0:
        return 0.0
    noise = noise or standard_gaussian()

    def gap(eps):
        return delta_star(eps, sigma, noise) - delta

    # delta_star(0) = 1, so the gap starts at 1 - delta < 0
    lo, hi, g_lo, g_hi = expand_bracket_root(gap, 0.0, max(sigma, 1e-3), 1e9 * sigma,
                                             f_lo=1.0 - delta)
    if g_hi <= 0.0:
        raise RuntimeError("epsilon_star bracket expansion failed")
    return brent_root(gap, lo, hi, f_lo=g_lo, f_hi=g_hi, xtol=1e-9 * max(1.0, hi))


# ---------------------------------------------------------------------------
# Hard-SVR risk.
# ---------------------------------------------------------------------------

def _g1_edge(prob, g2):
    """(g1, P) at the smallest feasible g1 of the g2-slice, or None if the
    slice is infeasible.

    With s = hypot(g1, g2), H2 = E (|V| - c)_+^2 and P = P(|V| > c),
    D(., g2) = sqrt(delta H2) - g1 is convex with D(0, g2) >= 0, and Stein's
    lemma (dH2/ds = 2 s P) gives dD/dg1 = sqrt(delta) g1 P / sqrt(H2) - 1,
    all three from one ``e_hinge_moments`` call.  Newton from g1 = 0, where
    the slope is -1, climbs monotonically to the lower root of a convex
    decreasing function and cannot overshoot it; a point with D > 0 and
    dD/dg1 >= 0 certifies D > 0 on the whole slice.  The iteration stops
    when D <= 0 or the step falls below _EDGE_RTOL * g1; P is that of the
    last point evaluated.  ``hsvr_risk`` calls it on the g2 = 0 slice
    only: as its feasibility certificate, and for the edge its Newton
    solve starts from.
    """
    delta, noise = prob.delta, prob.noise
    c = prob.eps / prob.sigma
    g1 = 0.0
    for _ in range(_EDGE_MAX_ITER):
        p, _, h2 = e_hinge_moments(math.hypot(g1, g2), c, noise)
        root = math.sqrt(delta * max(h2, 0.0))
        d = root - g1
        if d <= 0.0:
            break
        slope = delta * g1 * p / root - 1.0
        if slope >= 0.0:
            return None
        step = d / -slope
        g1 += step
        if step <= _EDGE_RTOL * g1:
            break
    return g1, p


def hsvr_risk(prob: HsvrProblem):
    """Limiting hard-SVR prediction risk and cosine similarity.

    Feasible only for delta < delta_star(eps, sigma).  Minimizes
    g1^2/2 + (g2 - beta/sigma)^2/2 subject to D(g1, g2) <= 0, with
    D = sqrt(delta H2) - g1, H2 = E (|V| - c)_+^2, V = sG + N,
    s = hypot(g1, g2) and c = eps/sigma.  The constraint is active at the
    optimum and the objective increases in g1, so the optimum lies on the
    lower edge of its g2-slice.  With P = P(|V| > c), its KKT conditions
    are D = 0 (delta H2 = g1^2) and F2 = g2 - (beta/sigma)(1 - delta P) = 0.

    Feasibility is decided by the g2 = 0 slice alone (``_g1_edge``,
    Newton from g1 = 0, which certifies an empty slice), without a call
    to ``delta_star``: D is even in g2 and jointly convex, so that slice
    is feasible whenever any slice is, and with t = 1/g1, D(g1, 0) <= 0
    reads delta E (|G + t N| - t c)_+^2 <= 1, so it has a feasible point
    exactly when delta <= delta_star.  At eps = 0 its edge lies at
    g1 = inf when delta = 1, so there the closed form delta_star = 1
    decides.

    Both conditions are then solved together by Newton's method on
    (g1, g2), from the edge of the g2 = 0 slice.  Stein's lemma
    (dH2/ds = 2 s P) gives dD/dg = delta P g / sqrt(delta H2) - (1, 0),
    and dF2/dg = (beta/sigma) delta (dP/ds) g / s + (0, 1), with dP/ds
    from the same ``e_hinge_moments(..., tail_slope=True)`` call; the
    2 x 2 step is Cramer's rule.  The first condition is taken as D, not
    delta H2 - g1^2: both vanish on the same set, but only D keeps a
    nonzero g1-derivative at g1 = 0, where the solve starts when the tube
    holds all of the g2 = 0 slice's noise (H2 = 0 in floating point).
    Safeguards: every iterate has g1 >= 0 and 0 <= g2 <= beta/sigma and
    stays on the lower-edge side, dD/dg1 < 0 (on the edge, delta P < 1),
    where det J <= dD/dg1 < 0, so every step is defined and no iterate
    reaches a slice's upper root.  A step is halved until it passes
    Deuflhard's natural monotonicity test (P. Deuflhard, "Newton Methods
    for Nonlinear Problems", Springer 2004): the simplified Newton
    correction J(x)^-1 F(x + t dx) at the trial point, which reuses the
    current Jacobian and so costs no expectation call, is shorter than
    the full step dx.  The test measures residuals in units of (g1, g2)
    and so does not depend on how D and F2 are scaled, which otherwise
    differ by a factor of up to beta/sigma.  The iteration stops at a
    relative step of 1e-14, or when a step of relative size 1e-9 still
    fails the test: the residual is then at its rounding floor (near
    delta*, where D is flat in g1), and further halving would only chase
    noise.  At delta = delta* the g2 = 0 edge is a double root
    (delta P = 1), and g2 = 0 is the solution.
    The returned point is certified, |D| <= 1e-7 max(1, g1) and
    stationarity <= 1e-5, or ``UncertifiedLimit`` is raised.
    Diagnostics: ``expect_evals`` (expectation evaluations); when
    feasible, also ``d_residual`` = D(g1*, g2*) and ``stationarity`` =
    |F2| sigma/beta, the two residuals of the Newton solve at the
    returned point.
    """
    with count_expectations() as counter:
        sol = _hsvr_solve(prob)
    diag = sol.diagnostics
    if sol.feasible and not (abs(diag["d_residual"]) <= _HSVR_D_CERT * max(1.0, sol.g1)
                             and diag["stationarity"] <= _HSVR_STAT_CERT):
        raise UncertifiedLimit(f"hsvr_risk did not converge: d_residual "
                               f"{diag['d_residual']:.3g}, "
                               f"stationarity {diag['stationarity']:.3g}")
    diag["expect_evals"] = counter.n
    return sol


def _hsvr_solve(prob):
    infeasible = AsymptoticSolution(None, None, None, None, False)
    if prob.eps == 0.0 and prob.delta >= 1.0:
        return infeasible
    edge = _g1_edge(prob, 0.0)
    if edge is None:  # certified: the g2 = 0 slice is the last to close
        return infeasible
    delta, noise = prob.delta, prob.noise
    b = prob.beta / prob.sigma
    c = prob.eps / prob.sigma

    def conditions(g1, g2):
        """(D, F2) at (g1, g2), and (dD/dg1, dD/dg2, dF2/ds / s)."""
        s = math.hypot(g1, g2)
        p, _, h2, dp = e_hinge_moments(s, c, noise, tail_slope=True)
        root = math.sqrt(delta * max(h2, 0.0))
        dd = delta * p / root if root > 0.0 else 0.0
        slope = b * delta * dp / s if s > 0.0 else 0.0
        return (root - g1, g2 - b * (1.0 - delta * p)), (dd * g1 - 1.0, dd * g2, slope)

    g1, g2 = edge[0], 0.0
    f, jac = conditions(g1, g2)
    for _ in range(_HSVR_MAX_ITER):
        a11, a12, slope = jac
        if a11 >= 0.0:  # the g2 = 0 edge is the slice's double root: g2 = 0 solves
            break
        a21, a22 = slope * g1, 1.0 + slope * g2
        det = a11 * a22 - a12 * a21  # <= a11 < 0
        d1 = (a12 * f[1] - a22 * f[0]) / det
        d2 = (a21 * f[0] - a11 * f[1]) / det
        step = math.hypot(d1, d2)
        size = step / (math.hypot(g1, g2) + step)  # relative; 1 at the origin
        if size <= _HSVR_RTOL:
            break
        t = 1.0
        while True:
            t1, t2 = g1 + t * d1, g2 + t * d2
            if t1 >= 0.0 and 0.0 <= t2 <= b:
                ft, jt = conditions(t1, t2)
                # the simplified Newton correction J(x)^-1 F(x + t dx)
                c1 = (a12 * ft[1] - a22 * ft[0]) / det
                c2 = (a21 * ft[0] - a11 * ft[1]) / det
                if math.hypot(c1, c2) < step and jt[0] < 0.0:
                    break
            if t * size <= _NOISE_STEP:
                t = 0.0
                break
            t *= 0.5
        if t == 0.0:  # the residual is at its rounding floor
            break
        g1, g2, f, jac = t1, t2, ft, jt
    risk = prob.sigma ** 2 * (g1 ** 2 + g2 ** 2)
    return AsymptoticSolution(
        g1=g1, g2=g2, risk=risk,
        cosine=_cosine_limit(g1, g2, b),
        feasible=True,
        diagnostics={"d_residual": f[0], "stationarity": abs(f[1]) / b},
    )


# ---------------------------------------------------------------------------
# Soft-SVR risk.
# ---------------------------------------------------------------------------

def ssvr_risk(prob: SsvrProblem, tol=1e-8):
    """Limiting soft-SVR risk via the min-sup scalar saddle problem.

    The risk is the saddle point of Dbar: V(g1, g2) = sup_chi Dbar is
    convex, and its minimizer is where three first-order conditions hold,
    with h = (|V| - c)_+, V = sG + N, s = hypot(g1, g2), c = eps/sigma,
    k = g1 C/chi the Huber threshold and P_band = P(c < |V| < c + k):

    - chi: delta E min(h, k)^2 = g1^2;
    - g1: sigma k = C (1 - delta P_band);
    - g2: g2 = (beta/sigma)(1 - delta P_band).

    The last two give k = C g2/beta, so k drops out, and the solve is one
    Newton iteration on (g1, y = log g2) for two residuals:
    D = sqrt(delta E min(h, k)^2) - g1 (the chi condition) and
    F2 = g2 - (beta/sigma)(1 - delta P_band) (the g2 condition, and with k
    tied to g2 also the g1 one).  At k = inf these are ``hsvr_risk``'s
    conditions.  Each step makes two ``e_hinge_moments(...,
    tail_slope=True)`` calls, at c and at c + k (the second with
    ``density=True``), for the Jacobian:
    dE min(h, k)^2/ds = 2 s (P_band - k f(c + k)), with f the density of
    |V| (the Dirac term of min(h, k) at h = k), dE min(h, k)^2/dk =
    2 k P(|V| > c + k), and dP_band from dP/ds at both thresholds and
    f(c + k).  E min(h, k)^2 is k^2 P(|V| > c + k) + E[h^2; h <= k], the
    second term clipped to [0, k^2 P_band]: for small k its difference
    form cancels to rounding noise.

    The start is g2 = min(beta/(2 sigma), beta/C) (k = 1 for large C),
    with g1 the lower root of D(., g2) by Newton from g1 = 0.  A step
    in y is the shorter of the Newton steps in g2 and in log g2, and g1
    follows from the linearised D = 0.  A bracket in y safeguards it: on
    the lower branch of the D = 0 curve F2 < 0 as g2 -> 0 and F2 >= 0 at
    g2 = beta/sigma, and the sign of F2 projected onto that curve moves
    an end at each iterate close to it.  While the bracket has no lower
    end a step falls by at most 2 in log g2 (``_SSVR_LOG_STEP``).  A step
    longer than 1e-2 (``_SSVR_CURVE_RTOL``) that leaves the bracket is
    replaced by its midpoint, where g1 is solved on the curve again, and
    a slice without a lower root lies above the solution.  ``tol`` is a
    relative step: the solve stops at a point reached by a step <= tol
    whose own step is at most half as long, so its error is about that
    next step, or when a step of relative size 1e-9 in (g1, g2) no longer
    halves (the rounding floor).

    Diagnostics: ``value`` (V at the optimum), ``value_evals`` (residual
    evaluations), ``expect_evals`` (expectation evaluations, two per
    residual evaluation), ``chi_residual`` = |delta E min(h, k)^2 - g1^2|
    and ``stationarity``, the norm of two relative residuals of F2:
    F2 sigma/beta, and (dV/dg1)/g1 = F2/g2 measured in log k, i.e.
    divided by its log-k derivative 1 + delta C f(c + k)/sigma.
    Undivided, F2/g2 would read the rounding error of P_band times
    delta C/(sigma k) at a converged point, which grows as C -> inf on an
    infeasible tube.  Always feasible.
    """
    with count_expectations() as counter:
        sol = _ssvr_solve(prob, tol)
    sol.diagnostics["expect_evals"] = counter.n
    return sol


def _ssvr_solve(prob, tol):
    sigma, delta, noise = prob.sigma, prob.delta, prob.noise
    b = prob.beta / sigma
    c = prob.eps / sigma
    k_per_g2 = prob.cost / prob.beta
    n_evals = 0

    def conditions(g1, y):
        """(D, F2) at (g1, g2 = e^y), their Jacobian in (g1, y), and
        (E min(h, k)^2, H1(c), H2(c) - H2(c + k), F2's scale in the
        stationarity, g2 (1 + delta C f(c + k)/sigma))."""
        nonlocal n_evals
        n_evals += 1
        g2 = math.exp(y)
        s = math.hypot(g1, g2)
        k = min(k_per_g2 * g2, _K_CAP)
        dk = k if k < _K_CAP else 0.0  # dk/dy
        p0, h1_0, h2_0, dp0 = e_hinge_moments(s, c, noise, tail_slope=True)
        pk, h1k, h2k, dpk, fk = e_hinge_moments(s, c + k, noise, tail_slope=True,
                                                density=True)
        band = p0 - pk
        inner = h2_0 - h2k - 2.0 * k * h1k - k * k * pk
        emin2 = k * k * pk + min(max(inner, 0.0), k * k * band)
        root = math.sqrt(delta * emin2)
        dd = delta / root if root > 0.0 else 0.0
        ms = band - k * fk  # dE min(h, k)^2/ds over 2 s
        dband = (dp0 - dpk) / s  # dP_band/ds over s
        slope_k = b * delta * fk * dk  # dF2/dy through k
        jac = (dd * ms * g1 - 1.0, dd * (ms * g2 * g2 + k * pk * dk),
               b * delta * dband * g1, g2 + b * delta * dband * g2 * g2 + slope_k)
        f = (root - g1, g2 - b * (1.0 - delta * band))
        return f, jac, (emin2, h1_0, h2_0 - h2k, g2 + slope_k)

    def curve(y):
        """(g1, y, ...) at the lower root of D(., e^y) by Newton from
        g1 = 0, or None if the slice has no lower root."""
        g1 = 0.0
        f, jac, extra = conditions(g1, y)
        while n_evals < _SSVR_MAX_EVALS:
            if jac[0] >= 0.0:
                return None
            step = -f[0] / jac[0]
            if abs(step) <= _SSVR_CURVE_RTOL * math.hypot(g1, math.exp(y)):
                break
            g1 = max(g1 + step, 0.0)
            f, jac, extra = conditions(g1, y)
        return g1, y, f, jac, extra

    y_lo, y_hi = -math.inf, math.log(b)
    y = math.log(min(0.5 * b, prob.beta / prob.cost))
    state = curve(y)
    while state is None:
        y_hi = y
        y -= _SSVR_LOG_STEP
        state = curve(y)
    g1, y, f, jac, extra = state
    on_curve, last = True, math.inf
    while True:
        a11, a12, a21, a22 = jac
        s = math.hypot(g1, math.exp(y))
        if a11 < 0.0 and y_lo <= y <= y_hi:
            # F2 projected onto the D = 0 curve to first order: its sign
            # says on which side of the solution y lies
            shift = a21 * f[0] / a11
            phi = f[1] - shift
            if on_curve or (abs(f[0]) <= -_SSVR_CURVE_RTOL * a11 * s
                            and abs(shift) <= 0.5 * abs(phi)):
                if phi < 0.0:
                    y_lo = y
                else:
                    y_hi = y
        dy = (a21 * f[0] - a11 * f[1]) / (a11 * a22 - a12 * a21)
        if dy > 0.0:
            dy = math.log1p(dy)
        elif y_lo == -math.inf:
            dy = max(dy, -_SSVR_LOG_STEP)
        d1 = -(f[0] + a12 * dy) / a11
        if g1 + d1 < 0.0:
            d1 = -0.5 * g1
        size = max(abs(d1) / s, abs(dy))
        stalled = size >= 0.5 * last and math.hypot(d1, math.exp(y) * dy) <= _NOISE_STEP * s
        if size <= 0.5 * last <= 0.5 * tol or stalled or n_evals >= _SSVR_MAX_EVALS:
            break
        if size <= _SSVR_CURVE_RTOL or y_lo <= y + dy <= y_hi:
            g1, y, last = g1 + d1, y + dy, size
            f, jac, extra = conditions(g1, y)
            on_curve = False
            continue
        # a long step out of the bracket: bisect it
        y_mid = 0.5 * (y_lo + y_hi) if y_lo > -math.inf else y_hi - _SSVR_LOG_STEP
        state = curve(y_mid)
        if state is None:
            y_hi = y_mid
            continue
        g1, y, f, jac, extra = state
        on_curve, last = True, math.inf
    g2 = math.exp(y)
    emin2, h1_0, h2_diff, f2_scale = extra
    if g1 == 0.0:  # chi drops out
        chi, value = None, (prob.cost * delta / sigma) * h1_0 + 0.5 * (g2 - b) ** 2
    else:
        # at the saddle chi = g1 C/k = g1 beta/g2, and C/(sigma k) = b/g2
        chi = g1 * prob.beta / g2
        value = b / (2.0 * g2) * (delta * h2_diff - g1 * g1) + 0.5 * g1 * g1 + 0.5 * (g2 - b) ** 2
    risk = sigma ** 2 * (g1 ** 2 + g2 ** 2)
    return AsymptoticSolution(
        g1=g1, g2=g2, risk=risk,
        cosine=_cosine_limit(g1, g2, b),
        feasible=True, chi=chi,
        diagnostics={"value": value, "value_evals": n_evals,
                     "chi_residual": abs(delta * emin2 - g1 * g1),
                     "stationarity": abs(f[1]) * math.hypot(1.0 / b, 1.0 / f2_scale)},
    )


# ---------------------------------------------------------------------------
# Hyperparameter tuning.
# ---------------------------------------------------------------------------

def tune_hsvr(delta, sigma, beta, noise=None):
    """Tube half-width minimizing the limiting hard-SVR risk.

    Searches eps on (epsilon_star(delta) + margin, eps_max), doubling
    eps_max until the risk curve has turned upward.  The risk tends to the
    null value beta^2 as eps -> inf, so eps_max stops at 400 sigma
    (``_TUNE_EPS_CAP``): heavy-tailed cases can have their optimum
    effectively at infinity.  Returns (eps_opt, risk_opt).
    """
    _check_positive("delta", delta)
    noise = noise or standard_gaussian()
    eps_lo = 0.0
    if delta > 1.0:
        e_star = epsilon_star(delta, sigma, noise)
        eps_lo = e_star + max(1e-3 * sigma, 1e-2 * e_star)

    risks = {}

    def risk_at(eps):
        if eps not in risks:
            sol = hsvr_risk(HsvrProblem(delta, sigma, beta, eps, noise))
            risks[eps] = sol.risk if sol.feasible else math.inf
        return risks[eps]

    cap = _TUNE_EPS_CAP * sigma
    # double hi until the risk has turned upward, R(hi) > R(hi/2): the
    # first sign change of R(e) - R(e/2), which is <= 0 before the turn
    # (f_lo = -1 gives that sign); hi >= 2 eps_lo, so hi/2 is above eps_lo
    hi = max(2.0 * eps_lo, sigma)
    _, hi, _, _ = expand_bracket_root(lambda e: risk_at(e) - risk_at(e / 2.0),
                                      hi / 2.0, hi, cap, f_lo=-1.0)
    eps_opt, risk_opt = golden_section_min(risk_at, eps_lo, min(hi, cap),
                                           tol=1e-7 * max(1.0, hi))
    return eps_opt, risk_opt


def tune_ssvr(delta, sigma, beta, noise=None):
    """Jointly tune (eps, C) for the soft problem.

    A 6 x 6 scan of eps = 0.05 sigma 4^j and C = 0.05 4^j (j = 0..5), run
    at a relaxed inner tolerance because the risk surface is flat near its
    minimum, followed by two rounds of coordinate golden-section
    refinement in log space around the best cell.  The returned risk
    never exceeds any scanned risk.  Returns (eps_opt, cost_opt, risk_opt).
    """
    _check_positive("delta", delta)
    noise = noise or standard_gaussian()
    eps_grid = [0.05 * sigma * 4.0 ** j for j in range(6)]  # 0.05..51.2 sigma
    cost_grid = [0.05 * 4.0 ** j for j in range(6)]

    scan_tol = 1e-3  # the risk surface is quadratically flat near its min

    def risk_at(eps, cost, tol=scan_tol):
        prob = SsvrProblem(delta, sigma, beta, max(eps, 0.0), noise, cost=max(cost, 1e-8))
        return ssvr_risk(prob, tol=tol).risk

    best = None
    for e in eps_grid:
        for c in cost_grid:
            r = risk_at(e, c)
            if best is None or r < best[2]:
                best = (e, c, r)

    # log-space coordinate refinement with a diagonal pattern step each round
    le, lc = math.log(best[0]), math.log(best[1])
    v = best[2]
    span = math.log(4.0)
    for _ in range(_TUNE_SSVR_ROUNDS):
        le_prev, lc_prev = le, lc
        le, v = golden_section_min(lambda t: risk_at(math.exp(t), math.exp(lc)),
                                   le - span, le + span, tol=1e-2)
        lc, v = golden_section_min(lambda t: risk_at(math.exp(le), math.exp(t)),
                                   lc - span, lc + span, tol=1e-2)
        d_e, d_c = le - le_prev, lc - lc_prev
        if abs(d_e) + abs(d_c) > 1e-9:
            t_best, v_t = golden_section_min(
                lambda t: risk_at(math.exp(le + t * d_e), math.exp(lc + t * d_c)),
                0.0, 6.0, tol=5e-2)
            if v_t < v:
                le, lc, v = le + t_best * d_e, lc + t_best * d_c, v_t
        span /= 3.0

    eps_o, cost_o = math.exp(le), math.exp(lc)
    risk_o = risk_at(eps_o, cost_o, 1e-7)
    best_final = risk_at(best[0], best[1], 1e-7)
    if best_final < risk_o:
        return best[0], best[1], best_final
    return eps_o, cost_o, risk_o

