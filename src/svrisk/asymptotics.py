"""Deterministic scalar problems for the high-dimensional SVR limits.

Solves, for a given sample ratio delta = n/p, noise scale sigma, signal
norm beta and tube half-width eps:

- the hard-margin feasibility threshold delta_star (the root of the
  derivative of a 1-D convex function) and its inverse epsilon_star;
- the hard-SVR limiting risk: minimize (g2 - beta/sigma)^2/2 + g1^2/2
  subject to D(g1, g2) <= 0 where
  D(g1, g2) = sqrt(delta) * sqrt(E (|sqrt(g1^2+g2^2) G + N| - eps/sigma)_+^2) - g1,
  solved from its KKT conditions: a Newton lower edge D(g1, g2) = 0 in g1
  inside one bracketed root of the fixed point in g2;
- the soft-SVR limiting risk: min over (g1, g2) of sup over chi > 0 of
  the saddle function Dbar (concave in chi, convex in (g1, g2)), solved
  from its first-order conditions, one bracketed root per variable;
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
from typing import NamedTuple

from .expectations import count_expectations, e_hinge_moments
from .noise import NoiseModel, standard_gaussian
from .scalar_opt import brent_root, expand_bracket_root, golden_section_min

_COSINE_FLOOR = 1e-6  # below this error norm the cosine limit is 0/0
_T_CAP = 1e12  # where the doubling brackets of delta_star's t and ssvr_risk's g1 stop
_E_ABS_G = math.sqrt(2.0 / math.pi)  # E|G|, G standard normal
_DSTAR_XTOL = 1e-11  # delta_star's t root tolerance, times max(1, bracket end)
_EDGE_RTOL = 1e-15  # relative step at which the g1-edge Newton stops
_EDGE_MAX_ITER = 200  # Newton from g1 = 0 halves its error at worst
_HSVR_XTOL = 1e-12  # g2 root tolerance of hsvr_risk, times max(1, beta/sigma)
_LOG_K_CAP = 300.0  # keeps (c + k)^2 finite in the hinge moments
_TUNE_EPS_CAP = 400.0  # tune_hsvr's largest eps, times sigma
_TUNE_SSVR_ROUNDS = 2  # coordinate refinement rounds of tune_ssvr


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
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be finite and strictly positive")
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
    """
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
    last point evaluated.
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
    g1^2/2 + (g2 - beta/sigma)^2/2 subject to D(g1, g2) <= 0 from its KKT
    conditions.  The constraint is active at the optimum, and the objective
    increases in g1, so g1 is the lower edge of the g2-slice,
    delta H2(c) = g1^2 (``_g1_edge``, Newton from g1 = 0).  The objective
    along that edge, W(g2), is convex with
    dW/dg2 = g2 / (1 - delta P) - beta/sigma, P = P(|V| > c), whose root is
    the fixed point g2 = (beta/sigma)(1 - delta P), solved by ``brent_root``
    on [0, beta/sigma] with an infeasible slice scoring +1.  The bracket holds:
    D is even in g2 and jointly convex, so the g2 = 0 slice is feasible
    whenever any slice is; at a lower edge delta P <= 1, so the residual is
    <= 0 at g2 = 0; and at the end of the feasible g2 range delta P = 1, so
    it is g2 > 0 there.  The g2 = 0 slice also decides feasibility, without
    a call to ``delta_star``: with t = 1/g1, D(g1, 0) <= 0 reads
    delta E (|G + t N| - t c)_+^2 <= 1, so the slice has a feasible point
    exactly when delta <= delta_star.  At eps = 0 its edge lies at g1 = inf
    when delta = 1, so there the closed form delta_star = 1 decides.
    Diagnostics: ``expect_evals`` (expectation evaluations); when feasible,
    also ``d_residual`` = D(g1*, g2*) (|d_residual| <= 1e-7) and
    ``stationarity`` = |g2 sigma/beta - (1 - delta P)|, the fixed-point
    residual.
    """
    with count_expectations() as counter:
        sol = _hsvr_solve(prob)
    sol.diagnostics["expect_evals"] = counter.n
    return sol


def _hsvr_solve(prob):
    infeasible = AsymptoticSolution(None, None, None, None, False)
    if prob.eps == 0.0 and prob.delta >= 1.0:
        return infeasible
    delta = prob.delta
    b = prob.beta / prob.sigma
    edges = {}

    def residual(g2):
        edges[g2] = edge = _g1_edge(prob, g2)
        if edge is None:
            return 1.0
        return g2 - b * (1.0 - delta * edge[1])

    f0 = residual(0.0)
    if edges[0.0] is None:  # certified: the g2 = 0 slice is the last to close
        return infeasible
    g2 = 0.0
    if f0 < 0.0:
        # brent_root returns a point it has evaluated, so edges holds it
        g2 = brent_root(residual, 0.0, b, f_lo=f0, xtol=_HSVR_XTOL * max(1.0, b))
    g1 = edges[g2][0]
    p, _, h2 = e_hinge_moments(math.hypot(g1, g2), prob.eps / prob.sigma, prob.noise)
    risk = prob.sigma ** 2 * (g1 ** 2 + g2 ** 2)
    return AsymptoticSolution(
        g1=g1, g2=g2, risk=risk,
        cosine=_cosine_limit(g1, g2, b),
        feasible=True,
        diagnostics={
            "d_residual": math.sqrt(delta * max(h2, 0.0)) - g1,
            "stationarity": abs(g2 / b - (1.0 - delta * p)),
        },
    )


# ---------------------------------------------------------------------------
# Soft-SVR risk.
# ---------------------------------------------------------------------------

def _dbar_g1_zero(g2, prob):
    """sup over chi of Dbar on the g1 = 0 boundary (chi drops out)."""
    sigma = prob.sigma
    thr = prob.eps / sigma
    b = prob.beta / sigma
    h1 = e_hinge_moments(abs(g2), thr, prob.noise)[1]
    return (prob.cost * prob.delta / sigma) * h1 + 0.5 * (g2 - b) ** 2


class _ChiLevel(NamedTuple):
    """sup over chi of Dbar at fixed (g1 > 0, g2).

    k = g1*C/chi is the Huber threshold at the maximiser: inf on the
    hard-feasible slice, where chi* = 0.  emin2 = E min(h, k)^2 and
    p_band = P(c < |V| < c + k), with h = (|V| - c)_+, V = sG + N.
    """

    k: float
    value: float
    emin2: float
    p_band: float


def _chi_level(g1, g2, prob, k_hint, log_tol):
    """Solve the chi-level first-order condition delta E min(h, k)^2 = g1^2.

    dDbar/dchi = (delta E min(h, k)^2 - g1^2) / (2 sigma g1), and
    E min(h, k)^2 = H2(c) - H2(c+k) - 2k H1(c+k) increases in k from 0 to
    H2(c) (H2, H1 the hinge-square and hinge).  If delta H2(c) <= g1^2 the
    sup is the chi -> 0 limit q = g1^2/2 + (g2 - beta/sigma)^2/2.  Otherwise
    the root in log k is bracketed between the bound from
    E min(h, k)^2 <= k^2 P(h > 0) and an expansion from ``k_hint``, and
    solved to ``log_tol``; the value is Dbar there, with
    E rho_k(h) = (H2(c) - H2(c+k)) / 2.  E min(h, k)^2 is evaluated as
    k^2 P(h > k) + E[h^2; h <= k], the second term clipped to its range
    [0, k^2 P_band]: for small k the difference form cancels to rounding
    noise, and the clip keeps the bracket's lower end below the root.
    """
    sigma, delta, noise = prob.sigma, prob.delta, prob.noise
    c = prob.eps / sigma
    s = math.hypot(g1, g2)
    q = 0.5 * g1 * g1 + 0.5 * (g2 - prob.beta / sigma) ** 2
    p0, _, h2_0 = e_hinge_moments(s, c, noise)
    target = g1 * g1 / delta
    if h2_0 <= target or p0 <= 0.0:
        return _ChiLevel(math.inf, q, h2_0, p0)
    moments = {}

    def emin2(k, p_k, h1, h2):
        band = h2_0 - h2 - 2.0 * k * h1 - k * k * p_k
        return k * k * p_k + min(max(band, 0.0), k * k * (p0 - p_k))

    def gap(y):
        k = math.exp(y)
        moments[y] = e_hinge_moments(s, c + k, noise)
        return emin2(k, *moments[y]) - target

    y_lo = 0.5 * math.log(target / p0) - 0.5
    f_lo = None
    y_hi = max(math.log(k_hint), y_lo)
    f_hi = gap(y_hi)
    step = 0.25
    while f_hi <= 0.0:
        if y_hi >= _LOG_K_CAP:  # the root is beyond float resolution: chi* = 0
            return _ChiLevel(math.inf, q, h2_0, p0)
        y_lo, f_lo = y_hi, f_hi
        y_hi = min(y_hi + step, _LOG_K_CAP)
        step *= 4.0
        f_hi = gap(y_hi)
    y = brent_root(gap, y_lo, y_hi, f_lo=f_lo, f_hi=f_hi, xtol=log_tol)
    k = math.exp(y)
    p_k, h1, h2 = moments[y]
    value = prob.cost / (2.0 * sigma * k) * (delta * (h2_0 - h2) - g1 * g1) + q
    return _ChiLevel(k, value, emin2(k, p_k, h1, h2), p0 - p_k)


def ssvr_risk(prob: SsvrProblem, tol=1e-8):
    """Limiting soft-SVR risk via the min-sup scalar saddle problem.

    Minimizes the convex value function V(g1, g2) = sup_chi Dbar by solving
    first-order conditions level by level, each with a bracketed Brent root:

    - chi: delta E min(h, k)^2 = g1^2 for k = g1*C/chi (``_chi_level``).
    - g1: dV/dg1 = g1 [1 - C (1 - delta P_band) / (sigma k)] = 0, the
      envelope derivative of Dbar simplified by the chi condition, with
      P_band = P(c < |V| < c + k) from Stein's lemma.  V(., g2) is convex,
      so the derivative is monotone; it tends to -C sqrt(delta P(|V| > c))
      / sigma as g1 -> 0, and equals g1 on the hard-feasible slice (chi* = 0,
      V = q).  For large C it jumps there, and the root lands on the jump,
      the hard edge.  ``expand_bracket_root`` brackets the root by doubling
      from the g1 root of the previous g2.  If P(|V| > c) = 0 at g1 = 0,
      V(., g2) increases from g1 = 0, the exact g1 = 0 branch.
    - g2: dW/dg2 = g2 / (1 - delta P_band) - beta/sigma for
      W(g2) = min_g1 V(g1, g2), whose root is the fixed point
      g2 = (beta/sigma)(1 - delta P_band), solved in that form, which stays
      well conditioned as 1 - delta P_band -> 0.  At an interior g1 root
      dW/dg2 is the envelope derivative (delta C / (sigma k)) g2 P_band +
      g2 - beta/sigma; on the hard edge (k = inf, P_band = P(|V| > c)) it
      is the derivative along the edge delta H2(c) = g1^2, where the
      envelope form would be wrong.  The fixed-point residual is < 0 at
      g2 = 0 and >= 0 at g2 = beta/sigma.

    ``tol`` sets the g2 root tolerance (tol * max(1, beta/sigma)); the g1
    and log k roots are solved 1e3 times tighter.  Diagnostics: ``value``
    (V at the optimum), ``value_evals`` (chi-level solves),
    ``expect_evals`` (expectation evaluations), ``chi_residual``
    (|delta E min(h, k)^2 - g1^2|, with E min(h, inf)^2 = H2(c): on the hard
    edge it is the edge residual) and ``stationarity``, the norm of the
    relative fixed-point residuals g2 sigma/beta - (1 - delta P_band) and
    (dV/dg1)/g1 = 1 - C (1 - delta P_band) / (sigma k), the second omitted
    on the hard edge, where dV/dg1 jumps.  These are the gradient scaled
    by (1 - delta P_band)/(beta/sigma) and 1/g1: the gradient itself grows
    like 1/(1 - delta P_band) and would read large at a converged point
    as C -> inf on an infeasible tube.  Always feasible.
    """
    with count_expectations() as counter:
        sol = _ssvr_saddle(prob, tol)
    sol.diagnostics["expect_evals"] = counter.n
    return sol


def _ssvr_saddle(prob, tol):
    sigma, delta, cost, noise = prob.sigma, prob.delta, prob.cost, prob.noise
    b = prob.beta / sigma
    c = prob.eps / sigma
    inner_tol = max(1e-3 * tol, 1e-14)
    warm_g1, warm_k = 0.5, 1.0
    n_values = 0

    def level(g1, g2):
        nonlocal n_values, warm_k
        n_values += 1
        lvl = _chi_level(g1, g2, prob, warm_k, inner_tol)
        if math.isfinite(lvl.k):
            warm_k = lvl.k
        return lvl

    def d_g1(g1, lvl):
        if not math.isfinite(lvl.k):
            return g1
        return g1 * (1.0 - cost * (1.0 - delta * lvl.p_band) / (sigma * lvl.k))

    def fixed_point_g2(g2, lvl):
        return g2 - b * max(1.0 - delta * lvl.p_band, 0.0)

    def g1_level(g2):
        """(argmin over g1 >= 0 of V(., g2), its chi level)."""
        nonlocal warm_g1
        levels = {}

        def at(g1):
            if g1 not in levels:
                levels[g1] = level(g1, g2)
            return levels[g1]

        def slope(g1):
            return d_g1(g1, at(g1))

        p0 = e_hinge_moments(abs(g2), c, noise)[0]
        g1 = 0.0
        if p0 > 0.0:
            # V(., g2) is convex, so its slope rises from its g1 -> 0 limit
            # and changes sign once
            lo, hi, f_lo, f_hi = expand_bracket_root(
                slope, 0.0, warm_g1, _T_CAP, f_lo=-cost * math.sqrt(delta * p0) / sigma)
            xtol = inner_tol * max(1.0, hi)
            g1 = brent_root(slope, lo, hi, f_lo=f_lo, f_hi=f_hi, xtol=xtol)
        if g1 == 0.0:  # the exact g1 = 0 branch, where chi drops out
            return 0.0, _ChiLevel(0.0, _dbar_g1_zero(g2, prob), 0.0, 0.0)
        if slope(g1) < -1e-6 * g1:
            # the root is a jump (large C): the other end of Brent's final
            # bracket, less than 2 xtol above, is on the hard edge, where chi* = 0
            up = g1 + 2.0 * xtol
            if not math.isfinite(at(up).k):
                g1 = up
        warm_g1 = g1
        return g1, levels[g1]

    solved = {}

    def outer(g2):
        solved[g2] = g1_level(g2)
        return fixed_point_g2(g2, solved[g2][1])

    # brent_root returns a point it has evaluated, so solved holds it
    g2 = brent_root(outer, 0.0, b, xtol=tol * max(1.0, b))
    g1, lvl = solved[g2]
    residuals = [fixed_point_g2(g2, lvl) / b]
    if g1 == 0.0:
        chi, chi_residual = None, 0.0
    else:
        # at the saddle sigma k = C (1 - delta P_band), so chi = g1 C / k is
        # g1 sigma / (1 - delta P_band), which stays finite on the hard edge
        u = 1.0 - delta * lvl.p_band
        chi = g1 * sigma / u if u > 0.0 else math.inf
        chi_residual = abs(delta * lvl.emin2 - g1 * g1)
        if math.isfinite(lvl.k):
            residuals.append(d_g1(g1, lvl) / g1)
    risk = sigma ** 2 * (g1 ** 2 + g2 ** 2)
    return AsymptoticSolution(
        g1=g1, g2=g2, risk=risk,
        cosine=_cosine_limit(g1, g2, b),
        feasible=True, chi=chi,
        diagnostics={"value": lvl.value, "value_evals": n_values,
                     "chi_residual": chi_residual,
                     "stationarity": math.hypot(*residuals)},
    )


# ---------------------------------------------------------------------------
# Hyperparameter tuning.
# ---------------------------------------------------------------------------

def _check_tune_delta(delta):
    # before epsilon_star, whose bracket would take delta = inf for a
    # sign change and fail with a message that does not name delta
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError("delta must be finite and strictly positive")


def tune_hsvr(delta, sigma, beta, noise=None):
    """Tube half-width minimizing the limiting hard-SVR risk.

    Searches eps on (epsilon_star(delta) + margin, eps_max), doubling
    eps_max until the risk curve has turned upward.  The risk tends to the
    null value beta^2 as eps -> inf, so eps_max stops at 400 sigma
    (``_TUNE_EPS_CAP``): heavy-tailed cases can have their optimum
    effectively at infinity.  Returns (eps_opt, risk_opt).
    """
    _check_tune_delta(delta)
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
    _check_tune_delta(delta)
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
