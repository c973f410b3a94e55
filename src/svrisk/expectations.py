"""Deterministic evaluation of the Gaussian/noise expectation functionals.

Everything here reduces to expectations of piecewise-polynomial functions of
V = s*G + a*N with G standard normal and N from a ``NoiseModel``:

- hinge-square   E (|V| - c)_+^2
- hinge          E (|V| - c)_+
- huberized hinge E rho_k((|V| - c)_+), rho_k(t) = t^2/2 for t <= k,
  k*t - k^2/2 beyond (the two-branch integrand of the soft-margin saddle
  function collapses to this form)

For Gaussian noise V is normal and every value has a closed form through
the normal cdf, evaluated in scalar ``math`` (the hinge and hinge-square
forms ``_h1_from``/``_h2_from`` are written once; Huber is
(H2(c) - H2(c + k)) / 2).  The scale mixture is N = sqrt(tau) * Z with
tau = d / chi^2_d, so given tau, V is normal with sd sqrt(s^2 + a^2 tau)
and each functional is the zero-mean Gaussian closed form averaged over
tau.  That average is one fixed trapezoid rule in x = log chi^2_d, cached
per (dof, abs_tol); the integrand is smooth in x, so the rule converges
exponentially (Trefethen & Weideman, SIAM Rev. 2014).  The part of E tau
that the truncated rule misses is added back analytically, which keeps
the node count bounded as dof -> 2+.  Monte Carlo is never used; results
are deterministic to ~abs_tol.

The cross-check ``e_hinge_sq_quad2d`` integrates instead over N = x with
panelled Gauss-Legendre on a kink-aware grid plus analytic Student-t
tails; it shares no code with the production mixture rule.

``e_hinge_moments`` evaluates the tail probability P(|V| > c) together
with the hinge and hinge-square at one (s, c) from a single cdf/density
pass; the first-order conditions of the hard- and soft-SVR risk problems
need all three.  ``count_expectations`` counts the expectation evaluations
made in a context (each public functional counts one).

Also included: exact values of two small deterministic maximizations used
as numeric oracles elsewhere (sphere-constrained and box-constrained
soft-thresholded linear forms).
"""

from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, ndtr, stdtr

from .noise import noise_pdf
from .scalar_opt import golden_section_max

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_ZTAIL = 16.0  # conditional == asymptote to ~exp(-128) past this many sigmas


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and accuracy target for the expectation integrals.

    abs_tol: target absolute accuracy of the production scale-mixture
        rule; it sets how far into the heavy tail of the mixing variable
        the rule reaches.
    gauss_nodes_G, mixture_nodes, split_points: Gauss-Legendre nodes per
        panel in the G and noise directions, and extra noise-axis panel
        split locations (kinks are located automatically).  They drive
        only the all-numeric cross-check ``e_hinge_sq_quad2d``.
    """

    gauss_nodes_G: int = 64
    mixture_nodes: int = 20
    abs_tol: float = 1e-9
    split_points: tuple = ()

    def __post_init__(self):
        if self.gauss_nodes_G < 32:
            raise ValueError("gauss_nodes_G must be >= 32")
        if not (0 < self.abs_tol <= 1e-8):
            raise ValueError("abs_tol must be in (0, 1e-8]")
        if self.mixture_nodes < 8:
            raise ValueError("mixture_nodes must be >= 8")


DEFAULT_QUAD = QuadratureSpec()


# ---------------------------------------------------------------------------
# Evaluation counter.
# ---------------------------------------------------------------------------

@dataclass
class EvalCounter:
    """Number of expectation evaluations made inside ``count_expectations``."""

    n: int = 0


_COUNTER = contextvars.ContextVar("svrisk_expect_evals", default=None)


@contextmanager
def count_expectations():
    """Count the expectation evaluations made in this block.

    Yields an ``EvalCounter``.  The counter lives in a context variable, so
    each thread counts only its own calls; a nested block's count is also
    added to the enclosing block's when it exits.
    """
    outer = _COUNTER.get()
    counter = EvalCounter()
    token = _COUNTER.set(counter)
    try:
        yield counter
    finally:
        _COUNTER.reset(token)
        if outer is not None:
            outer.n += counter.n


def _count():
    counter = _COUNTER.get()
    if counter is not None:
        counter.n += 1


def _phi(z):
    return np.exp(-0.5 * z * z) / _SQRT2PI


# ---------------------------------------------------------------------------
# Scale mixture: one trapezoid rule over the mixing variable.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _MixingRule:
    """Nodes tau_j and weights w_j with sum_j w_j f(tau_j) ~ E f(tau).

    miss1 = d/(d-2) - sum w tau is the part of E tau that the truncated
    rule misses.
    """

    tau: np.ndarray
    w: np.ndarray
    miss1: float


@lru_cache(maxsize=64)
def _mixing_rule(dof, abs_tol):
    """Trapezoid rule in x = log chi^2_d for tau = d / chi^2_d.

    As x -> -inf (tau -> inf) the hinge-square grows like
    s^2 + a^2 tau + O(sqrt(tau)) and the hinge and Huber functionals like
    sqrt(tau); ``hinge_sq_mean`` restores the a^2 tau part exactly through
    miss1.  What is left decays against the density like exp((d-1)/2 x),
    and x_lo puts that tail below abs_tol * 1e-4, so the node count stays
    bounded as dof -> 2+.  Outside [log(d - 12 sqrt(2d)),
    log(d + 12 sqrt(2d) + 80)], chi^2_d has mass < exp(-40) (Laurent &
    Massart 2000), and the step resolves the bulk, whose width in x is
    ~ sqrt(2/d).  The weights are normalised to sum 1: the mass outside the
    rule is below abs_tol * 1e-4, while the rounding of the log-density
    grows like 1e-16 * d log d.
    """
    d = float(dof)
    x_lo = math.log(abs_tol * 1e-4) / (0.5 * (d - 1.0))
    u_lo = d - 12.0 * math.sqrt(2.0 * d)
    if u_lo > 0.0:
        x_lo = max(x_lo, math.log(u_lo))
    x_hi = math.log(d + 12.0 * math.sqrt(2.0 * d) + 80.0)
    h = 0.25 * min(1.0, math.sqrt(8.0 / d))
    x = x_lo + h * np.arange(int(math.ceil((x_hi - x_lo) / h)) + 1)
    w = np.exp(0.5 * d * (x - math.log(2.0)) - 0.5 * np.exp(x) - gammaln(0.5 * d))
    w /= w.sum()
    tau = d * np.exp(-x)
    w.flags.writeable = tau.flags.writeable = False  # shared by every caller
    return _MixingRule(tau, w, d / (d - 2.0) - float(w @ tau))


# The hinge moments of V = sd*Z, Z ~ N(0, 1), sd > 0, given q = P(Z > c/sd)
# and ph = phi(c/sd); scalars or arrays.

def _h1_from(sd, c, q, ph):
    """E (|V| - c)_+."""
    return 2.0 * (sd * ph - c * q)


def _h2_from(sd, c, q, ph):
    """E (|V| - c)_+^2."""
    return 2.0 * ((sd * sd + c * c) * q - sd * c * ph)


def _gauss0_moments(sd, c, q, ph):
    """(P(|V| > c), E (|V| - c)_+, E (|V| - c)_+^2)."""
    return 2.0 * q, _h1_from(sd, c, q, ph), _h2_from(sd, c, q, ph)


def _gauss0_hinge_sq(sd, c):
    """E (|sd*Z| - c)_+^2 elementwise."""
    z = c / sd
    return _h2_from(sd, c, ndtr(-z), _phi(z))


def _gauss0_hinge_abs(sd, c):
    """E (|sd*Z| - c)_+ elementwise."""
    z = c / sd
    return _h1_from(sd, c, ndtr(-z), _phi(z))


def _gauss0_scalar(sd, c):
    """(q, ph) = (P(Z > c/sd), phi(c/sd)) for one sd > 0, in scalar math."""
    z = c / sd
    return 0.5 * math.erfc(z / _SQRT2), math.exp(-0.5 * z * z) / _SQRT2PI


# ---------------------------------------------------------------------------
# Student-t partial moments and the half-line panel quadrature (used only by
# the all-numeric cross-check path).
# ---------------------------------------------------------------------------

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


def _half_line_breaks(x_cut, landmarks, width, scale, extra=()):
    """Panel endpoints on [0, x_cut]: kink fans plus a geometric ladder."""
    if x_cut <= 0.0:
        return np.empty(0)
    pts = {0.0, x_cut}
    for p in extra:
        p = abs(float(p))
        if 0.0 < p < x_cut:
            pts.add(p)
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


def _mixture_expect(cond, noise, x_cut, landmarks, width, tail_coeffs, quad):
    """2 * (int_0^x_cut pdf_t(x) cond(x) dx + polynomial tail), cond even in x."""
    d = noise.dof
    scale = math.sqrt(d / (d - 2.0))
    total = 0.0
    if x_cut > 0.0:
        breaks = _half_line_breaks(x_cut, landmarks, width, scale, quad.split_points)
        x, w = _panel_grid(breaks, quad.mixture_nodes)
        total += float(np.dot(w * noise_pdf(noise, x), cond(x)))
    q0, q1, q2 = tail_coeffs
    m0, m1, m2 = student_tail_moments(d, max(x_cut, 0.0))
    total += q0 * m0 + q1 * m1 + q2 * m2
    return 2.0 * total


# ---------------------------------------------------------------------------
# Public expectation operations.
# ---------------------------------------------------------------------------

def hinge_sq_mean(s, a, c, noise, quad=DEFAULT_QUAD):
    """E (|s*G + a*N| - c)_+^2 with G ~ N(0,1) independent of N ~ noise."""
    s, a, c = float(s), float(a), float(c)
    if s < 0 or a < 0 or c < 0:
        raise ValueError("s, a, c must be nonnegative")
    _count()
    if noise.is_gaussian or a == 0.0:  # V is normal with sd = hypot(s, a)
        sd = math.hypot(s, a)
        if sd == 0.0:
            return 0.0
        return _h2_from(sd, c, *_gauss0_scalar(sd, c))
    rule = _mixing_rule(noise.dof, quad.abs_tol)
    sd = np.sqrt(s * s + a * a * rule.tau)
    return float(rule.w @ _gauss0_hinge_sq(sd, c)) + a * a * rule.miss1


def e_hinge_sq(s, c, noise, quad=DEFAULT_QUAD):
    """E (|s*G + N| - c)_+^2, the core functional of the deterministic risk
    problems (noise coefficient fixed to 1)."""
    return hinge_sq_mean(s, 1.0, c, noise, quad)


def e_hinge_abs(s, c, noise, quad=DEFAULT_QUAD):
    """E (|s*G + N| - c)_+."""
    s, c = float(s), float(c)
    if s < 0 or c < 0:
        raise ValueError("s, c must be nonnegative")
    _count()
    if noise.is_gaussian:
        sd = math.hypot(s, 1.0)
        return _h1_from(sd, c, *_gauss0_scalar(sd, c))
    rule = _mixing_rule(noise.dof, quad.abs_tol)
    return float(rule.w @ _gauss0_hinge_abs(np.sqrt(s * s + rule.tau), c))


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


def e_hinge_moments(s, c, noise, quad=DEFAULT_QUAD):
    """(P(|V| > c), E (|V| - c)_+, E (|V| - c)_+^2) for V = s*G + N.

    One cdf/density pass gives all three: the Gaussian branch in scalar
    math, the scale mixture in one vector pass over the mixing rule.  The
    hinge values equal ``e_hinge_abs`` and ``e_hinge_sq``; the tail
    probability is the c-derivative -dH1/dc and, by Stein's lemma,
    dH2/ds = 2 s P.
    """
    s, c = float(s), float(c)
    if s < 0 or c < 0:
        raise ValueError("s, c must be nonnegative")
    _count()
    if noise.is_gaussian:
        # _gauss0_scalar inlined: this is the inner loop of both risk
        # solvers, and the extra call costs about 20 % of it
        sd = math.hypot(s, 1.0)
        z = c / sd
        return _gauss0_moments(sd, c, 0.5 * math.erfc(z / _SQRT2),
                               math.exp(-0.5 * z * z) / _SQRT2PI)
    rule = _mixing_rule(noise.dof, quad.abs_tol)
    sd = np.sqrt(s * s + rule.tau)
    z = c / sd
    p, h1, h2 = _gauss0_moments(sd, c, ndtr(-z), _phi(z))
    w = rule.w
    return float(w @ p), float(w @ h1), float(w @ h2) + rule.miss1


def e_tail_prob(s, c, noise, quad=DEFAULT_QUAD):
    """P(|s*G + N| > c)."""
    return e_hinge_moments(s, c, noise, quad)[0]


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


# ---------------------------------------------------------------------------
# All-numeric cross-check path (both directions integrated numerically).
# ---------------------------------------------------------------------------

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


def e_hinge_sq_quad2d(s, c, noise, quad=DEFAULT_QUAD):
    """E (|s*G + N| - c)_+^2 with both integrals done numerically.

    Cross-check for the closed-form/semi-analytic production path; the
    tensor quadrature splits the inner G panels at the hinge kinks.
    """
    s, c = float(s), float(c)
    if s == 0.0:
        return e_hinge_sq(s, c, noise, quad)
    ng = quad.gauss_nodes_G

    def cond(xs):
        return np.array([_cond_hinge_sq_numeric(x, s, c, ng) for x in np.atleast_1d(xs)])

    if noise.is_gaussian:
        x_cut = c + 12.0 * s + 12.0
        breaks = _half_line_breaks(x_cut, (c,), s, 1.0, quad.split_points)
        x, w = _panel_grid(breaks, quad.mixture_nodes)
        central = float(np.dot(w * _phi(x), cond(x)))
        m0 = float(ndtr(-x_cut))
        m1 = float(_phi(x_cut))
        m2 = m0 + x_cut * m1
        q0, q1, q2 = s * s + c * c, -2.0 * c, 1.0
        return 2.0 * (central + q0 * m0 + q1 * m1 + q2 * m2)
    x_cut = c + _ZTAIL * s
    tail = (s * s + c * c, -2.0 * c, 1.0)
    return _mixture_expect(cond, noise, x_cut, (c,), s, tail, quad)


# ---------------------------------------------------------------------------
# Deterministic maximization values used as dual-side oracles.
# ---------------------------------------------------------------------------

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
