"""Deterministic evaluation of the Gaussian/noise expectation functionals.

Everything here reduces to expectations of piecewise-polynomial functions of
V = s*G + a*N with G standard normal and N from a ``NoiseModel``:

- hinge-square   E (|V| - c)_+^2
- hinge          E (|V| - c)_+
- tail probability P(|V| > c)

For Gaussian noise V is normal and every value has a closed form through
the normal cdf, written once, in scalar ``math``, in ``e_hinge_moments``.
The scale mixture is N = sqrt(tau) * Z with tau = d / chi^2_d, so given
tau, V is normal with sd sqrt(s^2 + a^2 tau) and each functional is the
zero-mean Gaussian closed form averaged over tau.  That average is one
fixed trapezoid rule in x = log chi^2_d, cached per dof, with a fixed
absolute accuracy of 1e-9 (``_ABS_TOL``); the integrand is smooth in x,
so the rule converges exponentially (Trefethen & Weideman, SIAM Rev.
2014).  The part of E tau that the truncated rule misses is added back
analytically, which keeps the node count bounded as dof -> 2+.  This is
the package's one quadrature rule; Monte Carlo is never used, and results
are deterministic to ~1e-9.

Every mixture functional comes from one fused pass over the rule
(``_mixture_moments``): it forms sd, q = P(Z > c/sd) and phi(c/sd)
once per node, and three weighted sums Q = sum w q,
A = sum w sd phi and T = sum w tau q, from which the tail probability,
hinge and hinge-square follow in closed form.  On request a fourth sum,
sum w phi / sd^3, gives the tail probability's slope in s, and a fifth,
sum w phi / sd, the density of |V| at c.

Two public functionals are built on these forms:

- ``e_hinge_moments(s, c, noise)``, the package's one expectation entry
  point: the tail probability P(|V| > c), hinge and hinge-square at
  a = 1 from a single pass.  The first-order conditions of the hard- and
  soft-SVR risk problems need all three, so the risk solvers call only
  this.  ``tail_slope=True`` adds dP/ds for the Jacobians of the hard-
  and soft-SVR Newton solves, and ``density=True`` the density of |V|
  at c for the soft one; no other caller pays for them.
- ``hinge_sq_mean(s, a, c, noise)``, the hinge-square for a general
  noise coefficient a: the objective E (|G + t sigma N| - t eps)_+^2 of
  delta_star's definition at (1, t sigma, t eps).  Its normal branch is
  ``e_hinge_moments`` rescaled by sd = hypot(s, a).

``count_expectations`` counts the expectation evaluations made in a
context (each call of a public functional counts one).
"""

from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .noise import standard_gaussian

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_STANDARD_NORMAL = standard_gaussian()
# scipy.special.ndtr, bound by the first ``_mixing_rule``: Gaussian-only
# use never imports scipy
_ndtr = None


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


# ---------------------------------------------------------------------------
# Scale mixture: one trapezoid rule over the mixing variable.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _MixingRule:
    """Nodes tau_j and weights w_j with sum_j w_j f(tau_j) ~ E f(tau).

    w2 stacks the rows w and w * tau, so that one product gives both
    sum w q and sum w tau q.  miss1 = d/(d-2) - sum w tau is the part of
    E tau that the truncated rule misses.
    """

    tau: np.ndarray
    w: np.ndarray
    w2: np.ndarray
    miss1: float


# Absolute accuracy of the mixture rule.  The risk limits are printed to
# 9 significant digits, and a rule 1000x finer (abs_tol = 1e-12) moves
# delta_star, hsvr_risk and ssvr_risk on d in [2.1, 30] by at most
# ~2e-10 relative, except where delta_star = 1/f with f ~ 1e-7: there a
# 1e-14 shift of f moves the 8th digit.
_ABS_TOL = 1e-9


@lru_cache(maxsize=64)
def _mixing_rule(dof, abs_tol):
    """Trapezoid rule in x = log chi^2_d for tau = d / chi^2_d.

    As x -> -inf (tau -> inf) the hinge-square grows like
    s^2 + a^2 tau + O(sqrt(tau)) and the hinge like sqrt(tau);
    ``_mixture_moments`` restores the a^2 tau part exactly through miss1.
    What is left decays against the density like exp((d-1)/2 x), and x_lo
    puts that tail below abs_tol * 1e-4, so the node count stays bounded
    as dof -> 2+.  Outside [log(d - 12 sqrt(2d)),
    log(d + 12 sqrt(2d) + 80)], chi^2_d has mass < exp(-40) (Laurent &
    Massart 2000), and the step resolves the bulk, whose width in x is
    ~ sqrt(2/d).  The weights are normalised to sum 1: the mass outside the
    rule is below abs_tol * 1e-4, while the rounding of the log-density
    grows like 1e-16 * d log d.  The first rule built imports
    scipy.special.
    """
    global _ndtr
    from scipy.special import gammaln, ndtr

    _ndtr = ndtr
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
    w2 = np.stack([w, w * tau])
    for arr in (tau, w, w2):
        arr.flags.writeable = False  # shared by every caller
    return _MixingRule(tau, w, w2, d / (d - 2.0) - float(w @ tau))


def _mixture_moments(s, a, c, rule, tail_slope=False, density=False):
    """(P, H1, H2) for V = s*G + a*N on the scale mixture ``rule``, a > 0.

    P = P(|V| > c), and H1, H2 the hinge and hinge-square.  One pass over
    the mixing rule: given tau_j, V is normal with sd_j^2 = s^2 + a^2 tau_j
    (formed directly: rescaling by a overflows as a -> 0),
    q_j = P(V > c | tau_j) and phi_j = phi(c / sd_j), and three weighted
    sums Q = sum w q, T = sum w tau q (one product with the rule's w2) and
    A = sum w sd phi give P = 2Q, H1 = 2(A - cQ) and
    H2 = 2((s^2 + c^2) Q + a^2 T - cA) + a^2 miss1.  The miss1 term
    restores the truncated tail tau -> inf, where h2 ~ a^2 tau.  With
    ``tail_slope`` a fourth value, dP/ds = 2 c s sum w phi / sd^3, and with
    ``density`` the density of |V| at c, -dP/dc = 2 sum w phi / sd, cost
    one more weighted sum each.
    """
    a2 = a * a
    sd2 = s * s + a2 * rule.tau
    sd = np.sqrt(sd2)
    q = _ndtr(-c / sd)
    qsum, tsum = (rule.w2 @ q).tolist()
    ex = np.exp((-0.5 * c * c) / sd2)
    asum = float(rule.w @ (sd * ex)) / _SQRT2PI
    moments = (2.0 * qsum, 2.0 * (asum - c * qsum),
               2.0 * ((s * s + c * c) * qsum + a2 * tsum - c * asum) + a2 * rule.miss1)
    if tail_slope:
        moments += (2.0 * c * s * float(rule.w @ (ex / (sd * sd2))) / _SQRT2PI,)
    if density:
        moments += (2.0 * float(rule.w @ (ex / sd)) / _SQRT2PI,)
    return moments


# The hinge moments of V = sd*Z, Z ~ N(0, 1), sd > 0, given q = P(Z > c/sd)
# and ph = phi(c/sd), for the Gaussian branch.

def _h1_from(sd, c, q, ph):
    """E (|V| - c)_+."""
    return 2.0 * (sd * ph - c * q)


def _h2_from(sd, c, q, ph):
    """E (|V| - c)_+^2."""
    return 2.0 * ((sd * sd + c * c) * q - sd * c * ph)


# ---------------------------------------------------------------------------
# Public expectation operations.
# ---------------------------------------------------------------------------

def e_hinge_moments(s, c, noise, *, tail_slope=False, density=False):
    """(P(|V| > c), E (|V| - c)_+, E (|V| - c)_+^2) for V = s*G + N.

    One cdf/density pass gives all three: the Gaussian branch in scalar
    math, the scale mixture in one pass over the mixing rule
    (``_mixture_moments``).  The tail probability is the c-derivative
    -dH1/dc and, by Stein's lemma, dH2/ds = 2 s P.  With ``tail_slope``
    dP/ds = 2 c s phi(c/sd)/sd^3 follows, and with ``density`` the density
    of |V| at c, -dP/dc = 2 phi(c/sd)/sd, each averaged over the mixture
    (sd^2 = s^2 + tau) and appended in that order.  The hard-SVR Newton
    step needs dP/ds, the soft one both; no other caller pays for them.
    """
    s, c = float(s), float(c)
    if s < 0 or c < 0:
        raise ValueError("s, c must be nonnegative")
    _count()
    if noise.is_gaussian:
        sd = math.hypot(s, 1.0)
        z = c / sd
        q = 0.5 * math.erfc(z / _SQRT2)
        ph = math.exp(-0.5 * z * z) / _SQRT2PI
        moments = 2.0 * q, _h1_from(sd, c, q, ph), _h2_from(sd, c, q, ph)
        if tail_slope:
            moments += (2.0 * ph * z * s / (sd * sd),)
        if density:
            moments += (2.0 * ph / sd,)
        return moments
    rule = _mixing_rule(noise.dof, _ABS_TOL)
    return _mixture_moments(s, 1.0, c, rule, tail_slope, density)


def hinge_sq_mean(s, a, c, noise):
    """E (|s*G + a*N| - c)_+^2 with G ~ N(0,1) independent of N ~ noise."""
    s, a, c = float(s), float(a), float(c)
    if s < 0 or a < 0 or c < 0:
        raise ValueError("s, a, c must be nonnegative")
    if noise.is_gaussian or a == 0.0:  # V is normal with sd = hypot(s, a)
        sd = math.hypot(s, a)
        # past c = 40 sd the tail underflows and the value is exactly 0
        # (also for sd = 0), while c / sd could overflow
        if c < 40.0 * sd:
            return sd * sd * e_hinge_moments(0.0, c / sd, _STANDARD_NORMAL)[2]
        _count()
        return 0.0
    _count()
    return _mixture_moments(s, a, c, _mixing_rule(noise.dof, _ABS_TOL))[2]
