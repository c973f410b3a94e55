"""Deterministic evaluation of the Gaussian/noise expectation functionals.

Everything here reduces to expectations of piecewise-polynomial functions of
V = s*G + a*N with G standard normal and N from a ``NoiseModel``:

- hinge-square   E (|V| - c)_+^2
- hinge          E (|V| - c)_+
- tail probability P(|V| > c)

For Gaussian noise V is normal and every value has a closed form through
the normal cdf, evaluated in scalar ``math`` (the hinge and hinge-square
forms ``_h1_from``/``_h2_from`` are written once).  The scale mixture is
N = sqrt(tau) * Z with tau = d / chi^2_d, so given tau, V is normal with
sd sqrt(s^2 + a^2 tau) and each functional is the zero-mean Gaussian
closed form averaged over tau.  That average is one fixed trapezoid rule
in x = log chi^2_d, cached per (dof, abs_tol); the integrand is smooth
in x, so the rule converges exponentially (Trefethen & Weideman, SIAM
Rev. 2014).  The part of E tau that the truncated rule misses is added
back analytically, which keeps the node count bounded as dof -> 2+.
This is the package's one quadrature rule; Monte Carlo is never used,
and results are deterministic to ~abs_tol.

``e_hinge_moments`` evaluates the tail probability P(|V| > c) together
with the hinge and hinge-square at one (s, c) from a single cdf/density
pass; the first-order conditions of the hard- and soft-SVR risk problems
need all three.  ``count_expectations`` counts the expectation evaluations
made in a context (each public functional counts one).
"""

from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, ndtr

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy target for the expectation integrals.

    abs_tol: target absolute accuracy of the scale-mixture rule; it sets
        how far into the heavy tail of the mixing variable the rule
        reaches.  Gaussian noise has closed forms and ignores it.
    """

    abs_tol: float = 1e-9

    def __post_init__(self):
        if not (0 < self.abs_tol <= 1e-8):
            raise ValueError("abs_tol must be in (0, 1e-8]")


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
    s^2 + a^2 tau + O(sqrt(tau)) and the hinge like sqrt(tau);
    ``hinge_sq_mean`` restores the a^2 tau part exactly through miss1.
    What is left decays against the density like exp((d-1)/2 x), and x_lo
    puts that tail below abs_tol * 1e-4, so the node count stays bounded
    as dof -> 2+.  Outside [log(d - 12 sqrt(2d)),
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
