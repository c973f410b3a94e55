"""Finite-sample SVR solvers, ridge baseline, and moment estimators.

Both SVR variants are solved through the same concave dual

    F(u) = -(1/2p) u'X'Xu + (1/sqrt p) y'u - (eps/sqrt p) ||u||_1,

maximized over all of R^n for the hard tube constraint and over the box
|u_i| <= C/sqrt(p) for the soft one.  The primal weights are recovered as
w = X u / sqrt(p).  The maximization uses accelerated proximal gradient
ascent (soft-threshold prox, box clipping for the soft case) with a
monotone safeguard and growth/backtracking steps.  An iteration makes
one n x n product per backtracking trial (usually a single trial).  Each
accepted iterate a and its product k a are the two rows of one 2 x n
array, so the extrapolated point v = a + m (a - u) and its product k v
= k a + m (k a - k u) take three whole-array operations on the products
of the last two accepted iterates; the gradient at v is y/sqrt p - k v/p,
and y'v = (1 + m) y'a - m y'u comes from the two iterates' own dots, so
the objective at v costs the one dot v'kv.  The step starts from the
leading-order largest eigenvalue of X'X for an i.i.d. design, (mean
squared entry) (sqrt n + sqrt p)^2 (Geman, 1980), formed only when the
ascent runs, and backtracking settles it: a step that starts too large
costs one product per halving, once, and one that starts too small is
recovered by the growth.  The loop writes into buffers reused across
iterations, with ``ndarray.dot`` (the BLAS kernel of ``@`` without
matmul's per-call overhead) and Python-float scalars: about 20 numpy
calls per iteration, 21 for a soft fit.

An infeasible hard instance has an unbounded dual.  Unboundedness is
certified exactly: the tube is empty iff some direction v with X v = 0
has y'v - eps ||v||_1 > 0 (the dual objective then grows linearly along
v forever).  Every 25-iteration check of a hard solve that neither the
gap test nor the polish has ended projects the iterate onto null(X) and
tests the projection against that criterion; no other rule returns
"infeasible".  The projector is factored at most once per design, at
the first such test, so a fit that converges at its first check never
builds it; a ``Design`` keeps it, and X'X, for every fit on the design.

The same checks watch the sign pattern of the iterate (and, for the soft
problem, which coordinates sit on the box).  At the first check, and
whenever the pattern has held for one check, a polish solves the KKT
system on that pattern and repairs the pattern from the solution, as a
primal-dual active-set method does (Hintermueller, Ito & Kunisch, 2002):
up to 30 repairs, until the pattern stops changing, with a one-at-a-time
fallback against cycling.  A pattern that stops changing gives an exact
KKT point, scored by the product the last repair formed; it ends the
fit if its duality gap and violation are within tol, and otherwise it
leaves no trace: the ascent goes on from its own iterate.  Most fits
that run the ascent stop at the first check.  The forced check at
max_iters tests convergence and infeasibility but does not polish.  A
fit returns the weights, gap and violation that its exit test computed
for the returned dual; only an "infeasible" fit, or one whose dual no
test has seen, computes them at the exit.

A cold fit (no converged start) with n <= p polishes the all-zero
pattern before any ascent; its first repair enters every coordinate with
|y_i| > eps with sign(y_i).  For a generic design with n <= p the tube is
feasible and X'X nonsingular, and the repairs often reach the final
pattern.  The guess takes full repairs only while they shrink and gives
up where the polish would fall back to one-at-a-time repairs: on the
figure presets those cost more KKT solves than the ascent they save.  A
candidate that passes the check's test returns at iteration 0;
otherwise the ascent runs from u = 0, and the attempt's KKT solves
still count.  With n > p the guess is not tried, as it rarely
certifies there.

A fit may start from a converged fit on the same design at another eps,
C, beta or sigma.  On a fixed sign/box pattern the dual solution is
piecewise linear in eps and in 1/C and affine in y (the solution paths
of Hastie, Rosset, Tibshirani & Zhu, JMLR 2004, and Gunter & Zhu,
Neural Comput. 2007), so the previous fit's final pattern is usually
this fit's: it is polished before the ascent (instead of the zero
pattern), and a candidate that passes the check's test returns at
iteration 0.  Otherwise the ascent runs from u = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .noise import sample_noise_rng, standard_gaussian

_STEP_GROWTH = 1.3  # step growth every third iteration
_STEP_SHRINK = 0.5  # backtracking factor
_CHECK_EVERY = 25  # iterations between convergence, certificate and pattern checks
_POLISH_REPAIRS = 30  # pattern repairs after a polish's first KKT solve
_RIDGE_LAMBDAS = np.logspace(-4.0, 6.0, 60)  # oracle_ridge's coarse grid


@dataclass
class Dataset:
    """Synthetic regression instance y_i = truth . x_i + sigma * n_i.

    features holds the p x n design (columns are samples).  design is the
    ``Design`` the instance was built on, if any: the dual solvers then
    take X'X and the null(X) projector from it.
    """

    features: np.ndarray
    responses: np.ndarray
    truth: np.ndarray
    design: Design | None = field(default=None, repr=False, compare=False)

    @property
    def p(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]


@dataclass
class SvrFit:
    """Solver output: primal weights, dual vector, and certificates.

    status: "converged", "infeasible" (hard tube; the null(X) projection
    of dual is a Farkas direction proving the tube empty) or
    "max_iters".  kkt_residual is the relative duality gap at exit;
    constraint_violation is max (|residual| - eps)_+ for the hard tube
    and the box overshoot for the soft one.  The work counters split a
    fit's cost: polish_solves counts the active-set KKT solves, pattern
    repairs included (each with one more product by the n x n Gram
    matrix); gram_products the n x n products of the gradient phase, one
    per backtracking trial;
    projector_builds whether this fit factored the null(X) projector (0 or
    1; a fit on a ``Design`` reuses one an earlier fit built).  pattern is
    the dual's final sign/box pattern (``_active_pattern``), the one a
    fit started from this one polishes first.  iterations is 0 for a fit
    certified before the ascent: by such a start or, for a cold fit with
    n <= p, by the polish of the zero pattern (see ``_solve_dual``).
    """

    weights: np.ndarray
    dual: np.ndarray
    status: str
    iterations: int
    kkt_residual: float
    constraint_violation: float
    polish_solves: int = 0
    gram_products: int = 0
    projector_builds: int = 0
    pattern: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration caps and tolerances for the dual ascent."""

    max_iters: int = 100_000
    tol: float = 1e-8


DEFAULT_CONFIG = SolverConfig()


class Design:
    """One draw of the design, the truth direction and the unit noise.

    X is p x n with i.i.d. standard-normal entries, n = floor(delta * p);
    the truth direction is uniform on the sphere and the n noise draws
    come from ``noise``.  They are drawn once, from the three children of
    ``seed`` (an int or a SeedSequence) in that order, and ``dataset``
    builds the instance for any (beta, sigma) from them.  The dual
    solvers keep X'X and the null(X) projector here, so every fit on the
    design computes each at most once.  X is read-only: the datasets
    share it.
    """

    def __init__(self, p, delta, noise=None, seed=0):
        if not math.isfinite(delta):
            raise ValueError("delta must be finite")
        noise = noise or standard_gaussian()
        n = int(np.floor(delta * p))
        if n < 1:
            raise ValueError(f"floor(delta * p) = {n}; need at least one sample")
        if isinstance(seed, np.random.SeedSequence):
            ss = seed
        else:
            ss = np.random.SeedSequence(int(seed))
        kid_x, kid_dir, kid_noise = ss.spawn(3)
        self.features = np.random.default_rng(kid_x).standard_normal((p, n))
        self.features.flags.writeable = False
        self.direction = np.random.default_rng(kid_dir).standard_normal(p)
        self._direction_norm = np.linalg.norm(self.direction)
        self.draws = sample_noise_rng(noise, n, np.random.default_rng(kid_noise))
        self._gram = None
        self._projector = None  # (projector,) once factored

    def dataset(self, beta, sigma):
        """y = X'truth + sigma * draws with ||truth|| = beta exactly.

        sigma and beta must be finite and nonnegative: a NaN sigma or
        beta would send the dual solver to its iteration cap.
        """
        if not (math.isfinite(sigma) and math.isfinite(beta)):
            raise ValueError("sigma, beta must be finite")
        if sigma < 0 or beta < 0:
            raise ValueError("sigma, beta must be nonnegative")
        x, v = self.features, self.direction
        truth = beta * v / self._direction_norm
        y = x.T @ truth + sigma * self.draws
        return Dataset(features=x, responses=y, truth=truth, design=self)

    def gram(self):
        """k = X'X, formed at the first call."""
        if self._gram is None:
            self._gram = self.features.T @ self.features
        return self._gram

    def null_projector(self):
        """(``_null_projector`` of the design, 1 if this call factored it
        and 0 if an earlier one did)."""
        if self._projector is not None:
            return self._projector[0], 0
        self._projector = (_null_projector(self.features, self.gram()),)
        return self._projector[0], 1


def generate_dataset(p, delta, beta, sigma, noise=None, seed=0):
    """The instance of ``Design(p, delta, noise, seed)`` at (beta, sigma).

    It is not linked to the design (``design`` is None): a lone instance
    keeps no n x n X'X alive after its fits, and nothing caches X'X from
    its features, so they are writable.
    """
    data = Design(p, delta, noise, seed).dataset(beta, sigma)
    data.features.flags.writeable = True
    return replace(data, design=None)


# ---------------------------------------------------------------------------
# Dual ascent machinery.
# ---------------------------------------------------------------------------

def _active_pattern(u, box):
    """Per-coordinate pattern of a dual iterate, as int8.

    0 off the support (|u_i| <= 1e-9 max |u|), sign(u_i) on it, and
    2 sign(u_i) where a soft coordinate sits on the box.
    """
    mag = np.abs(u)
    pattern = np.sign(u) * (mag > 1e-9 * max(mag.max(), 1e-30))
    if box is not None:
        pattern *= 1.0 + (mag >= box * (1.0 - 1e-9))
    return pattern.astype(np.int8)


def _polish(pattern, k, y, p, eps, box, fallback=True):
    """Primal-dual active-set solve from a starting pattern.

    Returns (candidate, k candidate, solves); the product is the one the
    last repair formed.  Free coordinates (|pattern| = 1) satisfy
    r_i = eps * sign(u_i), with r = y - k u / sqrt(p); soft coordinates on
    the box (|pattern| = 2) stay there; the rest are 0.  After each KKT
    solve the pattern is repaired: a free coordinate whose sign flipped
    goes to 0, one past the box is pinned at it, a box coordinate with
    r_i s_i < eps is freed, and a zero coordinate with |r_i| > eps enters
    with sign(r_i).  A full repair is taken only while it changes fewer
    coordinates than every repair before it; otherwise only the worst
    violator changes (the one-at-a-time safeguard that keeps a
    primal-dual active-set method from cycling).  A violation is the
    distance of s_i u_i from [0, box] for a free coordinate, of |r_i| from
    [0, eps] for a zero one and of s_i r_i from [eps, inf) for one on the
    box.  With fallback False the polish gives up instead of taking a
    one-at-a-time repair: the candidate is None.  The candidate is
    returned once the pattern stops changing, within _POLISH_REPAIRS
    repairs; otherwise it is None.  It is None, before
    any further solve, once more than p coordinates are free: K_II =
    X_I'X_I has rank at most p for any design, so it is then singular,
    and ``np.linalg.solve`` would return a near-singular answer instead
    of raising.  The caller accepts a candidate only if it certifies it.
    """
    sp = np.sqrt(p)
    cap = np.inf if box is None else box
    solves = 0
    fewest = None  # fewest coordinates a repair has changed so far
    for _ in range(_POLISH_REPAIRS + 1):
        mag = np.abs(pattern)
        idx = (mag == 1).nonzero()[0]
        if idx.size > p:
            return None, None, solves
        sgn = pattern[idx].astype(float)
        rhs = sp * (y[idx] - eps * sgn)
        u_new = np.zeros(len(pattern))
        if box is not None:
            at_box = (mag == 2).nonzero()[0]
            s_box = np.sign(pattern[at_box]).astype(float)
            u_new[at_box] = s_box * box
            rhs = rhs - k.take(idx, 0).take(at_box, 1) @ u_new[at_box]
        if idx.size:
            solves += 1
            try:
                u_new[idx] = np.linalg.solve(k.take(idx, 0).take(idx, 1), rhs)
            except np.linalg.LinAlgError:
                return None, None, solves
        ku = k @ u_new
        r = y - ku / sp
        r_mag = np.abs(r)
        s_sol = u_new[idx] * sgn  # s_i u_i of the free coordinates
        repaired = np.copysign(r_mag > eps, r)  # zeros entering, with sign(r_i)
        kept = sgn * (s_sol > 0.0)  # a free coordinate keeps its sign while s_i u_i > 0
        if box is not None:
            kept *= 1.0 + (s_sol > box)  # doubled past the box
            s_r_box = r[at_box] * s_box
            repaired[at_box] = s_box * (1.0 + (s_r_box >= eps))
        repaired[idx] = kept
        repaired = repaired.astype(np.int8)
        changed = (repaired != pattern).nonzero()[0]
        if not changed.size:
            return u_new, ku, solves
        if fewest is None or changed.size < fewest:
            fewest = changed.size
            pattern = repaired
            continue
        if not fallback:
            return None, None, solves
        excess = r_mag - eps
        excess[idx] = np.maximum(-s_sol, s_sol - cap)
        if box is not None:
            excess[at_box] = eps - s_r_box
        worst = changed[np.argmax(excess[changed])]
        pattern = pattern.copy()
        pattern[worst] = repaired[worst]
    return None, None, solves


def _null_projector(x, k):
    """Factors (a, m) such that u - a @ (m @ (a' u)) projects u onto null(X);
    m None stands for the identity.

    k is X'X.  None when null(X) = {0}, which holds when the smaller Gram
    matrix (k for n <= p, XX' otherwise, formed here) has a Cholesky
    factor.  With n > p and a full-rank design the factors are X' and
    (XX')^-1, so a projection costs three matrix-vector products, two of
    them p x n.  A rank-deficient design (for instance duplicated samples)
    takes an orthonormal range basis a of X' from an eigendecomposition of
    k instead, with m None.
    """
    p, n = x.shape
    try:
        if n <= p:
            np.linalg.cholesky(k)
            return None
        gram = x @ x.T
        np.linalg.cholesky(gram)
        return x.T, np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        pass
    evals, vecs = np.linalg.eigh(k)
    return vecs[:, evals > 1e-10 * max(evals[-1], 1.0)], None


def _farkas_direction(projector, u, x, y, eps, x_norm, y_max):
    """True when the null(X) projection v of u proves the tube empty.

    Requires y'v - eps ||v||_1 > 1e-8 ||v||_1 (1 + max|y|), a leak
    ||X v|| <= 1e-8 ||X||_F ||v|| and ||v|| >= 1e-6 ||u||, so that v is
    an exact Farkas direction up to round-off: for every w,
    max_i |y_i - x_i'w| >= (y'v - w'Xv) / ||v||_1 > eps.  x_norm is
    ||X||_F and y_max is max|y|, formed once per fit; each norm is
    sqrt(v.v), as ``np.linalg.norm`` computes it.
    """
    a, m = projector
    coef = a.T.dot(u)
    v = u - a.dot(coef if m is None else m.dot(coef))
    nv = math.sqrt(v.dot(v))
    if nv == 0.0 or nv < 1e-6 * math.sqrt(u.dot(u)):
        return False
    l1 = float(np.abs(v).sum())
    gain = float(y.dot(v)) - eps * l1
    if not gain > 1e-8 * l1 * (1.0 + y_max):
        return False
    xv = x.dot(v)
    return math.sqrt(xv.dot(xv)) <= 1e-8 * x_norm * nv


def _solve_dual(data: Dataset, eps, box, cfg: SolverConfig, start=None):
    """Shared accelerated ascent; ``box`` is C/sqrt(p) or None (hard).

    A converged ``start`` on the same design has its final pattern
    polished first; a cold fit with n <= p polishes the zero pattern,
    without the one-at-a-time fallback.  The candidate is accepted under
    the checks' own test (gap and violation <= tol): the fit then returns
    with iterations 0.  Otherwise the ascent runs from u = 0; the
    attempt's KKT solves still count.
    """
    x, y = data.features, data.responses
    p, n = data.p, data.n
    sp = math.sqrt(p)
    design = data.design if data.design is not None and data.design.features is x else None
    k = design.gram() if design is not None else x.T @ x
    projector, projector_builds, farkas_ready = None, 0, False  # at the first Farkas test
    x_norm = y_max = None  # ||X||_F and max|y|, with the projector
    gram_products = polish_solves = 0

    def objective(u, ku):
        return float(-0.5 * u.dot(ku) / p + y.dot(u) / sp - eps * np.abs(u).sum() / sp)

    def primal_gap(u, dval):
        w = x.dot(u) / sp
        r = y - x.T.dot(w)
        viol = max(np.abs(r).max() - eps, 0.0)
        if box is None:
            pval = 0.5 * float(w.dot(w))
        else:
            cost = box * sp  # recover C
            pval = 0.5 * float(w.dot(w)) + cost / p * float(np.maximum(np.abs(r) - eps, 0.0).sum())
            viol = 0.0  # soft problem is unconstrained in w
        gap = abs(pval - dval) / max(1.0, abs(pval))
        return w, viol, gap

    def certified(cert):
        """The check's test on a ``primal_gap``: gap and violation <= tol."""
        return cert[2] <= cfg.tol and cert[1] <= cfg.tol

    def polish(pattern, fallback=True):
        """(candidate, its objective, its ``primal_gap``) from a polish of
        pattern if the check's test certifies it, else None."""
        nonlocal polish_solves
        pol, k_pol, solves = _polish(pattern, k, y, p, eps, box, fallback)
        polish_solves += solves
        if pol is None:
            return None
        f_pol = objective(pol, k_pol)
        cert = primal_gap(pol, f_pol)
        return (pol, f_pol, cert) if certified(cert) else None

    # The state is stacked: U = [u; k u] holds the last accepted iterate and
    # its product, C = [cand; k cand] the trial, and the extrapolated point
    # [v; k v] = C + m (C - U) is thus a combination of the two latest trial
    # products, each a fresh matvec, so no rounding accumulates; likewise
    # y'v = (1 + m) y'c - m y'u from the trials' own dots.  Each accepted
    # trial keeps its fresh C: best_u and the Farkas test refer to its first
    # row.
    U = np.zeros((2, n))
    u = v = U[0]
    kv = U[1]
    yu = yv = 0.0  # y'u and y'v
    f_u = 0.0
    t_momentum = 1.0
    best_u, best_f = u, f_u
    grow_since = 0
    status = "max_iters"
    iterations = cfg.max_iters
    pattern, polished = None, set()
    cert = None  # primal_gap(best_u, best_f), or None until a check computes it

    if start is not None and (start.pattern is None or start.pattern.shape != (n,)):
        raise ValueError("start must be a fit on the same design")
    found = None
    if start is not None and start.status == "converged":
        found = polish(start.pattern)
    elif n <= p:  # cold: the zero pattern, full repairs only
        found = polish(np.zeros(n, np.int8), fallback=False)
    if found is not None:
        best_u, best_f, cert = found
        status, iterations = "converged", 0
    else:  # the ascent runs: its step from lambda_max(k) ~ the Geman estimate
        lam = np.trace(k) / (n * p) * (np.sqrt(n) + np.sqrt(p)) ** 2
        step = float(1.0 / max(lam / p, 1e-12))
        y_sp = y / sp
        eps_sp = eps / sp
        grad, z, mag, diff = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
        v_buf = np.empty((2, n))
        v_rows = v_buf[0], v_buf[1]
        # the loop's numpy functions and methods, looked up once
        divide, subtract, multiply, absolute = np.divide, np.subtract, np.multiply, np.abs
        maximum, minimum, copysign, empty = np.maximum, np.minimum, np.copysign, np.empty
        k_dot, y_dot = k.dot, y.dot

    # One numpy call per operation of grad = y/sqrt p - k v/p, z = v + step
    # grad, cand = copysign(min((|z| - step (eps/sqrt p))_+, box), z) and
    # [v; k v] = C + m (C - U), into buffers reused across iterations.  A
    # zero entry of cand may be -0.0; the pattern and every norm read it as 0.
    for it in range(1, cfg.max_iters + 1):
        if status == "converged":  # certified from the start
            break
        divide(kv, p, out=grad)
        subtract(y_sp, grad, out=grad)
        f_v_smooth = -0.5 * float(v.dot(kv)) / p + yv / sp
        C = empty((2, n))
        cand, k_cand = C[0], C[1]
        # backtracking on the smooth majorization, with growth after streaks
        for _ in range(60):
            multiply(grad, step, out=z)
            z += v
            absolute(z, out=mag)
            mag -= step * eps_sp
            maximum(mag, 0.0, out=mag)
            if box is not None:
                minimum(mag, box, out=mag)
            copysign(mag, z, out=cand)
            subtract(cand, v, out=diff)
            k_dot(cand, out=k_cand)
            gram_products += 1
            yc = float(y_dot(cand))
            smooth_cand = -0.5 * float(cand.dot(k_cand)) / p + yc / sp
            if smooth_cand >= (f_v_smooth + float(grad.dot(diff))
                               - 0.5 / step * float(diff.dot(diff)) - 1e-12 * abs(f_v_smooth)):
                break
            step *= _STEP_SHRINK
        grow_since += 1
        if grow_since >= 3:
            step *= _STEP_GROWTH
            grow_since = 0

        # the last trial is the accepted point; |cand| is its mag
        f_new = smooth_cand - eps * float(mag.sum()) / sp
        # monotone safeguard: continue momentum from the trial point but
        # report/keep the best iterate so the dual value never decreases
        if f_new >= best_f:
            best_u, best_f, cert = cand, f_new, None
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
        if f_new < f_u:  # adaptive restart
            v, kv, yv = cand, k_cand, yc
            t_next = 1.0
        else:
            mom = (t_momentum - 1.0) / t_next
            subtract(C, U, out=v_buf)
            v_buf *= mom
            v_buf += C
            v, kv = v_rows
            yv = (1.0 + mom) * yc - mom * yu
        U, u, yu, f_u = C, cand, yc, f_new
        t_momentum = t_next

        if it % _CHECK_EVERY and it != cfg.max_iters:
            continue
        cert = primal_gap(best_u, best_f)
        if certified(cert):
            status = "converged"
            iterations = it
            break
        if not it % _CHECK_EVERY:  # the forced check at max_iters does not polish
            current = _active_pattern(best_u, box)
            held = pattern is None or np.array_equal(current, pattern)
            pattern = current
            # polish at the first check and once the pattern holds for a
            # check; a pattern already polished would give the same candidate
            if held and pattern.tobytes() not in polished:
                polished.add(pattern.tobytes())
                found = polish(pattern)
                if found is not None:
                    best_u, best_f, cert = found
                    status = "converged"
                    iterations = it
                    break
        # Farkas test, once neither the gap test nor the polish has
        # converged; the projector is factored on demand
        if box is None:
            if not farkas_ready:
                if design is not None:
                    projector, projector_builds = design.null_projector()
                else:
                    projector, projector_builds = _null_projector(x, k), 1
                x_norm, y_max = float(np.linalg.norm(x)), float(np.abs(y).max())
                farkas_ready = True
            if projector is not None and _farkas_direction(projector, u, x, y, eps,
                                                           x_norm, y_max):
                best_u, best_f, cert = u, f_u, None  # the certified iterate is returned
                status = "infeasible"
                iterations = it
                break

    if cert is None:
        cert = primal_gap(best_u, best_f)
    w, viol, gap = cert
    box_over = 0.0 if box is None else max(float(np.abs(best_u).max()) - box, 0.0)
    return SvrFit(
        weights=w, dual=best_u, status=status, iterations=iterations,
        kkt_residual=gap,
        constraint_violation=viol if box is None else box_over,
        polish_solves=polish_solves, gram_products=gram_products,
        projector_builds=projector_builds, pattern=_active_pattern(best_u, box),
    )


def _check_eps(eps):
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError("eps must be finite and nonnegative")


def solve_hard_svr(data: Dataset, eps, cfg: SolverConfig = DEFAULT_CONFIG, start=None):
    """Minimum-norm weights keeping every residual inside the eps tube.

    status "converged" certifies primal feasibility (max violation <=
    tol) and a relative duality gap <= tol; "infeasible" certifies that
    the tube is empty: the projection v of the returned dual onto null(X)
    has X v = 0 and y'v > eps ||v||_1 (tested every 25 iterations).
    ``start``, a fit on the same design (another eps, beta or sigma),
    warm-starts the solve if it converged (see ``_solve_dual``).
    """
    _check_eps(eps)
    return _solve_dual(data, eps, box=None, cfg=cfg, start=start)


def solve_soft_svr(data: Dataset, eps, cost, cfg: SolverConfig = DEFAULT_CONFIG,
                   start=None):
    """Soft-tube SVR: tube violations are charged C/p each in the primal.

    The dual adds the box |u_i| <= C/sqrt(p); always feasible.  ``start``
    as for ``solve_hard_svr`` (another eps, C, beta or sigma).
    """
    _check_eps(eps)
    if not (math.isfinite(cost) and cost > 0):
        raise ValueError("cost must be finite and positive")
    box = cost / np.sqrt(data.p)
    return _solve_dual(data, eps, box=box, cfg=cfg, start=start)


# ---------------------------------------------------------------------------
# Ridge baseline and error metrics.
# ---------------------------------------------------------------------------

def solve_ridge(data: Dataset, lam):
    """Ridge weights (XX' + lam I)^-1 X y for the model y = X'w."""
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("lam must be finite and positive")
    x, y = data.features, data.responses
    gram = x @ x.T
    gram[np.diag_indices_from(gram)] += lam
    return np.linalg.solve(gram, x @ y)


def oracle_ridge(data: Dataset):
    """Ridge tuned against the true risk ||w - truth||^2 (simulation oracle).

    Grid: 60 log-spaced lambdas in [1e-4, 1e6], refined once around the
    argmin.  The upper end must clear p * (effective noise variance) /
    signal power, the scale of the optimal penalty here; a cap of 1e2
    misses it badly for heavy-tailed noise.  Returns (lambda_opt, weights).
    """
    x, y = data.features, data.responses
    evals, vecs = np.linalg.eigh(x @ x.T)
    c = vecs.T @ (x @ y)
    t = vecs.T @ data.truth

    def risks_of(lams):
        return np.sum((c / (evals + lams[:, None]) - t) ** 2, axis=1)

    risks = risks_of(_RIDGE_LAMBDAS)
    j = int(np.argmin(risks))  # the first minimum
    lam_best, best = _RIDGE_LAMBDAS[j], risks[j]
    lo = _RIDGE_LAMBDAS[max(j - 1, 0)]
    hi = _RIDGE_LAMBDAS[min(j + 1, len(_RIDGE_LAMBDAS) - 1)]
    fine = np.logspace(np.log10(lo), np.log10(hi), 20)
    risks = risks_of(fine)
    j = int(np.argmin(risks))
    if risks[j] < best:
        lam_best = fine[j]
    w = vecs @ (c / (evals + lam_best))
    return float(lam_best), w


def prediction_risk(weights, truth):
    """Squared estimation error ||w - truth||^2 (= excess test risk for
    isotropic features)."""
    weights = np.asarray(weights, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if weights.shape != truth.shape:
        raise ValueError("weights and truth must have matching shapes")
    d = weights - truth
    return float(d @ d)


def cosine_similarity(weights, truth):
    """Cosine of the angle between the estimate and the truth; None if
    either has zero norm."""
    weights = np.asarray(weights, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if weights.shape != truth.shape:
        raise ValueError("weights and truth must have matching shapes")
    # sqrt(x.dot(x)) is what np.linalg.norm computes for a vector, without
    # its per-call checks
    nw = math.sqrt(weights.dot(weights))
    nt = math.sqrt(truth.dot(truth))
    if nw == 0.0 or nt == 0.0:
        return None
    return float(weights @ truth / (nw * nt))


class UnsupportedRegime(ValueError):
    """Raised when an estimator's validity conditions fail (here n <= p)."""


def estimate_noise_signal(features, responses):
    """Consistent (sigma^2 EN^2, beta^2) estimates from (X, y) when n > p.

    sigma2_hat = [y'(I - X'(XX')^-1 X) y / n] / (1 - p/n) picks up the
    effective noise variance sigma^2 * E N^2 (for unit-variance noise,
    sigma^2 itself); beta2_hat = y'y/n - sigma2_hat.  For n <= p the
    residual projector is degenerate and no consistent estimate of this
    form exists.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(responses, dtype=float)
    p, n = x.shape
    if n <= p:
        raise UnsupportedRegime(f"need n > p for the residual estimator (n={n}, p={p})")
    gram = x @ x.T
    try:
        coef = np.linalg.solve(gram, x @ y)
    except np.linalg.LinAlgError as exc:
        raise UnsupportedRegime("XX' is singular") from exc
    resid = y - x.T @ coef
    delta = n / p
    sigma2 = float(resid @ resid) / n / (1.0 - 1.0 / delta)
    beta2 = float(y @ y) / n - sigma2
    return sigma2, beta2
