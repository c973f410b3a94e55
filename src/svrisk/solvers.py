"""Finite-sample SVR solvers, ridge baseline, and moment estimators.

Both SVR variants are solved through the same concave dual

    F(u) = -(1/2p) u'X'Xu + (1/sqrt p) y'u - (eps/sqrt p) ||u||_1,

maximized over all of R^n for the hard tube constraint and over the box
|u_i| <= C/sqrt(p) for the soft one.  The primal weights are recovered as
w = X u / sqrt(p).  The maximization uses accelerated proximal gradient
ascent (soft-threshold prox, box clipping for the soft case) with a
monotone safeguard and growth/backtracking steps.  An iteration makes
one n x n product per backtracking trial (usually a single trial): the
accepted trial's product gives the objective, and the gradient at the
extrapolated point v = a + m (a - u) is (1 + m) k a - m k u, from the
products of the last two accepted iterates.  The step starts from the
leading-order largest eigenvalue of X'X for an i.i.d. design, (mean
squared entry) (sqrt n + sqrt p)^2 (Geman, 1980), and backtracking
settles it: a step that starts too large costs one product per halving,
once, and one that starts too small is recovered by the growth.

An infeasible hard instance has an unbounded dual.  Unboundedness is
certified exactly: the tube is empty iff some direction v with X v = 0
has y'v - eps ||v||_1 > 0 (the dual objective then grows linearly along
v forever).  Every 25-iteration check of a hard solve that neither the
gap test nor the polish has ended projects the iterate onto null(X) and
tests the projection against that criterion; no other rule returns
"infeasible".  The projector is factored at most once per hard solve,
at the first such test, so a fit that converges at its first check
never builds it.

The same checks watch the sign pattern of the iterate (and, for the soft
problem, which coordinates sit on the box).  At the first check, and
whenever the pattern has held for one check, a polish solves the KKT
system on that pattern and repairs the pattern from the solution, as a
primal-dual active-set method does (Hintermueller, Ito & Kunisch, 2002):
up to 30 repairs, until the pattern stops changing, with a one-at-a-time
fallback against cycling.  Its candidate is accepted only if the dual
objective does not fall and the duality gap and violation are within
tol, so most fits stop at the first check.  The Farkas test sees the
iterate from before the polish; a polish candidate that raises the
objective without converging restarts the momentum from it after that
test.  The forced check at max_iters tests convergence and
infeasibility but does not polish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    features holds the p x n design (columns are samples).
    """

    features: np.ndarray
    responses: np.ndarray
    truth: np.ndarray

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
    per backtracking trial plus one per polish candidate scored;
    projector_builds whether the null(X) projector was factored (0 or 1).
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


@dataclass(frozen=True)
class SolverConfig:
    """Iteration caps and tolerances for the dual ascent."""

    max_iters: int = 100_000
    tol: float = 1e-8


DEFAULT_CONFIG = SolverConfig()


def generate_dataset(p, delta, beta, sigma, noise=None, seed=0):
    """i.i.d. standard-normal design with n = floor(delta * p) samples.

    The ground truth has norm exactly ``beta`` and a direction uniform on
    the sphere (the limit theory depends only on the norm).  delta, sigma
    and beta must be finite, sigma and beta nonnegative: a NaN sigma or
    beta would send the dual solver to its iteration cap.
    """
    if not all(map(math.isfinite, (delta, sigma, beta))):
        raise ValueError("delta, sigma, beta must be finite")
    if sigma < 0 or beta < 0:
        raise ValueError("sigma, beta must be nonnegative")
    noise = noise or standard_gaussian()
    n = int(np.floor(delta * p))
    if n < 1:
        raise ValueError(f"floor(delta * p) = {n}; need at least one sample")
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(int(seed))
    kid_x, kid_dir, kid_noise = ss.spawn(3)
    x = np.random.default_rng(kid_x).standard_normal((p, n))
    v = np.random.default_rng(kid_dir).standard_normal(p)
    truth = beta * v / np.linalg.norm(v)
    draws = sample_noise_rng(noise, n, np.random.default_rng(kid_noise))
    y = x.T @ truth + sigma * draws
    return Dataset(features=x, responses=y, truth=truth)


# ---------------------------------------------------------------------------
# Dual ascent machinery.
# ---------------------------------------------------------------------------

def _soft_threshold(v, thr):
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


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


def _polish(pattern, k, y, p, eps, box):
    """Primal-dual active-set solve from a starting pattern.

    Returns (candidate, solves).  Free coordinates (|pattern| = 1) satisfy
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
    box.  The candidate is returned once the pattern stops changing, within
    _POLISH_REPAIRS repairs; otherwise it is None.  It is None, before
    any further solve, once more than p coordinates are free: K_II =
    X_I'X_I has rank at most p for any design, so it is then singular,
    and ``np.linalg.solve`` would return a near-singular answer instead
    of raising.  The caller accepts a candidate only if it does not lower
    the dual objective and certifies it.
    """
    sp = np.sqrt(p)
    cap = np.inf if box is None else box
    solves = 0
    fewest = None  # fewest coordinates a repair has changed so far
    for _ in range(_POLISH_REPAIRS + 1):
        idx = np.flatnonzero(np.abs(pattern) == 1)
        if idx.size > p:
            return None, solves
        sgn = pattern[idx].astype(float)
        rhs = sp * (y[idx] - eps * sgn)
        u_new = np.zeros(len(pattern))
        if box is not None:
            at_box = np.flatnonzero(np.abs(pattern) == 2)
            s_box = np.sign(pattern[at_box]).astype(float)
            u_new[at_box] = s_box * box
            rhs = rhs - k.take(idx, 0).take(at_box, 1) @ u_new[at_box]
        if idx.size:
            solves += 1
            try:
                u_new[idx] = np.linalg.solve(k.take(idx, 0).take(idx, 1), rhs)
            except np.linalg.LinAlgError:
                return None, solves
        r = y - k @ u_new / sp
        sol = u_new[idx]
        repaired = np.where(np.abs(r) > eps, np.sign(r), 0.0)  # zeros entering
        repaired[idx] = np.where(np.sign(sol) == sgn, sgn, 0.0)
        if box is not None:
            repaired[idx] *= 1.0 + (np.abs(sol) > box)
            repaired[at_box] = s_box * (1.0 + (r[at_box] * s_box >= eps))
        repaired = repaired.astype(np.int8)
        changed = np.flatnonzero(repaired != pattern)
        if not changed.size:
            return u_new, solves
        if fewest is None or changed.size < fewest:
            fewest = changed.size
            pattern = repaired
            continue
        excess = np.abs(r) - eps
        excess[idx] = np.maximum(-sol * sgn, sol * sgn - cap)
        if box is not None:
            excess[at_box] = eps - r[at_box] * s_box
        worst = changed[np.argmax(excess[changed])]
        pattern = pattern.copy()
        pattern[worst] = repaired[worst]
    return None, solves


def _null_projector(x, k):
    """Factors (a, b) such that u - a @ (b @ u) projects u onto null(X).

    k is X'X.  None when null(X) = {0}, which holds when the smaller Gram
    matrix (k for n <= p, XX' otherwise, formed here) has a Cholesky
    factor.  With n > p and a full-rank design the factors are X' and
    (XX')^-1 X, so a projection costs two matrix-vector products.  A
    rank-deficient design (for instance duplicated samples) takes its
    range basis from an eigendecomposition of k instead.
    """
    p, n = x.shape
    try:
        if n <= p:
            np.linalg.cholesky(k)
            return None
        gram = x @ x.T
        np.linalg.cholesky(gram)
        return x.T, np.linalg.inv(gram) @ x
    except np.linalg.LinAlgError:
        pass
    evals, vecs = np.linalg.eigh(k)
    span = vecs[:, evals > 1e-10 * max(evals[-1], 1.0)]
    return span, span.T


def _farkas_direction(projector, u, x, y, eps):
    """True when the null(X) projection v of u proves the tube empty.

    Requires y'v - eps ||v||_1 > 1e-8 ||v||_1 (1 + max|y|), a leak
    ||X v|| <= 1e-8 ||X||_F ||v|| and ||v|| >= 1e-6 ||u||, so that v is
    an exact Farkas direction up to round-off: for every w,
    max_i |y_i - x_i'w| >= (y'v - w'Xv) / ||v||_1 > eps.
    """
    a, b = projector
    v = u - a @ (b @ u)
    nv = float(np.linalg.norm(v))
    if nv == 0.0 or nv < 1e-6 * float(np.linalg.norm(u)):
        return False
    l1 = float(np.abs(v).sum())
    gain = float(y @ v) - eps * l1
    if not gain > 1e-8 * l1 * (1.0 + float(np.abs(y).max())):
        return False
    return float(np.linalg.norm(x @ v)) <= 1e-8 * float(np.linalg.norm(x)) * nv


def _solve_dual(data: Dataset, eps, box, cfg: SolverConfig):
    """Shared accelerated ascent; ``box`` is C/sqrt(p) or None (hard)."""
    x, y = data.features, data.responses
    p, n = data.p, data.n
    sp = np.sqrt(p)
    k = x.T @ x
    lam = np.trace(k) / (n * p) * (np.sqrt(n) + np.sqrt(p)) ** 2  # ~ lambda_max(k)
    step = 1.0 / max(lam / p, 1e-12)
    projector, projector_builds = None, 0  # built at the first Farkas test
    gram_products = 0

    def objective(u, ku):
        return float(-0.5 * (u @ ku) / p + (y @ u) / sp - eps * np.abs(u).sum() / sp)

    def primal_gap(u, dval):
        w = x @ u / sp
        r = y - x.T @ w
        viol = max(np.abs(r).max() - eps, 0.0)
        if box is None:
            pval = 0.5 * float(w @ w)
        else:
            cost = box * sp  # recover C
            pval = 0.5 * float(w @ w) + cost / p * float(np.maximum(np.abs(r) - eps, 0.0).sum())
            viol = 0.0  # soft problem is unconstrained in w
        gap = abs(pval - dval) / max(1.0, abs(pval))
        return w, viol, gap

    # u is the last accepted iterate and v the extrapolated point; ku and kv
    # are their products with k.  kv is a combination of the two latest
    # trial products, each a fresh matvec, so no rounding accumulates.
    u, ku = np.zeros(n), np.zeros(n)
    v, kv = u, ku
    f_u = 0.0
    t_momentum = 1.0
    best_u, best_f = u, f_u
    grow_since = 0
    status = "max_iters"
    iterations = cfg.max_iters
    pattern, polished, polish_solves = None, set(), 0

    for it in range(1, cfg.max_iters + 1):
        grad = (y - kv / sp) / sp
        f_v_smooth = float(-0.5 * (v @ kv) / p + (y @ v) / sp)
        # backtracking on the smooth majorization, with growth after streaks
        for _ in range(60):
            cand = _soft_threshold(v + step * grad, step * eps / sp)
            if box is not None:
                np.clip(cand, -box, box, out=cand)
            diff = cand - v
            k_cand = k @ cand
            gram_products += 1
            smooth_cand = float(-0.5 * (cand @ k_cand) / p + (y @ cand) / sp)
            if smooth_cand >= f_v_smooth + grad @ diff - 0.5 / step * (diff @ diff) - 1e-12 * abs(f_v_smooth):
                break
            step *= _STEP_SHRINK
        grow_since += 1
        if grow_since >= 3:
            step *= _STEP_GROWTH
            grow_since = 0

        # the last trial is the accepted point
        f_new = smooth_cand - eps * np.abs(cand).sum() / sp
        # monotone safeguard: continue momentum from the trial point but
        # report/keep the best iterate so the dual value never decreases
        if f_new >= best_f:
            best_u, best_f = cand, f_new
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
        if f_new < f_u:  # adaptive restart
            v, kv = cand, k_cand
            t_next = 1.0
        else:
            mom = (t_momentum - 1.0) / t_next
            v = cand + mom * (cand - u)
            kv = (1.0 + mom) * k_cand - mom * ku
        u, ku, f_u = cand, k_cand, f_new
        t_momentum = t_next

        if it % _CHECK_EVERY and it != cfg.max_iters:
            continue
        _, viol, gap = primal_gap(best_u, best_f)
        if gap <= cfg.tol and viol <= cfg.tol:
            status = "converged"
            iterations = it
            break
        restart = None
        if not it % _CHECK_EVERY:  # the forced check at max_iters does not polish
            current = _active_pattern(best_u, box)
            held = pattern is None or np.array_equal(current, pattern)
            pattern = current
            # polish at the first check and once the pattern holds for a
            # check; a pattern already polished would give the same candidate
            if held and pattern.tobytes() not in polished:
                polished.add(pattern.tobytes())
                pol, solves = _polish(pattern, k, y, p, eps, box)
                polish_solves += solves
                if pol is not None:
                    k_pol = k @ pol
                    gram_products += 1
                    f_pol = objective(pol, k_pol)
                    if f_pol >= best_f - 1e-12 * max(1.0, abs(best_f)):
                        _, viol_p, gap_p = primal_gap(pol, f_pol)
                        if gap_p <= cfg.tol and viol_p <= cfg.tol:
                            best_u, best_f = pol, f_pol
                            status = "converged"
                            iterations = it
                            break
                        if f_pol > best_f:
                            restart = pol, k_pol, f_pol
        # Farkas test on the pre-polish iterate, once neither the gap test
        # nor the polish has converged; the projector is factored on demand
        if box is None:
            if not projector_builds:
                projector = _null_projector(x, k)
                projector_builds = 1
            if projector is not None and _farkas_direction(projector, u, x, y, eps):
                best_u, best_f = u, f_u  # the certified iterate is the one returned
                status = "infeasible"
                iterations = it
                break
        if restart is not None:
            u, ku, f_u = restart
            best_u, best_f = u, f_u
            v, kv, t_momentum = u, ku, 1.0

    w, viol, gap = primal_gap(best_u, best_f)
    box_over = 0.0 if box is None else max(float(np.abs(best_u).max()) - box, 0.0)
    return SvrFit(
        weights=w, dual=best_u, status=status, iterations=iterations,
        kkt_residual=gap,
        constraint_violation=viol if box is None else box_over,
        polish_solves=polish_solves, gram_products=gram_products,
        projector_builds=projector_builds,
    )


def _check_eps(eps):
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError("eps must be finite and nonnegative")


def solve_hard_svr(data: Dataset, eps, cfg: SolverConfig = DEFAULT_CONFIG):
    """Minimum-norm weights keeping every residual inside the eps tube.

    status "converged" certifies primal feasibility (max violation <=
    tol) and a relative duality gap <= tol; "infeasible" certifies that
    the tube is empty: the projection v of the returned dual onto null(X)
    has X v = 0 and y'v > eps ||v||_1 (tested every 25 iterations).
    """
    _check_eps(eps)
    return _solve_dual(data, eps, box=None, cfg=cfg)


def solve_soft_svr(data: Dataset, eps, cost, cfg: SolverConfig = DEFAULT_CONFIG):
    """Soft-tube SVR: tube violations are charged C/p each in the primal.

    The dual adds the box |u_i| <= C/sqrt(p); always feasible.
    """
    _check_eps(eps)
    if not (math.isfinite(cost) and cost > 0):
        raise ValueError("cost must be finite and positive")
    box = cost / np.sqrt(data.p)
    return _solve_dual(data, eps, box=box, cfg=cfg)


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

    def risk_of(lam):
        return float(np.sum((c / (evals + lam) - t) ** 2))

    risks = np.array([risk_of(l) for l in _RIDGE_LAMBDAS])
    j = int(np.argmin(risks))
    lam_best, best = _RIDGE_LAMBDAS[j], risks[j]
    lo = _RIDGE_LAMBDAS[max(j - 1, 0)]
    hi = _RIDGE_LAMBDAS[min(j + 1, len(_RIDGE_LAMBDAS) - 1)]
    for lam in np.logspace(np.log10(lo), np.log10(hi), 20):
        r = risk_of(lam)
        if r < best:
            lam_best, best = lam, r
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
    nw = np.linalg.norm(weights)
    nt = np.linalg.norm(truth)
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
