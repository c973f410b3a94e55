"""Finite-sample SVR solvers, ridge baseline, and moment estimators.

Both SVR variants are solved through the same concave dual

    F(u) = -(1/2p) u'X'Xu + (1/sqrt p) y'u - (eps/sqrt p) ||u||_1,

maximized over all of R^n for the hard tube constraint and over the box
|u_i| <= C/sqrt(p) for the soft one.  The primal weights are recovered as
w = X u / sqrt(p).  The maximization uses accelerated proximal gradient
ascent (soft-threshold prox, box clipping for the soft case) with a
monotone safeguard and growth/backtracking steps, plus an active-set
polish that solves the support KKT system exactly once it stabilizes.

An infeasible hard instance has an unbounded dual.  Unboundedness is
certified exactly: the tube is empty iff some direction v with X v = 0
has y'v - eps ||v||_1 > 0 (the dual objective then grows linearly along
v forever).  Once the iterate norm starts running away, its normalized
projection onto the Gram null space is tested against that criterion;
the norm-cap rule (norm past _INFEAS_NORM_CAP * sqrt(n) with a climbing
objective) is kept as a fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .noise import NoiseModel, sample_noise_rng, standard_gaussian

_STEP_GROWTH = 1.3  # step growth every third iteration
_STEP_SHRINK = 0.5  # backtracking factor
_INFEAS_NORM_CAP = 1e6  # times sqrt(n): the divergence fallback of a hard solve
_POLISH_EVERY = 250  # iterations between active-set polish attempts


@dataclass
class Dataset:
    """Synthetic regression instance y_i = truth . x_i + sigma * n_i.

    features holds the p x n design (columns are samples).
    """

    features: np.ndarray
    responses: np.ndarray
    truth: np.ndarray
    sigma: float
    seed: object
    noise: NoiseModel = field(default_factory=standard_gaussian)

    @property
    def p(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]


@dataclass
class SvrFit:
    """Solver output: primal weights, dual vector, and certificates.

    status: "converged", "infeasible" (hard tube, dual diverged) or
    "max_iters".  kkt_residual is the relative duality gap at exit;
    constraint_violation is max (|residual| - eps)_+ for the hard tube
    and the box overshoot for the soft one.
    """

    weights: np.ndarray
    dual: np.ndarray
    status: str
    iterations: int
    kkt_residual: float
    constraint_violation: float
    objective_trace: np.ndarray | None = None


@dataclass(frozen=True)
class SolverConfig:
    """Iteration caps and tolerances for the dual ascent."""

    max_iters: int = 100_000
    tol: float = 1e-8
    record_objective: bool = False


DEFAULT_CONFIG = SolverConfig()


def generate_dataset(p, delta, beta, sigma, noise=None, seed=0, direction="random"):
    """i.i.d. standard-normal design with n = floor(delta * p) samples.

    The ground truth has norm exactly ``beta``; direction "random" places
    it uniformly on the sphere (the limit theory depends only on the
    norm), "fixed" uses the first basis vector for reproducibility.
    """
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
    if direction == "random":
        v = np.random.default_rng(kid_dir).standard_normal(p)
        truth = beta * v / np.linalg.norm(v)
    elif direction == "fixed":
        truth = np.zeros(p)
        truth[0] = beta
    else:
        raise ValueError(f"unknown direction {direction!r}")
    draws = sample_noise_rng(noise, n, np.random.default_rng(kid_noise))
    y = x.T @ truth + sigma * draws
    return Dataset(features=x, responses=y, truth=truth, sigma=sigma, seed=seed,
                   noise=noise)


# ---------------------------------------------------------------------------
# Dual ascent machinery.
# ---------------------------------------------------------------------------

def _spectral_norm(k, iters=120):
    """Largest eigenvalue of the PSD Gram matrix by power iteration."""
    n = k.shape[0]
    v = np.ones(n) / np.sqrt(n)
    lam = 1.0
    for _ in range(iters):
        w = k @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam = norm
    return lam


def _soft_threshold(v, thr):
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def _dual_objective(u, k, y, p, eps):
    sp = np.sqrt(p)
    return float(-0.5 * (u @ (k @ u)) / p + (y @ u) / sp - eps * np.abs(u).sum() / sp)


def _polish(u, k, y, p, eps, box):
    """Solve the KKT system on the current support; None if it is invalid.

    Free support coordinates satisfy residual_i = eps * sign(u_i); soft
    coordinates pinned at the box stay there.  The resulting candidate is
    accepted by the caller only if it improves the duality gap.
    """
    sp = np.sqrt(p)
    scale = max(np.abs(u).max(), 1e-30)
    active = np.abs(u) > 1e-9 * scale
    if box is not None:
        at_box = active & (np.abs(u) >= box * (1.0 - 1e-9))
        free = active & ~at_box
    else:
        at_box = np.zeros_like(active)
        free = active
    idx = np.flatnonzero(free)
    if idx.size == 0 or idx.size > k.shape[0]:
        return None
    sgn = np.sign(u[idx])
    rhs = sp * (y[idx] - eps * sgn)
    u_new = np.zeros_like(u)
    if box is not None:
        u_new[at_box] = np.sign(u[at_box]) * box
        rhs = rhs - k[np.ix_(idx, np.flatnonzero(at_box))] @ u_new[at_box]
    try:
        sol = np.linalg.solve(k[np.ix_(idx, idx)], rhs)
    except np.linalg.LinAlgError:
        return None
    if np.any(np.sign(sol) * sgn < 0.0):
        return None
    if box is not None and np.any(np.abs(sol) > box * (1.0 + 1e-9)):
        return None
    u_new[idx] = sol
    return u_new


def _null_space_certificate(k, y, eps, u, lam_max, sp):
    """Exact unboundedness test along the iterate's runaway direction.

    Projects u/|u| onto the null space of the Gram matrix; if the
    projection v satisfies y'v - eps*||v||_1 > 0 the dual objective grows
    linearly along v, so the tube is empty.  Returns True when certified.
    """
    evals, vecs = np.linalg.eigh(k)
    null = vecs[:, evals < 1e-10 * max(lam_max, 1.0)]
    if null.shape[1] == 0:
        return False
    v = null @ (null.T @ (u / np.linalg.norm(u)))
    nv = np.linalg.norm(v)
    if nv < 1e-6:
        return False
    gain = float(y @ v) - eps * float(np.abs(v).sum())
    return gain > 1e-8 * nv * (1.0 + float(np.linalg.norm(y)))


def _solve_dual(data: Dataset, eps, box, cfg: SolverConfig):
    """Shared accelerated ascent; ``box`` is C/sqrt(p) or None (hard)."""
    x, y = data.features, data.responses
    p, n = data.p, data.n
    sp = np.sqrt(p)
    k = x.T @ x
    lam = _spectral_norm(k) / p
    step = 1.0 / max(lam, 1e-12)
    cap = _INFEAS_NORM_CAP * np.sqrt(n)
    runaway_trigger = 100.0 * np.sqrt(n) * (1.0 + float(np.abs(y).max()))

    def objective(u):
        return _dual_objective(u, k, y, p, eps)

    def primal_gap(u):
        w = x @ u / sp
        r = y - x.T @ w
        viol = max(np.abs(r).max() - eps, 0.0)
        if box is None:
            pval = 0.5 * float(w @ w)
        else:
            cost = box * sp  # recover C
            pval = 0.5 * float(w @ w) + cost / p * float(np.maximum(np.abs(r) - eps, 0.0).sum())
            viol = 0.0  # soft problem is unconstrained in w
        dval = objective(u)
        gap = abs(pval - dval) / max(1.0, abs(pval))
        return w, r, viol, gap, dval

    u = np.zeros(n)
    v = u.copy()
    f_u = objective(u)
    t_momentum = 1.0
    best_u, best_f = u, f_u
    grow_since = 0
    status = "max_iters"
    iterations = cfg.max_iters
    trace = [best_f] if cfg.record_objective else None

    for it in range(1, cfg.max_iters + 1):
        r_v = y - (k @ v) / sp
        grad = r_v / sp
        f_v_smooth = float(-0.5 * (v @ (k @ v)) / p + (y @ v) / sp)
        # backtracking on the smooth majorization, with growth after streaks
        accepted = None
        for _ in range(60):
            cand = _soft_threshold(v + step * grad, step * eps / sp)
            if box is not None:
                np.clip(cand, -box, box, out=cand)
            diff = cand - v
            smooth_cand = float(-0.5 * (cand @ (k @ cand)) / p + (y @ cand) / sp)
            if smooth_cand >= f_v_smooth + grad @ diff - 0.5 / step * (diff @ diff) - 1e-12 * abs(f_v_smooth):
                accepted = cand
                break
            step *= _STEP_SHRINK
        if accepted is None:
            accepted = cand
        grow_since += 1
        if grow_since >= 3:
            step *= _STEP_GROWTH
            grow_since = 0

        f_new = objective(accepted)
        # monotone safeguard: continue momentum from the trial point but
        # report/keep the best iterate so the dual value never decreases
        if f_new >= best_f:
            best_u, best_f = accepted, f_new
        if trace is not None:
            trace.append(best_f)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
        v = accepted + (t_momentum - 1.0) / t_next * (accepted - u)
        if f_new < f_u:  # adaptive restart
            v = accepted
            t_next = 1.0
        u, f_u = accepted, f_new
        t_momentum = t_next

        if box is None:
            u_norm = np.linalg.norm(u)
            if u_norm > cap and f_new >= best_f * (1.0 - 1e-12):
                status = "infeasible"
                iterations = it
                break
            if u_norm > runaway_trigger and it % 250 == 0:
                if _null_space_certificate(k, y, eps, u, lam * p, sp):
                    status = "infeasible"
                    iterations = it
                    break

        check = (it % 25 == 0) or it == cfg.max_iters
        if check:
            w, r, viol, gap, dval = primal_gap(best_u)
            if gap <= cfg.tol and viol <= cfg.tol:
                status = "converged"
                iterations = it
                break
            if it % _POLISH_EVERY == 0 or it == cfg.max_iters:
                cand = _polish(best_u, k, y, p, eps, box)
                if cand is not None:
                    f_cand = objective(cand)
                    if f_cand >= best_f - 1e-12 * max(1.0, abs(best_f)):
                        _, _, viol_c, gap_c, _ = primal_gap(cand)
                        if gap_c <= cfg.tol and viol_c <= cfg.tol:
                            best_u, best_f = cand, f_cand
                            status = "converged"
                            iterations = it
                            break
                        if f_cand > best_f:
                            best_u, best_f = cand, f_cand
                            u, v, f_u, t_momentum = cand, cand.copy(), f_cand, 1.0

    u = best_u
    w, r, viol, gap, dval = primal_gap(u)
    box_over = 0.0 if box is None else max(float(np.abs(u).max()) - box, 0.0)
    return SvrFit(
        weights=w, dual=u, status=status, iterations=iterations,
        kkt_residual=gap,
        constraint_violation=viol if box is None else box_over,
        objective_trace=None if trace is None else np.asarray(trace),
    )


def solve_hard_svr(data: Dataset, eps, cfg: SolverConfig = DEFAULT_CONFIG):
    """Minimum-norm weights keeping every residual inside the eps tube.

    status "converged" certifies primal feasibility (max violation <=
    tol) and a relative duality gap <= tol; "infeasible" certifies dual
    divergence (a Gram null-space certificate, or the iterate norm past
    _INFEAS_NORM_CAP * sqrt(n) with a climbing objective), which for this
    problem means the tube is empty.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return _solve_dual(data, eps, box=None, cfg=cfg)


def solve_soft_svr(data: Dataset, eps, cost, cfg: SolverConfig = DEFAULT_CONFIG):
    """Soft-tube SVR: tube violations are charged C/p each in the primal.

    The dual adds the box |u_i| <= C/sqrt(p); always feasible.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if cost <= 0:
        raise ValueError("cost must be positive")
    box = cost / np.sqrt(data.p)
    return _solve_dual(data, eps, box=box, cfg=cfg)


# ---------------------------------------------------------------------------
# Ridge baseline and error metrics.
# ---------------------------------------------------------------------------

def solve_ridge(data: Dataset, lam):
    """Ridge weights (XX' + lam I)^-1 X y for the model y = X'w."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    x, y = data.features, data.responses
    gram = x @ x.T
    gram[np.diag_indices_from(gram)] += lam
    return np.linalg.solve(gram, x @ y)


def oracle_ridge(data: Dataset, lambda_grid=None):
    """Ridge tuned against the true risk ||w - truth||^2 (simulation oracle).

    Default grid: 60 log-spaced lambdas in [1e-4, 1e6], refined once
    around the argmin.  The upper end must clear p * (effective noise
    variance) / signal power, the scale of the optimal penalty here; a
    cap of 1e2 misses it badly for heavy-tailed noise.  Returns
    (lambda_opt, weights).
    """
    x, y = data.features, data.responses
    if lambda_grid is None:
        lambda_grid = np.logspace(-4.0, 6.0, 60)
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    evals, vecs = np.linalg.eigh(x @ x.T)
    c = vecs.T @ (x @ y)
    t = vecs.T @ data.truth

    def risk_of(lam):
        return float(np.sum((c / (evals + lam) - t) ** 2))

    risks = np.array([risk_of(l) for l in lambda_grid])
    j = int(np.argmin(risks))
    lam_best, best = lambda_grid[j], risks[j]
    lo = lambda_grid[max(j - 1, 0)]
    hi = lambda_grid[min(j + 1, len(lambda_grid) - 1)]
    if hi > lo:
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
