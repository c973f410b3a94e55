"""Seeded parameter sweeps tying the scalar limits to finite-sample runs.

A sweep (``run_sweep``) varies one parameter (delta, eps, or cost) over a
grid, runs ``trials`` independent datasets per grid point, and aggregates
risks, cosines and feasibility.  Per-trial seeds derive from
SeedSequence(base_seed, spawn_key=(grid_index, trial_index)), so results
are independent of execution order and of the trial count beyond the
index in question: rerunning with more trials leaves earlier trials
untouched.  ``feasibility_curve`` is such a sweep over delta.

A figure's points (``run_points``) all seed trial t with spawn_key=(0, t),
so the points at one delta share trial t's design.  It is drawn once
(``solvers.Design``) and every fit on it starts from the same
estimator's previous point, walked in path order; each point is
aggregated as a sweep's grid point is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import HsvrProblem, SsvrProblem, hsvr_risk, ssvr_risk
from .noise import NoiseModel, standard_gaussian
from .solvers import (
    Design,
    cosine_similarity,
    generate_dataset,
    oracle_ridge,
    prediction_risk,
    solve_hard_svr,
    solve_soft_svr,
)

# the parameters each estimator reads besides delta, sigma and beta
ESTIMATOR_PARAMS = {"hsvr": ("eps",), "ssvr": ("eps", "cost"),
                    "ridge_oracle": (), "null": ()}
ESTIMATORS = tuple(ESTIMATOR_PARAMS)
SWEEPABLE = ("delta", "eps", "cost")


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep description.

    fixed supplies the non-swept problem parameters: delta, sigma, beta
    and the estimator's ``ESTIMATOR_PARAMS``; a missing one raises
    ValueError, extra keys are ignored.  theory=True also evaluates the
    scalar limit at every grid point (hsvr/ssvr/null only).
    """

    estimator: str
    swept: str
    grid: tuple
    fixed: dict
    p: int = 200
    trials: int = 20
    base_seed: int = 0
    theory: bool = True
    noise: NoiseModel = field(default_factory=standard_gaussian)

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}")
        if self.swept not in SWEEPABLE:
            raise ValueError(f"swept must be one of {SWEEPABLE}")
        grid = tuple(float(v) for v in self.grid)
        if len(grid) == 0:
            raise ValueError("grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for name in ("delta", "sigma", "beta") + ESTIMATOR_PARAMS[self.estimator]:
            if name != self.swept and name not in self.fixed:
                raise ValueError(f"{self.estimator} sweep over {self.swept} needs "
                                 f"fixed[{name!r}]")

    def params_at(self, value):
        params = dict(self.fixed)
        params[self.swept] = value
        return params


@dataclass(frozen=True)
class SweepRow:
    """Aggregated results at one grid point.

    Risk statistics are over the trials_used trials whose fit converged;
    feasibility_rate counts every trial not certified infeasible, and
    unconverged counts the fits that stopped at max_iters (left out of
    the means).  worst_gap is the largest relative duality gap
    (kkt_residual) among the converged fits, None for the closed-form
    estimators and when no fit converged.  stderr is 0.0 for a single
    trial; fields are None when unavailable (no theory curve, all trials
    infeasible, ...).
    """

    swept_value: float
    theory_risk: float | None
    theory_cosine: float | None
    mean_risk: float | None
    stderr_risk: float | None
    mean_cosine: float | None
    feasibility_rate: float
    trials_used: int
    unconverged: int
    worst_gap: float | None


def _theory_point(spec: SweepSpec, params):
    if not spec.theory:
        return None, None
    if spec.estimator == "null":
        return params["beta"] ** 2, None
    if spec.estimator == "ridge_oracle":
        return None, None
    if spec.estimator == "hsvr":
        sol = hsvr_risk(HsvrProblem(params["delta"], params["sigma"],
                                    params["beta"], params["eps"], spec.noise))
    else:
        sol = ssvr_risk(SsvrProblem(params["delta"], params["sigma"],
                                    params["beta"], params["eps"], spec.noise,
                                    cost=params["cost"]), tol=1e-7)
    if not sol.feasible:
        return None, None
    return sol.risk, sol.cosine


def _fit(estimator, data, params, start=None):
    """One fit on data; returns ((risk, cosine, status, gap), fit).

    status is the fit's ("converged", "infeasible" or "max_iters");
    the closed-form estimators always report "converged", with gap None
    and fit None.  Risk and cosine are None unless the fit converged.
    A ``start`` is passed on to the solver only when there is one, so a
    stand-in solver without that keyword still serves cold fits.
    """
    gap, fit = None, None
    if estimator == "null":
        w = np.zeros(data.p)
    elif estimator == "ridge_oracle":
        _, w = oracle_ridge(data)
    else:
        warm = {} if start is None else {"start": start}
        if estimator == "hsvr":
            fit = solve_hard_svr(data, params["eps"], **warm)
        else:
            fit = solve_soft_svr(data, params["eps"], params["cost"], **warm)
        if fit.status != "converged":
            return (None, None, fit.status, None), fit
        w, gap = fit.weights, fit.kkt_residual
    return (prediction_risk(w, data.truth), cosine_similarity(w, data.truth),
            "converged", gap), fit


def _run_trial(spec: SweepSpec, params, grid_index, trial_index):
    """One dataset + fit of a sweep; returns (risk, cosine, status, gap)."""
    ss = np.random.SeedSequence(spec.base_seed, spawn_key=(grid_index, trial_index))
    data = generate_dataset(spec.p, params["delta"], params["beta"],
                            params["sigma"], spec.noise, seed=ss)
    return _fit(spec.estimator, data, params)[0]


def _row(value, theory, trials):
    """SweepRow at ``value`` from (theory risk, theory cosine) and the
    trials' (risk, cosine, status, gap) in trial order."""
    risks, cosines, gaps, infeasible, unconverged = [], [], [], 0, 0
    for risk, cos, status, gap in trials:
        if status == "converged":
            risks.append(risk)
            if cos is not None:
                cosines.append(cos)
            if gap is not None:
                gaps.append(gap)
        elif status == "infeasible":
            infeasible += 1
        else:
            unconverged += 1
    m = len(risks)
    if m == 0:
        mean_risk = stderr = mean_cos = None
    else:
        # the reductions of np.mean and np.std(ddof=1) without their
        # per-call overhead; numpy's pairwise sums (not Python's sum, which
        # differs in the last bit from 8 trials on) keep the bits
        values = np.array(risks)
        mean = values.sum() / m
        dev = values - mean
        mean_risk = float(mean)
        stderr = math.sqrt((dev * dev).sum() / (m - 1)) / math.sqrt(m) if m > 1 else 0.0
        mean_cos = float(np.array(cosines).sum() / len(cosines)) if cosines else None
    return SweepRow(
        swept_value=value,
        theory_risk=theory[0],
        theory_cosine=theory[1],
        mean_risk=mean_risk,
        stderr_risk=stderr,
        mean_cosine=mean_cos,
        feasibility_rate=(len(trials) - infeasible) / len(trials),
        trials_used=m,
        unconverged=unconverged,
        worst_gap=max(gaps) if gaps else None,
    )


def _sweep_point(spec: SweepSpec, gi):
    value = spec.grid[gi]
    params = spec.params_at(value)
    theory = _theory_point(spec, params)
    return _row(value, theory, [_run_trial(spec, params, gi, ti)
                                for ti in range(spec.trials)])


def run_sweep(spec: SweepSpec):
    """Execute the sweep; one SweepRow per grid point, in grid order."""
    return [_sweep_point(spec, gi) for gi in range(len(spec.grid))]


def feasibility_curve(p, eps, sigma, noise, delta_grid, trials, base_seed):
    """Empirical hard-tube feasibility rate at each delta in the grid.

    Rate = fraction of seeds whose hard solve did not certify infeasible,
    from an hsvr ``run_sweep`` over delta (beta = 1, no theory), so the
    seeds and datasets are the sweep's.  ``delta_grid`` must be strictly
    increasing.  Returns a list of (delta, rate) pairs.
    """
    spec = SweepSpec("hsvr", "delta", delta_grid,
                     {"sigma": sigma, "beta": 1.0, "eps": eps}, p=p, trials=trials,
                     base_seed=base_seed, theory=False, noise=noise)
    return [(r.swept_value, r.feasibility_rate) for r in run_sweep(spec)]


def run_points(points, p, trials, base_seed=0, noise=None):
    """Monte Carlo rows of a figure: one SweepRow (no theory) per point.

    points is a sequence of (estimator, params), params holding delta,
    sigma, beta and the estimator's ``ESTIMATOR_PARAMS``.  Trial t of every
    point is drawn from SeedSequence(base_seed, spawn_key=(0, t)) at the
    point's delta, so a point's row is the one a one-point ``run_sweep``
    over delta would give, up to the solver's tol.  The loop is
    trial-outer and walks the points in the given order: consecutive
    points with the same delta share one ``Design`` (drawn once, with X'X
    and the null(X) projector kept for every fit on it), and each SVR fit
    starts from the same estimator's previous fit on that design.  Give
    the points in path order, consecutive points differing in one
    parameter, so that each start is a neighbour.  Rows come back in the
    order of ``points``; swept_value is the point's delta.
    """
    if trials < 1:  # ``svrisk figure --trials`` reaches here unchecked
        raise ValueError("trials must be >= 1")
    noise = noise or standard_gaussian()
    results = [[] for _ in points]
    for ti in range(trials):
        design = None
        for (estimator, params), out in zip(points, results):
            if design is None or params["delta"] != delta:
                delta = params["delta"]
                ss = np.random.SeedSequence(base_seed, spawn_key=(0, ti))
                design, previous = Design(p, delta, noise, ss), {}
            data = design.dataset(params["beta"], params["sigma"])
            trial, previous[estimator] = _fit(estimator, data, params,
                                              previous.get(estimator))
            out.append(trial)
    return [_row(params["delta"], (None, None), trial_results)
            for (_, params), trial_results in zip(points, results)]
