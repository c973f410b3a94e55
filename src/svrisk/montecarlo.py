"""Seeded parameter sweeps tying the scalar limits to finite-sample runs.

A sweep varies one parameter (delta, eps, or cost) over a grid, runs
``trials`` independent datasets per grid point, and aggregates risks,
cosines and feasibility.  Per-trial seeds derive from
SeedSequence(base_seed, spawn_key=(grid_index, trial_index)), so results
are independent of execution order and of the trial count beyond the
index in question: rerunning with more trials leaves earlier trials
untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import HsvrProblem, SsvrProblem, hsvr_risk, ssvr_risk
from .noise import NoiseModel, standard_gaussian
from .solvers import (
    DEFAULT_CONFIG,
    SolverConfig,
    cosine_similarity,
    generate_dataset,
    oracle_ridge,
    prediction_risk,
    solve_hard_svr,
    solve_soft_svr,
)

ESTIMATORS = ("hsvr", "ssvr", "ridge_oracle", "null")
SWEEPABLE = ("delta", "eps", "cost")


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep description.

    fixed supplies the non-swept problem parameters: delta, sigma, beta,
    eps, cost as needed by the estimator.  theory=True also evaluates the
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
    solver: SolverConfig = DEFAULT_CONFIG

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


def _run_trial(spec: SweepSpec, params, grid_index, trial_index):
    """One dataset + fit; returns (risk, cosine, status, gap).

    status is the fit's ("converged", "infeasible" or "max_iters");
    the closed-form estimators always report "converged", with gap None.
    Risk and cosine are None unless the fit converged.
    """
    ss = np.random.SeedSequence(spec.base_seed, spawn_key=(grid_index, trial_index))
    data = generate_dataset(spec.p, params["delta"], params["beta"],
                            params["sigma"], spec.noise, seed=ss)
    gap = None
    if spec.estimator == "null":
        w = np.zeros(spec.p)
    elif spec.estimator == "ridge_oracle":
        _, w = oracle_ridge(data)
    else:
        if spec.estimator == "hsvr":
            fit = solve_hard_svr(data, params["eps"], spec.solver)
        else:
            fit = solve_soft_svr(data, params["eps"], params["cost"], spec.solver)
        if fit.status != "converged":
            return None, None, fit.status, None
        w, gap = fit.weights, fit.kkt_residual
    return (prediction_risk(w, data.truth), cosine_similarity(w, data.truth),
            "converged", gap)


def _sweep_point(spec: SweepSpec, gi):
    value = spec.grid[gi]
    params = spec.params_at(value)
    theory_risk, theory_cos = _theory_point(spec, params)
    risks, cosines, gaps, infeasible, unconverged = [], [], [], 0, 0
    for ti in range(spec.trials):
        risk, cos, status, gap = _run_trial(spec, params, gi, ti)
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
        mean_risk = float(np.mean(risks))
        stderr = float(np.std(risks, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
        mean_cos = float(np.mean(cosines)) if cosines else None
    return SweepRow(
        swept_value=value,
        theory_risk=theory_risk,
        theory_cosine=theory_cos,
        mean_risk=mean_risk,
        stderr_risk=stderr,
        mean_cosine=mean_cos,
        feasibility_rate=(spec.trials - infeasible) / spec.trials,
        trials_used=m,
        unconverged=unconverged,
        worst_gap=max(gaps) if gaps else None,
    )


def run_sweep(spec: SweepSpec):
    """Execute the sweep; one SweepRow per grid point, in grid order."""
    return [_sweep_point(spec, gi) for gi in range(len(spec.grid))]


def feasibility_curve(p, eps, sigma, noise, delta_grid, trials, base_seed,
                      cfg: SolverConfig = DEFAULT_CONFIG):
    """Empirical hard-tube feasibility rate at each delta in the grid.

    Rate = fraction of seeds whose hard solve did not certify infeasible,
    from an hsvr ``run_sweep`` over delta (beta = 1, no theory), so the
    seeds and datasets are the sweep's.  ``delta_grid`` must be strictly
    increasing.  Returns a list of (delta, rate) pairs.
    """
    spec = SweepSpec("hsvr", "delta", delta_grid,
                     {"sigma": sigma, "beta": 1.0, "eps": eps}, p=p, trials=trials,
                     base_seed=base_seed, theory=False, noise=noise, solver=cfg)
    return [(r.swept_value, r.feasibility_rate) for r in run_sweep(spec)]
