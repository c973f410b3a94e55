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
from .expectations import DEFAULT_QUAD
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

    Risk statistics are over feasible trials only; feasibility_rate counts
    all trials.  stderr is 0.0 for a single trial; fields are None when
    unavailable (no theory curve, all trials infeasible, ...).
    """

    swept_value: float
    theory_risk: float | None
    theory_cosine: float | None
    mean_risk: float | None
    stderr_risk: float | None
    mean_cosine: float | None
    feasibility_rate: float
    trials_used: int


def _theory_point(spec: SweepSpec, params, quad):
    if not spec.theory:
        return None, None
    if spec.estimator == "null":
        return params["beta"] ** 2, None
    if spec.estimator == "ridge_oracle":
        return None, None
    if spec.estimator == "hsvr":
        sol = hsvr_risk(HsvrProblem(params["delta"], params["sigma"],
                                    params["beta"], params["eps"], spec.noise), quad)
    else:
        sol = ssvr_risk(SsvrProblem(params["delta"], params["sigma"],
                                    params["beta"], params["eps"], spec.noise,
                                    cost=params["cost"]), quad, tol=1e-7)
    if not sol.feasible:
        return None, None
    return sol.risk, sol.cosine


def _run_trial(spec: SweepSpec, params, grid_index, trial_index):
    """One dataset + fit; returns (risk, cosine, feasible)."""
    ss = np.random.SeedSequence(spec.base_seed, spawn_key=(grid_index, trial_index))
    data = generate_dataset(spec.p, params["delta"], params["beta"],
                            params["sigma"], spec.noise, seed=ss)
    if spec.estimator == "null":
        w = np.zeros(spec.p)
    elif spec.estimator == "ridge_oracle":
        _, w = oracle_ridge(data)
    elif spec.estimator == "hsvr":
        fit = solve_hard_svr(data, params["eps"], spec.solver)
        if fit.status == "infeasible":
            return None, None, False
        w = fit.weights
    else:
        fit = solve_soft_svr(data, params["eps"], params["cost"], spec.solver)
        w = fit.weights
    return prediction_risk(w, data.truth), cosine_similarity(w, data.truth), True


def _sweep_point(spec: SweepSpec, gi, quad):
    value = spec.grid[gi]
    params = spec.params_at(value)
    theory_risk, theory_cos = _theory_point(spec, params, quad)
    risks, cosines, feasible_count = [], [], 0
    for ti in range(spec.trials):
        risk, cos, ok = _run_trial(spec, params, gi, ti)
        if ok:
            feasible_count += 1
            risks.append(risk)
            if cos is not None:
                cosines.append(cos)
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
        feasibility_rate=feasible_count / spec.trials,
        trials_used=m,
    )


def run_sweep(spec: SweepSpec, quad=DEFAULT_QUAD):
    """Execute the sweep; one SweepRow per grid point, in grid order."""
    return [_sweep_point(spec, gi, quad) for gi in range(len(spec.grid))]


def feasibility_curve(p, eps, sigma, noise, delta_grid, trials, base_seed,
                      cfg: SolverConfig = DEFAULT_CONFIG):
    """Empirical hard-tube feasibility rate at each delta in the grid.

    Rate = fraction of seeds whose hard solve did not certify infeasible.
    Returns a list of (delta, rate) pairs.
    """
    rows = []
    for gi, delta in enumerate(delta_grid):
        feasible = 0
        for ti in range(trials):
            ss = np.random.SeedSequence(base_seed, spawn_key=(gi, ti))
            data = generate_dataset(p, delta, 1.0, sigma, noise, seed=ss)
            fit = solve_hard_svr(data, eps, cfg)
            if fit.status != "infeasible":
                feasible += 1
        rows.append((float(delta), feasible / trials))
    return rows
