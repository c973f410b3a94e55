"""High-dimensional asymptotics and finite-sample solvers for hard/soft SVR."""

from .noise import (
    InvalidNoiseModel,
    NoiseModel,
    noise_second_moment,
    scale_mixture,
    standard_gaussian,
)
from .expectations import (
    count_expectations,
    e_hinge_moments,
    hinge_sq_mean,
)
from .asymptotics import (
    AsymptoticSolution,
    HsvrProblem,
    SsvrProblem,
    delta_star,
    epsilon_star,
    hsvr_risk,
    ssvr_risk,
    tune_hsvr,
    tune_ssvr,
)
from .solvers import (
    Dataset,
    SolverConfig,
    SvrFit,
    cosine_similarity,
    estimate_noise_signal,
    generate_dataset,
    oracle_ridge,
    prediction_risk,
    solve_hard_svr,
    solve_ridge,
    solve_soft_svr,
)
from .montecarlo import SweepRow, SweepSpec, feasibility_curve, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AsymptoticSolution",
    "Dataset",
    "HsvrProblem",
    "InvalidNoiseModel",
    "NoiseModel",
    "SolverConfig",
    "SsvrProblem",
    "SvrFit",
    "SweepRow",
    "SweepSpec",
    "cosine_similarity",
    "count_expectations",
    "delta_star",
    "e_hinge_moments",
    "epsilon_star",
    "estimate_noise_signal",
    "feasibility_curve",
    "generate_dataset",
    "hinge_sq_mean",
    "hsvr_risk",
    "noise_second_moment",
    "oracle_ridge",
    "prediction_risk",
    "run_sweep",
    "scale_mixture",
    "solve_hard_svr",
    "solve_ridge",
    "solve_soft_svr",
    "ssvr_risk",
    "standard_gaussian",
    "tune_hsvr",
    "tune_ssvr",
]
