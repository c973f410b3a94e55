"""Command-line front end.

Subcommands: delta-star, risk, tune, solve, estimate, sweep, figure.
Values printed to stdout use 9 significant digits; tables are written as
CSV with a '#'-prefixed metadata header (config echo, version, seed).
Exit codes: 0 success, 1 usage/config error, 2 mathematically
infeasible or unsupported regime.

A config file (INI sections [problem], [sweep]) may supply any value the
subcommand reads; command-line flags override it.  Unknown sections and
keys, and keys the subcommand would ignore, are rejected.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys

import numpy as np

from . import __version__
from .asymptotics import (
    HsvrProblem,
    SsvrProblem,
    delta_star,
    hsvr_risk,
    ssvr_risk,
    tune_hsvr,
    tune_ssvr,
)
from .montecarlo import SweepSpec, run_sweep
from .noise import NoiseModel, scale_mixture, standard_gaussian
from .scalar_opt import golden_section_min
from .solvers import (
    DEFAULT_CONFIG,
    UnsupportedRegime,
    estimate_noise_signal,
    generate_dataset,
    oracle_ridge,
    prediction_risk,
    cosine_similarity,
    solve_hard_svr,
    solve_ridge,
    solve_soft_svr,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2

_CONFIG_SCHEMA = {
    "problem": {"delta", "sigma", "beta", "eps", "cost", "noise", "dof"},
    "sweep": {"grid", "p", "trials", "base_seed"},
}
# the config keys each subcommand reads; a config naming any other exits 1
_CONFIG_READS = {
    "delta-star": {"problem": {"eps", "sigma", "noise", "dof"}},
    "risk": {"problem": _CONFIG_SCHEMA["problem"]},
    "tune": {"problem": {"delta", "sigma", "beta", "noise", "dof"}},
    "solve": {"problem": _CONFIG_SCHEMA["problem"]},
    "sweep": _CONFIG_SCHEMA,
    "figure": {"sweep": {"p", "trials", "base_seed"}},
}


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def fmt(x) -> str:
    """9 significant digits; blank for missing values."""
    if x is None:
        return ""
    return f"{float(x):.9g}"


def load_config(path, command) -> dict:
    """Read an INI config, validating sections and keys against the schema
    and against what ``command`` reads (a value it would ignore exits 1)."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise CliError(f"config file not found: {path}")
    reads = _CONFIG_READS[command]
    out = {}
    for section in cp.sections():
        if section not in _CONFIG_SCHEMA:
            raise CliError(f"unknown config section [{section}]")
        for key, value in cp.items(section):
            if key not in _CONFIG_SCHEMA[section]:
                raise CliError(f"unknown config key {key!r} in [{section}]")
            if section not in reads:
                raise CliError(f"svrisk {command} reads no config section [{section}]")
            if key not in reads[section]:
                raise CliError(f"svrisk {command} reads no config key {key!r} in [{section}]")
            out[key] = value
    return out


def _noise_from(args, cfg) -> NoiseModel:
    kind = getattr(args, "noise", None) or cfg.get("noise", "gaussian")
    dof = getattr(args, "dof", None)
    if dof is None and "dof" in cfg:
        dof = float(cfg["dof"])
    if kind in ("gaussian", "standard_gaussian"):
        return standard_gaussian()
    if kind in ("mixture", "scale_mixture"):
        if dof is None:
            raise CliError("scale_mixture noise requires --dof")
        return scale_mixture(dof)
    raise CliError(f"unknown noise kind {kind!r}")


def _param(args, cfg, name, cast=float, default=None, required=True):
    val = getattr(args, name, None)
    if val is None and name in cfg:
        val = cast(cfg[name])
    if val is None:
        val = default
    if val is None and required:
        raise CliError(f"missing required parameter --{name.replace('_', '-')}")
    return val


def write_csv(path, header_meta, columns, rows):
    """CSV with '#' metadata lines, a header row, and 9-significant-digit cells."""
    def emit(fh):
        for line in header_meta:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(v) if isinstance(v, (int, float)) or v is None else v
                             for v in row])

    if path in (None, "-"):
        emit(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            emit(fh)
        print(path)


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------

def cmd_delta_star(args, cfg):
    noise = _noise_from(args, cfg)
    eps = _param(args, cfg, "eps")
    sigma = _param(args, cfg, "sigma", default=1.0)
    value = delta_star(eps, sigma, noise)
    print(fmt(value) if np.isfinite(value) else "inf")
    return EXIT_OK


def cmd_risk(args, cfg):
    noise = _noise_from(args, cfg)
    delta = _param(args, cfg, "delta")
    sigma = _param(args, cfg, "sigma", default=1.0)
    beta = _param(args, cfg, "beta", default=1.0)
    eps = _param(args, cfg, "eps")
    if args.estimator == "hsvr":
        sol = hsvr_risk(HsvrProblem(delta, sigma, beta, eps, noise))
    else:
        cost = _param(args, cfg, "cost")
        sol = ssvr_risk(SsvrProblem(delta, sigma, beta, eps, noise, cost=cost))
    if not sol.feasible:
        print("infeasible")
        return EXIT_INFEASIBLE
    print(f"risk {fmt(sol.risk)}")
    print(f"cosine {fmt(sol.cosine) if sol.cosine is not None else 'undefined'}")
    print(f"g1 {fmt(sol.g1)}")
    print(f"g2 {fmt(sol.g2)}")
    if sol.chi is not None:
        print(f"chi {fmt(sol.chi)}")
    print("feasible true")
    return EXIT_OK


def cmd_tune(args, cfg):
    noise = _noise_from(args, cfg)
    delta = _param(args, cfg, "delta")
    sigma = _param(args, cfg, "sigma", default=1.0)
    beta = _param(args, cfg, "beta", default=1.0)
    if args.estimator == "hsvr":
        eps_opt, risk_opt = tune_hsvr(delta, sigma, beta, noise)
        print(f"eps_opt {fmt(eps_opt)}")
    else:
        eps_opt, cost_opt, risk_opt = tune_ssvr(delta, sigma, beta, noise)
        print(f"eps_opt {fmt(eps_opt)}")
        print(f"cost_opt {fmt(cost_opt)}")
    print(f"risk_opt {fmt(risk_opt)}")
    return EXIT_OK


def cmd_solve(args, cfg):
    noise = _noise_from(args, cfg)
    delta = _param(args, cfg, "delta")
    sigma = _param(args, cfg, "sigma", default=1.0)
    beta = _param(args, cfg, "beta", default=1.0)
    data = generate_dataset(args.p, delta, beta, sigma, noise, seed=args.seed)
    if args.estimator == "hsvr":
        fit = solve_hard_svr(data, _param(args, cfg, "eps"))
        weights, status = fit.weights, fit.status
    elif args.estimator == "ssvr":
        fit = solve_soft_svr(data, _param(args, cfg, "eps"), _param(args, cfg, "cost"))
        weights, status = fit.weights, fit.status
    else:
        if args.lam is not None:
            weights = solve_ridge(data, args.lam)
        else:
            _, weights = oracle_ridge(data)
        status = "converged"
    if status == "infeasible":
        print("infeasible")
        return EXIT_INFEASIBLE
    cos = cosine_similarity(weights, data.truth)
    print(f"risk {fmt(prediction_risk(weights, data.truth))}")
    print(f"cosine {fmt(cos) if cos is not None else 'undefined'}")
    print(f"status {status}")
    return EXIT_OK


def cmd_estimate(args, cfg):
    try:
        with open(args.file, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            lines = [line for line in fh if line.strip()]
    except OSError as exc:
        raise CliError(f"cannot read {args.file}: {exc}")
    if header[0] != "y" or len(header) < 2:
        raise CliError("estimate input must have header y,x1,...,xp")
    if not lines:
        raise CliError(f"{args.file} has no data rows")
    table = np.loadtxt(lines, delimiter=",", ndmin=2)
    if table.shape[1] != len(header):
        raise CliError(f"{args.file}: rows have {table.shape[1]} values, "
                       f"the header names {len(header)}")
    if not np.isfinite(table).all():
        raise CliError(f"{args.file} holds a non-finite value")
    y = table[:, 0]
    x = table[:, 1:].T  # p x n
    try:
        sigma2, beta2 = estimate_noise_signal(x, y)
    except UnsupportedRegime as exc:
        print(f"unsupported regime: {exc}")
        return EXIT_INFEASIBLE
    print(f"sigma2_hat {fmt(sigma2)}")
    print(f"beta2_hat {fmt(beta2)}")
    return EXIT_OK


def _parse_grid(text):
    try:
        return tuple(float(v) for v in text.replace(",", " ").split())
    except ValueError:
        raise CliError(f"bad grid: {text!r}")


def cmd_sweep(args, cfg):
    noise = _noise_from(args, cfg)
    grid = _parse_grid(args.grid if args.grid else cfg.get("grid", ""))
    fixed = {}
    for name in ("delta", "sigma", "beta", "eps", "cost"):
        val = _param(args, cfg, name, required=False)
        if val is not None:
            fixed[name] = val
    fixed.setdefault("sigma", 1.0)
    fixed.setdefault("beta", 1.0)
    try:
        spec = SweepSpec(
            estimator=args.estimator,
            swept=args.swept,
            grid=grid,
            fixed=fixed,
            p=int(_param(args, cfg, "p", cast=int, default=200)),
            trials=int(_param(args, cfg, "trials", cast=int, default=20)),
            base_seed=int(_param(args, cfg, "base_seed", cast=int, default=0)),
            theory=not args.no_theory,
            noise=noise,
        )
    except ValueError as exc:
        raise CliError(str(exc))
    rows = run_sweep(spec)
    columns = ["swept_value", "theory_risk", "theory_cosine", "mean_risk",
               "stderr_risk", "mean_cosine", "feasibility_rate", "trials_used"]
    meta = _meta(args, {"estimator": spec.estimator, "swept": spec.swept,
                        "p": spec.p, "trials": spec.trials,
                        "base_seed": spec.base_seed, **fixed})
    out = [(r.swept_value, r.theory_risk, r.theory_cosine, r.mean_risk,
            r.stderr_risk, r.mean_cosine, r.feasibility_rate, r.trials_used)
           for r in rows]
    write_csv(args.output, meta + _fit_meta(rows, spec.solver.tol), columns, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Figure presets.
# ---------------------------------------------------------------------------

FIGURE_IDS = ("1", "2", "3a", "3b", "4", "5a", "5b", "6", "7a", "7b")


def _meta(args, params):
    items = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return [f"svrisk {__version__}", f"command {' '.join(args.argv)}", items]


def _fit_meta(rows, tol):
    """Metadata lines flagging the fits behind the means, if any need it.

    unconverged=k counts the fits left out of the means; worst_gap is
    written only when some fit in the means has a duality gap above tol.
    """
    lines = []
    k = sum(r.unconverged for r in rows)
    if k:
        lines.append(f"unconverged={k}")
    gap = max((r.worst_gap for r in rows if r.worst_gap is not None), default=0.0)
    if gap > tol:
        lines.append(f"worst_gap={fmt(gap)}")
    return lines


def cmd_figure(args, cfg):
    fid = args.id
    if fid not in FIGURE_IDS:
        raise CliError(f"unknown figure id {fid!r}; choose from {', '.join(FIGURE_IDS)}")
    p = int(_param(args, cfg, "p", cast=int, default=200))
    trials = int(_param(args, cfg, "trials", cast=int, default=20))
    seed = int(_param(args, cfg, "base_seed", cast=int, default=0))
    grid = _parse_grid(args.grid) if args.grid else None
    out = args.output or f"fig{fid}.csv"
    meta = _meta(args, {"figure": fid, "p": p, "trials": trials, "base_seed": seed})
    g = standard_gaussian()
    emp_rows = []

    def empirical(estimator, noise, **params):
        spec = SweepSpec(estimator=estimator, swept="delta",
                         grid=(params["delta"],),
                         fixed={k: v for k, v in params.items() if k != "delta"},
                         p=p, trials=trials, base_seed=seed, theory=False,
                         noise=noise)
        emp_rows.append(run_sweep(spec)[0])
        return emp_rows[-1]

    def write(cols, rows):
        write_csv(out, meta + _fit_meta(emp_rows, DEFAULT_CONFIG.tol), cols, rows)

    if fid == "1":
        eps_grid = grid or tuple(np.round(np.arange(0.05, 1.51, 0.05), 10))
        sigmas = (0.1, 0.2, 0.5, 1.0)
        cols = ["eps"] + [f"delta_star_sigma{s}" for s in sigmas]
        rows = [[e] + [delta_star(e, s, g) for s in sigmas] for e in eps_grid]
        write(cols, rows)
        return EXIT_OK

    if fid == "2":
        delta_grid = grid or tuple(np.round(np.arange(0.1, 1.81, 0.1), 10))
        betas = (0.5, 1.0, 2.0)
        dstar = delta_star(1.0, 1.0, g)
        cols = ["delta"]
        for b in betas:
            cols += [f"risk_beta{b}", f"cos_beta{b}", f"emp_risk_beta{b}",
                     f"emp_stderr_beta{b}", f"null_beta{b}"]
        rows = []
        for d in delta_grid:
            if d > 0.98 * dstar:
                continue
            row = [d]
            for b in betas:
                sol = hsvr_risk(HsvrProblem(d, 1.0, b, 1.0, g))
                emp = empirical("hsvr", g, delta=d, sigma=1.0, beta=b, eps=1.0)
                row += [sol.risk, sol.cosine, emp.mean_risk, emp.stderr_risk, b * b]
            rows.append(row)
        write(cols, rows)
        return EXIT_OK

    if fid in ("3a", "3b"):
        delta = 1.0 if fid == "3a" else 1.4
        eps_grid = grid or tuple(np.round(np.arange(0.05, 1.01, 0.05), 10))
        sigmas = (0.5, 0.2)
        cols = ["eps"]
        for s in sigmas:
            cols += [f"risk_sigma{s}", f"emp_risk_sigma{s}", f"emp_stderr_sigma{s}"]
        rows = []
        for e in eps_grid:
            row = [e]
            for s in sigmas:
                sol = hsvr_risk(HsvrProblem(delta, s, 1.0, e, g))
                emp = empirical("hsvr", g, delta=delta, sigma=s, beta=1.0, eps=e)
                row += [sol.risk if sol.feasible else None,
                        emp.mean_risk, emp.stderr_risk]
            rows.append(row)
        write(cols, rows)
        return EXIT_OK

    if fid == "4":
        delta_grid = grid or tuple(np.round(np.arange(0.1, 5.01, 0.1), 10))
        eps_list = (1.0, 1.2, 1.5)
        cols = ["delta"] + [f"risk_eps{e}" for e in eps_list] + ["risk_opt"]
        dstars = {e: delta_star(e, 1.0, g) for e in eps_list}
        rows = []
        for d in delta_grid:
            row = [d]
            for e in eps_list:
                if d <= 0.98 * dstars[e]:
                    sol = hsvr_risk(HsvrProblem(d, 1.0, 1.0, e, g))
                    row.append(sol.risk if sol.feasible else None)
                else:
                    row.append(None)
            row.append(tune_hsvr(d, 1.0, 1.0, g)[1])
            rows.append(row)
        write(cols, rows)
        return EXIT_OK

    if fid in ("5a", "5b"):
        cols_grid = grid or (tuple(np.round(np.arange(0.1, 1.51, 0.1), 10))
                             if fid == "5a" else
                             tuple(np.round(np.logspace(-1, 2, 13), 10)))
        cols = ["eps" if fid == "5a" else "cost", "risk", "emp_risk", "emp_stderr"]
        rows = []
        for v in cols_grid:
            eps = v if fid == "5a" else 0.6
            cost = 2.4 if fid == "5a" else v
            sol = ssvr_risk(SsvrProblem(2.0, 1.0, 1.0, eps, g, cost=cost))
            emp = empirical("ssvr", g, delta=2.0, sigma=1.0, beta=1.0, eps=eps, cost=cost)
            rows.append([v, sol.risk, emp.mean_risk, emp.stderr_risk])
        write(cols, rows)
        return EXIT_OK

    if fid == "6":
        delta_grid = grid or tuple(np.round(np.arange(0.2, 3.81, 0.2), 10))
        cost_list = (0.5, 2.4, 10.0, 100.0)
        cols = ["delta"] + [f"risk_C{c}" for c in cost_list] + ["risk_Copt"]
        rows = []
        for d in delta_grid:
            row = [d]
            for c in cost_list:
                sol = ssvr_risk(SsvrProblem(d, 1.0, 1.0, 0.6, g, cost=c))
                row.append(sol.risk)
            _, r_opt = golden_section_min(
                lambda lc: ssvr_risk(SsvrProblem(d, 1.0, 1.0, 0.6, g,
                                                 cost=float(np.exp(lc))),
                                     tol=1e-5).risk,
                np.log(0.01), np.log(1e3), tol=1e-3)
            row.append(r_opt)
            rows.append(row)
        write(cols, rows)
        return EXIT_OK

    # figures 7a / 7b: impulsive-noise comparison with oracle-tuned estimators
    dof = 3.0 if fid == "7a" else 10.0
    noise = scale_mixture(dof)
    delta_grid = grid or (0.2, 0.6, 1.0, 1.4, 1.8, 2.2, 2.6, 3.0, 3.4, 3.8)
    cols = ["delta", "hsvr", "ssvr", "ridge",
            "hsvr_emp", "hsvr_emp_stderr", "ssvr_emp", "ssvr_emp_stderr",
            "ridge_emp", "ridge_emp_stderr"]
    rows = []
    for d in delta_grid:
        eps_h, risk_h = tune_hsvr(d, 1.0, 1.0, noise)
        eps_s, cost_s, risk_s = tune_ssvr(d, 1.0, 1.0, noise)
        emp_h = empirical("hsvr", noise, delta=d, sigma=1.0, beta=1.0, eps=eps_h)
        emp_s = empirical("ssvr", noise,
                          delta=d, sigma=1.0, beta=1.0, eps=eps_s, cost=cost_s)
        emp_r = empirical("ridge_oracle", noise, delta=d, sigma=1.0, beta=1.0)
        rows.append([d, risk_h, risk_s, emp_r.mean_risk,
                     emp_h.mean_risk, emp_h.stderr_risk,
                     emp_s.mean_risk, emp_s.stderr_risk,
                     emp_r.mean_risk, emp_r.stderr_risk])
    write(cols, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------

def _add_config(sp):
    sp.add_argument("--config", help="INI config file; flags override it")


def _add_noise(sp):
    sp.add_argument("--noise", choices=["gaussian", "mixture"], default=None)
    sp.add_argument("--dof", type=float, default=None)
    sp.add_argument("--sigma", type=float, default=None)


def _add_common(sp):
    _add_config(sp)
    _add_noise(sp)
    sp.add_argument("--beta", type=float, default=None)


def build_parser():
    parser = _Parser(prog="svrisk",
                     description="High-dimensional SVR risk asymptotics and simulation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("delta-star", help="hard-tube feasibility threshold")
    _add_config(sp)
    _add_noise(sp)
    sp.add_argument("--eps", type=float, default=None)
    sp.set_defaults(handler=cmd_delta_star)

    sp = sub.add_parser("risk", help="limiting risk of hsvr or ssvr")
    sp.add_argument("estimator", choices=["hsvr", "ssvr"])
    _add_common(sp)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--cost", type=float, default=None)
    sp.set_defaults(handler=cmd_risk)

    sp = sub.add_parser("tune", help="optimal hyperparameters and risk")
    sp.add_argument("estimator", choices=["hsvr", "ssvr"])
    _add_common(sp)
    sp.add_argument("--delta", type=float, default=None)
    sp.set_defaults(handler=cmd_tune)

    sp = sub.add_parser("solve", help="solve one synthetic finite-sample instance")
    sp.add_argument("estimator", choices=["hsvr", "ssvr", "ridge"])
    _add_common(sp)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--cost", type=float, default=None)
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--p", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(handler=cmd_solve)

    sp = sub.add_parser("estimate", help="noise/signal power from a CSV (header y,x1,...,xp)")
    sp.add_argument("file")
    sp.set_defaults(handler=cmd_estimate)

    sp = sub.add_parser("sweep", help="theory + Monte Carlo sweep to CSV")
    sp.add_argument("estimator", choices=["hsvr", "ssvr", "ridge_oracle", "null"])
    _add_common(sp)
    sp.add_argument("--swept", choices=["delta", "eps", "cost"], required=True)
    sp.add_argument("--grid", help="whitespace/comma separated values")
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--cost", type=float, default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--base-seed", dest="base_seed", type=int, default=None)
    sp.add_argument("--no-theory", action="store_true")
    sp.add_argument("--output", "-o", default=None)
    sp.set_defaults(handler=cmd_sweep)

    sp = sub.add_parser("figure", help="reproduce a preset table")
    sp.add_argument("id", help=f"one of {', '.join(FIGURE_IDS)}")
    _add_config(sp)
    sp.add_argument("--grid", help="override the preset grid")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--base-seed", dest="base_seed", type=int, default=None)
    sp.add_argument("--output", "-o", default=None)
    sp.set_defaults(handler=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv  # the command line that CSV metadata records
    try:
        cfg = load_config(args.config, args.command) if getattr(args, "config", None) else {}
        return args.handler(args, cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, UnsupportedRegime) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
