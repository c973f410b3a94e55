"""Command-line front end.

Subcommands: delta-star, risk, tune, solve, estimate, sweep, figure.
Values printed to stdout use 9 significant digits; tables are written as
CSV with a '#'-prefixed metadata header (version, command, parameters).
Exit codes: 0 success, 1 usage error, 2 mathematically infeasible,
unsupported regime or a limit that could not be certified.

An argument @FILE stands for the arguments in FILE, each line split as a
shell would split it ('#' starts a comment); a later flag overrides an
earlier one.  A flag the subcommand does not take, or one its estimator
would not read, exits 1.
"""

from __future__ import annotations

import argparse
import csv
import functools
import shlex
import sys

import numpy as np

from . import __version__
from .asymptotics import (
    HsvrProblem,
    SsvrProblem,
    UncertifiedLimit,
    delta_star,
    hsvr_risk,
    ssvr_risk,
    tune_hsvr,
    tune_ssvr,
)
from .montecarlo import ESTIMATOR_PARAMS, ESTIMATORS, SweepSpec, run_points, run_sweep
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

# the estimator-specific flags each estimator reads: risk, solve and sweep
# reject the others, so a '# command' line records no flag that changed nothing
_ESTIMATOR_FLAGS = {**ESTIMATOR_PARAMS, "ridge": ("lam",)}


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def convert_arg_line_to_args(self, arg_line):  # a line of an @FILE
        return shlex.split(arg_line, comments=True)


def fmt(x) -> str:
    """9 significant digits; blank for missing values."""
    if x is None:
        return ""
    return f"{float(x):.9g}"


def _noise_from(args) -> NoiseModel:
    if args.noise == "gaussian":
        if args.dof is not None:
            raise CliError("--dof applies only to --noise mixture")
        return standard_gaussian()
    if args.dof is None:
        raise CliError("--noise mixture requires --dof")
    return scale_mixture(args.dof)


def _check_estimator_flags(args, swept=None):
    """Exit 1 on an estimator-specific flag args.estimator does not read,
    and on a missing one it needs (without --lam, ridge takes the oracle λ)."""
    reads = _ESTIMATOR_FLAGS[args.estimator]
    for name in ("eps", "cost", "lam"):
        given = getattr(args, name, None) is not None
        if given and name not in reads:
            raise CliError(f"svrisk {args.command} {args.estimator} reads no --{name}")
        if not given and name in reads and name not in ("lam", swept):
            raise CliError(f"missing required parameter --{name}")


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

def cmd_delta_star(args):
    value = delta_star(args.eps, args.sigma, _noise_from(args))
    print(fmt(value) if np.isfinite(value) else "inf")
    return EXIT_OK


def cmd_risk(args):
    _check_estimator_flags(args)
    noise = _noise_from(args)
    if args.estimator == "hsvr":
        sol = hsvr_risk(HsvrProblem(args.delta, args.sigma, args.beta, args.eps, noise))
    else:
        sol = ssvr_risk(SsvrProblem(args.delta, args.sigma, args.beta, args.eps, noise,
                                    cost=args.cost))
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


def cmd_tune(args):
    noise = _noise_from(args)
    if args.estimator == "hsvr":
        eps_opt, risk_opt = tune_hsvr(args.delta, args.sigma, args.beta, noise)
        print(f"eps_opt {fmt(eps_opt)}")
    else:
        eps_opt, cost_opt, risk_opt = tune_ssvr(args.delta, args.sigma, args.beta, noise)
        print(f"eps_opt {fmt(eps_opt)}")
        print(f"cost_opt {fmt(cost_opt)}")
    print(f"risk_opt {fmt(risk_opt)}")
    return EXIT_OK


def cmd_solve(args):
    _check_estimator_flags(args)
    data = generate_dataset(args.p, args.delta, args.beta, args.sigma, _noise_from(args),
                            seed=args.seed)
    if args.estimator == "hsvr":
        fit = solve_hard_svr(data, args.eps)
        weights, status = fit.weights, fit.status
    elif args.estimator == "ssvr":
        fit = solve_soft_svr(data, args.eps, args.cost)
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


def cmd_estimate(args):
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
        grid = tuple(float(v) for v in text.replace(",", " ").split())
    except ValueError:
        grid = ()
    if not grid:
        raise CliError(f"bad grid: {text!r}")
    return grid


def cmd_sweep(args):
    if args.swept not in ("delta",) + _ESTIMATOR_FLAGS[args.estimator]:
        raise CliError(f"svrisk sweep {args.estimator} reads no {args.swept}")
    if getattr(args, args.swept) is not None:
        raise CliError(f"--{args.swept} is swept; --grid gives its values")
    _check_estimator_flags(args, swept=args.swept)
    fixed = {name: getattr(args, name) for name in ("delta", "sigma", "beta", "eps", "cost")
             if getattr(args, name) is not None}
    spec = SweepSpec(estimator=args.estimator, swept=args.swept,
                     grid=_parse_grid(args.grid), fixed=fixed, p=args.p,
                     trials=args.trials, base_seed=args.base_seed,
                     theory=not args.no_theory, noise=_noise_from(args))
    rows = run_sweep(spec)
    columns = ["swept_value", "theory_risk", "theory_cosine", "mean_risk",
               "stderr_risk", "mean_cosine", "feasibility_rate", "trials_used"]
    meta = _meta(args, {"estimator": spec.estimator, "swept": spec.swept,
                        "p": spec.p, "trials": spec.trials,
                        "base_seed": spec.base_seed, **fixed})
    out = [(r.swept_value, r.theory_risk, r.theory_cosine, r.mean_risk,
            r.stderr_risk, r.mean_cosine, r.feasibility_rate, r.trials_used)
           for r in rows]
    write_csv(args.output, meta + _fit_meta(rows, DEFAULT_CONFIG.tol), columns, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Figure presets.
# ---------------------------------------------------------------------------

FIGURE_IDS = ("1", "2", "3a", "3b", "4", "5a", "5b", "6", "7a", "7b")
# theory-only presets: they reject --p, --trials and --base-seed, which
# would change no cell
THEORY_FIGURES = ("1", "4", "6")


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


def cmd_figure(args):
    fid = args.id
    if fid not in FIGURE_IDS:
        raise CliError(f"unknown figure id {fid!r}; choose from {', '.join(FIGURE_IDS)}")
    table = {"p": args.p, "trials": args.trials, "base_seed": args.base_seed}
    if fid in THEORY_FIGURES:
        for name, value in table.items():
            if value is not None:
                raise CliError(f"svrisk figure {fid} reads no --{name.replace('_', '-')}")
        table = {}
    else:
        table = {name: _TABLE_DEFAULTS[name] if value is None else value
                 for name, value in table.items()}
    p, trials, seed = table.get("p"), table.get("trials"), table.get("base_seed")
    grid = _parse_grid(args.grid) if args.grid is not None else None
    out = args.output or f"fig{fid}.csv"
    meta = _meta(args, {"figure": fid, **table})
    g = standard_gaussian()
    emp_rows = []

    def empirical(noise, points):
        """Monte Carlo rows of (estimator, params) points, given in path order."""
        rows = run_points(points, p, trials, seed, noise)
        emp_rows.extend(rows)
        return rows

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
        deltas = [d for d in delta_grid if d <= 0.98 * dstar]
        emp = iter(empirical(g, [("hsvr", {"delta": d, "sigma": 1.0, "beta": b, "eps": 1.0})
                                 for d in deltas for b in betas]))
        rows = []
        for d in deltas:
            row = [d]
            for b in betas:
                sol = hsvr_risk(HsvrProblem(d, 1.0, b, 1.0, g))
                e = next(emp)
                row += [sol.risk, sol.cosine, e.mean_risk, e.stderr_risk, b * b]
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
        # the path runs up the eps grid at the first sigma and back down at
        # the second, so consecutive points differ in one parameter
        path = [(s, e) for i, s in enumerate(sigmas)
                for e in (eps_grid if i % 2 == 0 else eps_grid[::-1])]
        emp = dict(zip(path, empirical(g, [
            ("hsvr", {"delta": delta, "sigma": s, "beta": 1.0, "eps": e})
            for s, e in path])))
        rows = []
        for e in eps_grid:
            row = [e]
            for s in sigmas:
                sol = hsvr_risk(HsvrProblem(delta, s, 1.0, e, g))
                row += [sol.risk if sol.feasible else None,
                        emp[s, e].mean_risk, emp[s, e].stderr_risk]
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
        points = [{"delta": 2.0, "sigma": 1.0, "beta": 1.0,
                   "eps": v if fid == "5a" else 0.6, "cost": 2.4 if fid == "5a" else v}
                  for v in cols_grid]
        # 5b walks its grid backwards, down in C: a step down puts
        # coordinates on the box, which the warm start's polish takes (on
        # the default grid 220 of 240 warm starts certify, 140 going up)
        path = list(range(len(points)))[::-1 if fid == "5b" else 1]
        emp = dict(zip(path, empirical(g, [("ssvr", points[i]) for i in path])))
        rows = []
        for i, (v, pt) in enumerate(zip(cols_grid, points)):
            sol = ssvr_risk(SsvrProblem(2.0, 1.0, 1.0, pt["eps"], g, cost=pt["cost"]))
            rows.append([v, sol.risk, emp[i].mean_risk, emp[i].stderr_risk])
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
    tuned = [(d, tune_hsvr(d, 1.0, 1.0, noise), tune_ssvr(d, 1.0, 1.0, noise))
             for d in delta_grid]
    points = []
    for d, (eps_h, _), (eps_s, cost_s, _) in tuned:
        base = {"delta": d, "sigma": 1.0, "beta": 1.0}
        points += [("hsvr", {**base, "eps": eps_h}),
                   ("ssvr", {**base, "eps": eps_s, "cost": cost_s}),
                   ("ridge_oracle", base)]
    emp = iter(empirical(noise, points))
    rows = []
    for d, (_, risk_h), (_, _, risk_s) in tuned:
        emp_h, emp_s, emp_r = next(emp), next(emp), next(emp)
        rows.append([d, risk_h, risk_s, emp_r.mean_risk,
                     emp_h.mean_risk, emp_h.stderr_risk,
                     emp_s.mean_risk, emp_s.stderr_risk,
                     emp_r.mean_risk, emp_r.stderr_risk])
    write(cols, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------

def _add_noise(sp):
    sp.add_argument("--noise", choices=["gaussian", "mixture"], default="gaussian")
    sp.add_argument("--dof", type=float, default=None)
    sp.add_argument("--sigma", type=float, default=1.0)


def _add_common(sp):
    _add_noise(sp)
    sp.add_argument("--beta", type=float, default=1.0)


_TABLE_DEFAULTS = {"p": 200, "trials": 20, "base_seed": 0}


def _add_table(sp, defaults=_TABLE_DEFAULTS):
    """--p, --trials, --base-seed and --output; ``figure`` passes no defaults,
    so that it can tell a given flag from an omitted one."""
    sp.add_argument("--p", type=int, default=defaults.get("p"))
    sp.add_argument("--trials", type=int, default=defaults.get("trials"))
    sp.add_argument("--base-seed", dest="base_seed", type=int,
                    default=defaults.get("base_seed"))
    sp.add_argument("--output", "-o", default=None)


@functools.cache
def build_parser():
    """The parser, built once per process: ``main`` may run many times."""
    parser = _Parser(prog="svrisk", fromfile_prefix_chars="@",
                     description="High-dimensional SVR risk asymptotics and simulation; "
                                 "@FILE reads further arguments from FILE")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("delta-star", help="hard-tube feasibility threshold")
    _add_noise(sp)
    sp.add_argument("--eps", type=float, required=True)
    sp.set_defaults(handler=cmd_delta_star)

    sp = sub.add_parser("risk", help="limiting risk of hsvr or ssvr")
    sp.add_argument("estimator", choices=["hsvr", "ssvr"])
    _add_common(sp)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--cost", type=float, default=None)
    sp.set_defaults(handler=cmd_risk)

    sp = sub.add_parser("tune", help="optimal hyperparameters and risk")
    sp.add_argument("estimator", choices=["hsvr", "ssvr"])
    _add_common(sp)
    sp.add_argument("--delta", type=float, required=True)
    sp.set_defaults(handler=cmd_tune)

    sp = sub.add_parser("solve", help="solve one synthetic finite-sample instance")
    sp.add_argument("estimator", choices=["hsvr", "ssvr", "ridge"])
    _add_common(sp)
    sp.add_argument("--delta", type=float, required=True)
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
    sp.add_argument("estimator", choices=ESTIMATORS)
    _add_common(sp)
    sp.add_argument("--swept", choices=["delta", "eps", "cost"], required=True)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--cost", type=float, default=None)
    sp.add_argument("--grid", required=True, help="whitespace/comma separated values")
    sp.add_argument("--no-theory", action="store_true")
    _add_table(sp)
    sp.set_defaults(handler=cmd_sweep)

    sp = sub.add_parser("figure", help="reproduce a preset table")
    sp.add_argument("id", help=f"one of {', '.join(FIGURE_IDS)}")
    sp.add_argument("--grid", help="override the preset grid")
    _add_table(sp, defaults={})
    sp.set_defaults(handler=cmd_figure)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # the command line CSV metadata records, @FILE as given
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, UnsupportedRegime) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UncertifiedLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
