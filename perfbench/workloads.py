"""Job lists, reference points and correctness checks of the svrisk benchmark.

A workload is a fixed list of ops built from the seed.  Every op is a call
into svrisk's public API plus a check of its output; an op fails when it
raises or when its check returns a message.  Each workload also carries a
few fixed *probe* ops so that every end-to-end metric is measured on every
workload: probes are seed-independent, are spread through the job list and
stay out of ``workload_s``.

Theory points are jittered by the seed: each grid value is multiplied by
one of ``len(JITTER)`` fixed factors, so every value an op can use has a
recorded reference in ``refs.json`` (written by ``record_refs.py``).  The
criterion-2 anchors stay fixed in every run.

A run repeats the job list; ``Op.run(rep)`` takes the pass number.  Theory
ops nudge one input by ``rep`` * 1e-12 (relative), so no pass repeats an
earlier pass's exact inputs and a cache keyed on them cannot stand in for
the computation; the work is the same and the results move far less than
any tolerance.  Monte Carlo ops redo the same fits in every pass: their
data come from fixed base seeds, because one fit's cost varies up to
3-fold with its data (see ``MC_BASE_SEEDS``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

JITTER = (-2, -1, 0, 1, 2)

# ---------------------------------------------------------------------------
# Tolerances.  The checks against references are no looser than the
# acceptance suite's for the same quantity (tests/test_acceptance.py).  The
# Monte Carlo agreement check is a sanity bound: it uses fewer trials than
# criterion 4 and must hold for every seed.
# ---------------------------------------------------------------------------

REL_POINT = 1e-4        # hsvr / ssvr risk at the default tolerance vs reference
REL_SCAN = 5e-3         # ssvr risk at tol 1e-3 vs its reference (criterion 2: 5e-3)
REL_ANCHOR = 5e-3       # criterion-2 anchors vs the paper's values
REL_DSTAR = 1e-8        # delta_star vs reference (criterion 1: 1e-8)
REL_FIGURE = 1e-4       # figure CSV cells vs reference
D_RESIDUAL_MAX = 1e-7   # |D(g1*, g2*)| bound documented by hsvr_risk
KKT_MAX = 1e-6          # duality gap / tube violation of a converged fit
MC_Z = 5.0              # Monte Carlo mean vs theory, in standard errors
MC_REL_SD_FLOOR = 0.1   # per-trial relative sd floor for the standard error
MC_BIAS = 0.03          # finite-p allowance, relative to theory
RIDGE_D3 = 0.4722       # criterion 6: oracle ridge, d=3, delta=3.8, p=200

# criterion 2: (delta, sigma, eps) -> paper risk, beta = 1, Gaussian noise
ANCHORS = [
    ((1.0, 0.5, 0.13), 1.47744),
    ((1.0, 0.5, 0.41), 0.43296),
    ((1.0, 0.5, 1.0), 0.62426),
    ((1.0, 0.2, 0.10), 0.19071),
    ((0.01, 1.0, 1.0), 0.99600),
    ((1.14, 1.0, 1.0), 0.73908),
    ((1.82, 1.0, 1.0), 1.24412),
]


def num(v):
    """Canonical text of a grid value, shared by keys and CLI grids."""
    return f"{float(v):.12g}"


def key(kind, *vals):
    return kind + ":" + ",".join(num(v) if isinstance(v, float) else str(v)
                                 for v in vals)


def scaled(base, k):
    return float(num(base * (1.0 + 0.01 * k)))


# ---------------------------------------------------------------------------
# Theory grids.  Each entry lists every value its jitter can produce, so
# record_refs.py can enumerate them and the run can pick one per seed.
# ---------------------------------------------------------------------------

# Each job list is sized so that a pass takes 2-5 s on 2 cores and a run
# makes seven passes or more: every time is an op's median over the passes
# (see run.py).  Ops of 2 s or more (ssvr_risk at the default tolerance,
# figure 4) run in the traced pass only.

# hsvr: (delta, sigma, beta, eps, dof or 0 for Gaussian); index 0 is jittered
GAUSS_HSVR = (
    [((d, 1.0, 1.0, 1.0, 0), 0) for d in (0.3, 0.9, 1.5)]
    + [((1.0, 0.5, 1.0, e, 0), 3) for e in (0.2, 0.6)]
    + [((0.5, 0.2, 1.0, 0.1, 0), 0)]
)
HEAVY_HSVR = (
    [((d, 1.0, 1.0, 1.0, 3), 0) for d in (0.2, 0.95)]
    + [((d, 1.0, 1.0, 1.0, 10), 0) for d in (0.3, 0.9)]
)
# ssvr at the default tolerance, traced pass only: (delta, eps, cost, dof)
SSVR_POINT = (2.0, 0.6, 2.4, 0)
# ssvr at tol 1e-3, cells of tune_ssvr's grid: (delta, eps, cost, dof); eps
# and cost are jittered by the same offset
GAUSS_SCAN = [(2.0, e, c, 0) for e in (0.2, 0.8) for c in (0.8, 12.8)]
HEAVY_SCAN = [(3.8, 0.8, 3.2, 3)]
# delta_star: (eps, dof); eps is jittered
HEAVY_DSTAR = [(e, d) for d in (3, 10) for e in (0.5, 1.0)]
# figure 4 grid, traced pass only
FIG4_GRID = (1.0,)
FIG2_PROBE = ("figure", "2", "--p", "100", "--trials", "3")
FIG2_GRID = (0.5,)

# Monte Carlo sweeps (montecarlo workload); theory from refs
MC_HSVR_GRID = (0.5, 1.0, 1.3)        # delta, eps = 1 (delta_star = 1.85)
MC_SSVR_COSTS = (0.5, 2.4, 100.0)     # delta = 2, eps = 0.6
MC_P = 200
MC_HSVR_TRIALS = 2
MC_SSVR_TRIALS = 1
MC_RIDGE_TRIALS = 10
MC_FEAS_TRIALS = 2       # per delta, in each of two feasibility_curve calls
# Fixed base seeds of the montecarlo job list.  One fit's iteration count
# varies with its data: 1500-4750 for an infeasible hard fit at p=200,
# 500-2750 for a soft fit at C=100 (sd/mean 0.37, 0.5).  With data drawn from
# the run seed, the few dozen fits a run can hold would make the fit and
# feasibility rates differ by 10-20 % from seed to seed; the run seed orders
# the ops instead.
MC_BASE_SEEDS = (1, 2, 3, 4, 5)
PROBE_SEED = 7
NUDGE = 1e-12


def nudge(x, rep):
    """``x`` raised by ``rep`` * NUDGE, relative (see the module docstring)."""
    return x * (1.0 + NUDGE * rep)


def nudge_first(vals, rep):
    return (nudge(vals[0], rep),) + tuple(vals[1:])


def jitter_hsvr(entry, k):
    vals, idx = entry
    vals = list(vals)
    vals[idx] = scaled(vals[idx], k)
    return tuple(vals)


def jitter_scan(vals, k):
    d, e, c, dof = vals
    return (d, scaled(e, k), scaled(c, k), dof)


def all_reference_keys():
    """Every (kind, params) whose reference refs.json must hold."""
    out = []
    for (d, s, e), _ in ANCHORS:
        out.append(("hsvr", (d, s, 1.0, e, 0)))
    for entry in GAUSS_HSVR + HEAVY_HSVR:
        out += [("hsvr", jitter_hsvr(entry, k)) for k in JITTER]
    for d in MC_HSVR_GRID:
        out.append(("hsvr", (d, 1.0, 1.0, 1.0, 0)))
    out.append(("ssvr", SSVR_POINT))
    for c in MC_SSVR_COSTS:
        out.append(("ssvr", (2.0, 0.6, c, 0)))
    for vals in GAUSS_SCAN + HEAVY_SCAN:
        out += [("scan", jitter_scan(vals, k)) for k in JITTER]
    for e, dof in HEAVY_DSTAR:
        out += [("dstar", (scaled(e, k), dof)) for k in JITTER]
    out.append(("dstar", (1.0, 3)))
    out += [("fig4", (d,)) for d in FIG4_GRID]
    return list(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# Calls into svrisk (looked up on the module at call time, so that the
# tracer's wrappers see them).
# ---------------------------------------------------------------------------

@dataclass
class Api:
    """The svrisk modules, imported once by the runner."""

    sv: object
    asymptotics: object
    montecarlo: object
    solvers: object
    expectations: object
    cli: object
    status_log: list = field(default_factory=list)

    def noise_model(self, dof):
        return self.sv.standard_gaussian() if dof == 0 else self.sv.scale_mixture(dof)

    def hsvr(self, vals):
        d, s, b, e, dof = vals
        prob = self.asymptotics.HsvrProblem(d, s, b, e, self.noise_model(dof))
        return self.asymptotics.hsvr_risk(prob)

    def ssvr(self, vals, tol=None):
        d, e, c, dof = vals
        prob = self.asymptotics.SsvrProblem(d, 1.0, 1.0, e, self.noise_model(dof), cost=c)
        if tol is None:
            return self.asymptotics.ssvr_risk(prob)
        return self.asymptotics.ssvr_risk(prob, tol=tol)

    def dstar(self, vals):
        e, dof = vals
        return self.asymptotics.delta_star(e, 1.0, self.noise_model(dof))

    def figure(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(list(argv) + ["-o", "-"])
        return code, buf.getvalue()

    def install_status_hook(self):
        """Record (data, eps, fit) of every solve montecarlo makes."""
        log = self.status_log

        def logged(name, solve):
            def wrapper(data, eps, *args, **kwargs):
                fit = solve(data, eps, *args, **kwargs)
                log.append((name, data, eps, fit))
                return fit
            return wrapper

        for name in ("solve_hard_svr", "solve_soft_svr"):
            setattr(self.montecarlo, name, logged(name, getattr(self.montecarlo, name)))

    def take_status(self):
        out = list(self.status_log)
        self.status_log.clear()
        return out


def figure_body(text):
    """CSV rows of a figure table, metadata lines dropped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.reader(lines))


# ---------------------------------------------------------------------------
# Checks: each returns None or a failure message.
# ---------------------------------------------------------------------------

def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def check_value(got, want, rel, what):
    if got is None or not math.isfinite(got):
        return f"{what}: non-finite result {got!r}"
    if rel_err(got, want) > rel:
        return f"{what}: {got!r} vs reference {want!r} (rel {rel_err(got, want):.2e} > {rel:g})"
    return None


def check_hsvr(sol, want, paper=None, what="hsvr"):
    if not sol.feasible:
        return f"{what}: infeasible below delta_star"
    msg = check_value(sol.risk, want, REL_POINT, what)
    if msg is None and paper is not None:
        msg = check_value(sol.risk, paper, REL_ANCHOR, what + " (paper anchor)")
    res = sol.diagnostics.get("d_residual")
    if msg is None and res is not None and abs(res) > D_RESIDUAL_MAX:
        msg = f"{what}: |d_residual| {abs(res):.2e} > {D_RESIDUAL_MAX:g}"
    return msg


def check_figure(text, rows_ref, header_ref):
    body = figure_body(text)
    if not body or body[0] != header_ref:
        return f"figure header {body[:1]!r} != {header_ref!r}"
    if len(body) - 1 != len(rows_ref):
        return f"figure has {len(body) - 1} rows, want {len(rows_ref)}"
    for got, want in zip(body[1:], rows_ref):
        if len(got) != len(want):
            return f"figure row {got!r} vs {want!r}"
        for g, w in zip(got, want):
            if (g == "") != (w == ""):
                return f"figure cell {g!r} vs {w!r}"
            if g and rel_err(float(g), float(w)) > REL_FIGURE:
                return f"figure cell {g} vs {w} (rel > {REL_FIGURE:g})"
    return None


def check_fits(log, expect):
    """Every solve carries a valid certificate and an expected status.

    converged: tube violation (hard) and relative duality gap <= KKT_MAX,
    recomputed here from the returned weights.  infeasible: the returned
    dual, projected onto the null space of the design, is an exact Farkas
    direction (X v = 0 and y'v > eps ||v||_1), so no weights fit the tube.
    """
    for name, data, eps, fit in log:
        if fit.status not in expect:
            return f"{name}: status {fit.status!r}, expected one of {expect}"
        x, y = data.features, data.responses
        if fit.status == "converged":
            if fit.kkt_residual > KKT_MAX:
                return f"{name}: duality gap {fit.kkt_residual:.2e} > {KKT_MAX:g}"
            if name == "solve_hard_svr":
                viol = float(np.abs(y - x.T @ fit.weights).max()) - eps
                if viol > KKT_MAX:
                    return f"{name}: tube violated by {viol:.2e}"
        else:
            u = fit.dual / np.linalg.norm(fit.dual)
            coef, *_ = np.linalg.lstsq(x.T, u, rcond=None)
            v = u - x.T @ coef
            nv = float(np.abs(v).sum())
            gain = float(y @ v) - eps * nv
            leak = float(np.linalg.norm(x @ v))
            if not (gain > 1e-8 * nv * (1.0 + float(np.abs(y).max()))
                    and leak <= 1e-8 * np.linalg.norm(x) * np.linalg.norm(v)):
                return f"{name}: 'infeasible' without a Farkas direction (gain {gain:.2e})"
    return None


def check_rows(rows, theory, trials):
    """Sweep rows: all trials used, empirical mean consistent with theory."""
    for row, th in zip(rows, theory):
        if row.trials_used != trials:
            return f"sweep point {row.swept_value}: {row.trials_used}/{trials} trials used"
        if row.mean_risk is None or not math.isfinite(row.mean_risk):
            return f"sweep point {row.swept_value}: no mean risk"
        se = max(row.stderr_risk or 0.0, MC_REL_SD_FLOOR * th / math.sqrt(trials))
        if abs(row.mean_risk - th) > MC_Z * se + MC_BIAS * th:
            return (f"sweep point {row.swept_value}: mean {row.mean_risk:.5g} vs "
                    f"theory {th:.5g} (se {se:.3g})")
    return None


# ---------------------------------------------------------------------------
# Ops.
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One call into svrisk: ``run(rep)`` makes it in pass ``rep`` and
    returns a result, ``check`` judges it.

    kind selects the metric pool; trials counts Monte Carlo trials for the
    throughput metrics; probe ops stay out of workload_s.
    """

    kind: str
    label: str
    run: object
    check: object
    trials: int = 0
    probe: bool = False


def hsvr_op(api, refs, vals, paper=None, probe=False):
    want = refs[key("hsvr", *vals)]
    return Op("hsvr_point", key("hsvr", *vals), lambda rep: api.hsvr(nudge_first(vals, rep)),
              lambda sol: check_hsvr(sol, want, paper, key("hsvr", *vals)), probe=probe)


def ssvr_op(api, refs, vals, probe=False):
    want = refs[key("ssvr", *vals)]
    return Op("ssvr_point", key("ssvr", *vals), lambda rep: api.ssvr(nudge_first(vals, rep)),
              lambda sol: check_value(sol.risk, want, REL_POINT, key("ssvr", *vals)),
              probe=probe)


def scan_op(api, refs, vals, probe=False):
    want = refs[key("scan", *vals)]
    return Op("ssvr_scan", key("scan", *vals),
              lambda rep: api.ssvr(nudge_first(vals, rep), tol=1e-3),
              lambda sol: check_value(sol.risk, want, REL_SCAN, key("scan", *vals)),
              probe=probe)


def dstar_op(api, refs, vals, probe=False):
    want = refs[key("dstar", *vals)]
    return Op("delta_star", key("dstar", *vals), lambda rep: api.dstar(nudge_first(vals, rep)),
              lambda v: check_value(v, want, REL_DSTAR, key("dstar", *vals)), probe=probe)


def figure_op(api, argv, grid, rows_ref, header_ref, probe=False):
    """``svrisk figure`` with ``argv`` plus ``--grid``, the grid nudged."""
    def run(rep):
        api.take_status()
        return api.figure(argv + ("--grid", " ".join(repr(nudge(d, rep)) for d in grid)))

    def check(result):
        code, text = result
        if code != 0:
            return f"figure exited {code}"
        msg = check_fits(api.take_status(), ("converged",))
        return msg or check_figure(text, rows_ref, header_ref)

    label = " ".join(argv + ("--grid", " ".join(num(d) for d in grid)))
    return Op("figure", label, run, check, probe=probe)


def fig4_op(api, refs, grid):
    rows = [refs[key("fig4", d)] for d in grid]
    return figure_op(api, ("figure", "4"), grid, rows, refs["fig4:header"])


def fig2_probe_op(api, refs):
    rows = [refs["fig2:" + num(FIG2_GRID[0])]]
    return figure_op(api, FIG2_PROBE, FIG2_GRID, rows, refs["fig2:header"], probe=True)


def sweep_op(api, refs, estimator, swept, grid, fixed, p, trials, base_seed,
             dof=0, probe=False):
    mc = api.montecarlo
    spec = mc.SweepSpec(estimator=estimator, swept=swept, grid=tuple(grid),
                        fixed=dict(fixed), p=p, trials=trials, base_seed=base_seed,
                        theory=False, noise=api.noise_model(dof))
    if estimator == "hsvr":
        theory = [refs[key("hsvr", d, fixed["sigma"], fixed["beta"], fixed["eps"], 0)]
                  for d in grid]
    elif estimator == "ssvr":
        theory = [refs[key("ssvr", fixed["delta"], fixed["eps"], c, 0)] for c in grid]
    else:
        theory = [RIDGE_D3 for _ in grid]

    def run(rep):
        api.take_status()
        return api.montecarlo.run_sweep(spec)

    def check(rows):
        msg = check_fits(api.take_status(), ("converged",))
        return msg or check_rows(rows, theory, trials)

    label = f"sweep:{estimator}:{swept}={','.join(num(v) for v in grid)}:p{p}x{trials}"
    return Op("sweep", label, run, check, trials=trials * len(grid), probe=probe)


def feas_op(api, p, trials, base_seed, probe=False):
    gauss = api.sv.standard_gaussian()

    def run(rep):
        api.take_status()
        dstar = api.asymptotics.delta_star(1.0, 1.0, gauss)
        return api.montecarlo.feasibility_curve(
            p, 1.0, 1.0, gauss, (0.9 * dstar, 1.1 * dstar), trials, base_seed)

    def check(rows):
        msg = check_fits(api.take_status(), ("converged", "infeasible"))
        if msg:
            return msg
        (_, below), (_, above) = rows
        if not below > above:
            return f"feasible rate {below} below delta_star <= {above} above it"
        return None

    return Op("feas", f"feas:p{p}x{trials}", run, check, trials=2 * trials, probe=probe)


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

def interleave(main, probes):
    """Spread the probes evenly through the job list, each kind on its own
    stride, so that the probes of one kind do not run back to back: the
    host's speed drifts within seconds."""
    by_kind = {}
    for op in probes:
        by_kind.setdefault(op.kind, []).append(op)
    groups = list(by_kind.values())
    spread = [groups[g][i] for _, g, i in sorted(
        ((i + 0.5) / len(group), g, i)
        for g, group in enumerate(groups) for i in range(len(group)))]
    out, taken, slots = [], 0, len(main) + 1
    for j in range(slots):
        upto = round((j + 1) * len(spread) / slots)
        out += spread[taken:upto]
        taken = upto
        if j < len(main):
            out.append(main[j])
    return out


def _probes(api, refs, kinds):
    """Fixed, seed-independent ops for the metrics a job list lacks."""
    ops = []
    if "hsvr_point" in kinds:
        ops += [hsvr_op(api, refs, (d, s, 1.0, e, 0), paper, probe=True)
                for (d, s, e), paper in ANCHORS]
    if "ssvr_scan" in kinds:
        ops += [scan_op(api, refs, vals, probe=True) for vals in GAUSS_SCAN[:2]]
    if "delta_star" in kinds:
        ops.append(dstar_op(api, refs, (1.0, 3), probe=True))
    if "sweep" in kinds:
        ops.append(sweep_op(api, refs, "hsvr", "delta", (1.0,),
                            dict(sigma=1.0, beta=1.0, eps=1.0), MC_P, 2, PROBE_SEED,
                            probe=True))
        ops.append(sweep_op(api, refs, "ssvr", "cost", (2.4,),
                            dict(delta=2.0, sigma=1.0, beta=1.0, eps=0.6), MC_P, 2,
                            PROBE_SEED, probe=True))
        ops.append(sweep_op(api, refs, "ridge_oracle", "delta", (3.8,),
                            dict(sigma=1.0, beta=1.0), MC_P, 4, PROBE_SEED, dof=3,
                            probe=True))
    if "feas" in kinds:
        ops.append(feas_op(api, 100, 4, PROBE_SEED, probe=True))
    ops += [fig2_probe_op(api, refs) for _ in range(2)]
    return ops


def trace_extras(api, refs):
    """Ops of the traced pass only: each takes 2-3 s, too long to time
    steadily (see run.py), but they carry the per-layer counts of
    ``ssvr_risk`` at the default tolerance and of ``tune_hsvr``."""
    return [ssvr_op(api, refs, SSVR_POINT, probe=True), fig4_op(api, refs, FIG4_GRID)]


def shuffled(ops, rng):
    return [ops[i] for i in rng.permutation(len(ops))]


def theory_gauss(api, refs, seed):
    rng = np.random.default_rng([seed, 1])
    pick = lambda: int(rng.choice(JITTER))  # noqa: E731
    ops = [hsvr_op(api, refs, (d, s, 1.0, e, 0), paper) for (d, s, e), paper in ANCHORS]
    ops += [hsvr_op(api, refs, jitter_hsvr(entry, pick())) for entry in GAUSS_HSVR]
    ops += [scan_op(api, refs, jitter_scan(vals, pick())) for vals in GAUSS_SCAN]
    return interleave(shuffled(ops, rng), _probes(api, refs, {"sweep", "feas", "delta_star"}))


def theory_heavy(api, refs, seed):
    rng = np.random.default_rng([seed, 2])
    pick = lambda: int(rng.choice(JITTER))  # noqa: E731
    ops = [dstar_op(api, refs, (scaled(e, pick()), dof)) for e, dof in HEAVY_DSTAR]
    ops += [hsvr_op(api, refs, jitter_hsvr(entry, pick())) for entry in HEAVY_HSVR]
    ops += [scan_op(api, refs, jitter_scan(vals, pick())) for vals in HEAVY_SCAN]
    return interleave(shuffled(ops, rng), _probes(api, refs, {"sweep", "feas"}))


def montecarlo(api, refs, seed):
    base = MC_BASE_SEEDS
    ops = [
        sweep_op(api, refs, "hsvr", "delta", MC_HSVR_GRID,
                 dict(sigma=1.0, beta=1.0, eps=1.0), MC_P, MC_HSVR_TRIALS, base[0]),
        sweep_op(api, refs, "ssvr", "cost", MC_SSVR_COSTS,
                 dict(delta=2.0, sigma=1.0, beta=1.0, eps=0.6), MC_P, MC_SSVR_TRIALS,
                 base[1]),
        sweep_op(api, refs, "ridge_oracle", "delta", (3.8,),
                 dict(sigma=1.0, beta=1.0), MC_P, MC_RIDGE_TRIALS, base[2], dof=3),
    ] + [feas_op(api, MC_P, MC_FEAS_TRIALS, b) for b in base[3:5]]
    rng = np.random.default_rng([seed, 3])
    return interleave(shuffled(ops, rng),
                      _probes(api, refs, {"hsvr_point", "ssvr_scan", "delta_star"}))


WORKLOADS = {
    "theory_gauss": theory_gauss,
    "theory_heavy": theory_heavy,
    "montecarlo": montecarlo,
}
