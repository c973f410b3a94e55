"""Per-layer counts and timings of the theory layer and the dual solver.

    python3 tools/layer_counts.py [--src DIR] [--fits]

Prints one JSON object:

- ``delta_star``: expectation calls of each ``delta_star`` call over a
  50-case grid (Gaussian and Student-t d = 2.1, 3, 10, 30 noise;
  eps in {0.05, 0.5, 1, 3, 20}; sigma in {0.2, 1}), and their sum;
- ``theory_heavy``: ``expect_evals`` (or, for ``delta_star``, the counted
  calls) of each un-jittered point of the benchmark's ``theory_heavy``
  job list (``perfbench/workloads.py``);
- ``ssvr``: ``expect_evals``, ``value_evals`` and the risk (``repr``) of
  each ``ssvr_risk`` solve over a 72-case grid, delta in {1.5, 2, 3.8} x
  eps in {0.2, 0.8} x C in {0.8, 12.8, 100, 1e6} x {Gaussian, d = 3,
  d = 10}, at tol 1e-8 and at tol 1e-3, and at the benchmark's
  ``GAUSS_SCAN`` and ``HEAVY_SCAN`` (tol 1e-3) and ``SSVR_POINT`` (default
  tol) points; sums of both counts, the sorted ``diagnostics`` keys, and
  the largest ``stationarity`` and ``chi_residual`` over the grid at each
  tol;
- ``hsvr``: ``expect_evals`` and the risk (``repr``; None when
  infeasible) of each ``hsvr_risk`` solve at the criterion-2 anchors, the
  benchmark's un-jittered hsvr points (``perfbench/workloads.py``), a
  near-threshold scan (Gaussian, sigma = 0.2, eps = 1, beta = 2,
  delta/delta* from 0.5 to 1 - 1e-6) and a 936-problem feasibility grid
  (Gaussian and Student-t d = 2.1, 3, 10; sigma in {0.2, 1}; eps in
  {0, 0.1, 1, 10, 30, 100}; beta in {0.5, 2}; delta/delta* in {0.5, 0.9,
  1 +- 1e-4, 1 +- 1e-7, 1 +- 1e-9, 1 +- 1e-11, 1.1, 1}; delta* = inf
  skipped) and a beta/sigma scan (Gaussian, beta = 1, eps = 0.5,
  delta in {1, 2}, sigma in {1, 0.1, 0.02, 0.01, 0.002, 1e-3, 1e-6});
  the sum of the calls over the named points, over the grid and over
  the scan, and the grid's feasible count;
- ``us_per_call``: median microseconds of one ``e_hinge_moments`` call,
  Gaussian and Student-t d = 3, 10, over 15 blocks of 2,000 calls;
- with ``--fits``, ``polish``: status, iterations and KKT solves of 80 dual
  solves at p = 200 (40 soft fits at C = 100 and, for seeds 0-9, hard
  fits at 0.9 and 1.1 delta* and soft fits at C = 0.5 and 2.4), and a
  hash of their weights; ``near_threshold``: the same for 40 hard fits
  at p = 200, eps = sigma = beta = 1, 0.9 and 1.1 delta*,
  ``SeedSequence(s, spawn_key=(0, 0))`` for s = 0-19.  Both sections
  list, per fit, [status, iterations, KKT solves, n x n Gram products of
  the gradient phase, null(X) projector builds] and sum each count: the
  gradient/polish split of every solve.  The last two read null for a
  checkout whose ``SvrFit`` does not count them; a checkout whose
  ``SvrFit`` has a counter named in ``LEGACY`` gets it appended.  Every
  fit of these two sections has n > p.  ``cold``: the same for 50 cold
  fits with n <= p at p = 200, sigma = beta = 1, seeds 0-9
  (``SeedSequence(s, spawn_key=(3, 0))``): hard at eps = 1 and delta in
  {0.5, 1}, soft at eps = 0.6, delta = 1 and C in {0.5, 2.4, 100}, with
  ``iter0_fits`` the fits certified at iteration 0 (the zero-pattern
  guess of ``solvers._solve_dual``; the rest pay its KKT solves and run
  the ascent).  ``timing``, per section of these three: the median
  microseconds per ascent iteration over the fits that ran the ascent
  (``us_per_iter``: the fit's wall time less its time in
  ``solvers._polish`` and ``solvers._null_projector``, over its
  iterations; fits certified at iteration 0 are left out) and the median
  milliseconds per fit in ``_polish`` (``polish_ms``): the gradient/polish
  split in time.  The three sections run ``ROUNDS`` = 5 times, one
  round of all three after another, so that a drift of the host's speed
  reaches every section alike; each fit's times are the median over the
  rounds, and every round must give the same counts.
  The tool wraps those functions and ``solvers._solve_dual`` while the
  fits run; the package is not changed.  The timings sit under their own
  key so that the count sections diff exactly.

``--src`` points at the ``src`` directory of the checkout to measure
(default: this one), so one harness gives before and after numbers.
Counts repeat exactly; timings depend on the host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 5  # timed rounds of the --fits sections


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--fits", action="store_true")
    return ap.parse_args(argv)


def delta_star_counts(sv):
    cases = {}
    for dof in (0, 2.1, 3.0, 10.0, 30.0):
        noise = sv.standard_gaussian() if dof == 0 else sv.scale_mixture(dof)
        for eps in (0.05, 0.5, 1.0, 3.0, 20.0):
            for sigma in (0.2, 1.0):
                with sv.count_expectations() as counter:
                    sv.delta_star(eps, sigma, noise)
                cases[f"dof={dof:g},eps={eps:g},sigma={sigma:g}"] = counter.n
    return {"total": sum(cases.values()), "cases": cases}


def theory_heavy_counts(sv):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    def noise(dof):
        return sv.standard_gaussian() if dof == 0 else sv.scale_mixture(dof)

    out = {}
    for vals, _ in workloads.HEAVY_HSVR:
        d, s, b, e, dof = vals
        sol = sv.hsvr_risk(sv.HsvrProblem(d, s, b, e, noise(dof)))
        out[f"hsvr:{workloads.num(d)},{workloads.num(e)},dof={dof}"] = sol.diagnostics["expect_evals"]
    for d, e, c, dof in workloads.HEAVY_SCAN:
        sol = sv.ssvr_risk(sv.SsvrProblem(d, 1.0, 1.0, e, noise(dof), cost=c), tol=1e-3)
        out[f"scan:{workloads.num(d)},{workloads.num(e)},{workloads.num(c)},dof={dof}"] = \
            sol.diagnostics["expect_evals"]
    for e, dof in workloads.HEAVY_DSTAR:
        with sv.count_expectations() as counter:
            sv.delta_star(e, 1.0, noise(dof))
        out[f"dstar:{workloads.num(e)},dof={dof}"] = counter.n
    return out


def ssvr_counts(sv):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    def noise(dof):
        return sv.standard_gaussian() if dof == 0 else sv.scale_mixture(dof)

    cases, keys = {}, set()
    worst = {}

    def solve(label, d, e, c, dof, **kw):
        sol = sv.ssvr_risk(sv.SsvrProblem(d, 1.0, 1.0, e, noise(dof), cost=c), **kw)
        keys.update(sol.diagnostics)
        cases[label] = [sol.diagnostics["expect_evals"], sol.diagnostics["value_evals"],
                        repr(sol.risk)]
        return sol.diagnostics

    for tol in (1e-8, 1e-3):
        certs = worst[f"tol={tol:g}"] = {"stationarity": 0.0, "chi_residual": 0.0}
        for dof in (0, 3, 10):
            for d in (1.5, 2.0, 3.8):
                for e in (0.2, 0.8):
                    for c in (0.8, 12.8, 100.0, 1e6):
                        diag = solve(f"grid:tol={tol:g},dof={dof},{d:g},{e:g},{c:g}",
                                     d, e, c, dof, tol=tol)
                        for name in certs:
                            certs[name] = max(certs[name], diag[name])
    for name, points in (("gauss_scan", workloads.GAUSS_SCAN),
                         ("heavy_scan", workloads.HEAVY_SCAN)):
        for d, e, c, dof in points:
            solve(f"{name}:{d:g},{e:g},{c:g},dof={dof}", d, e, c, dof, tol=1e-3)
    d, e, c, dof = workloads.SSVR_POINT
    solve(f"ssvr_point:{d:g},{e:g},{c:g},dof={dof}", d, e, c, dof)
    return {
        "expect_evals": sum(v[0] for v in cases.values()),
        "value_evals": sum(v[1] for v in cases.values()),
        "diagnostics_keys": sorted(keys),
        "grid_max_certificates": worst,
        "cases": cases,
    }


def hsvr_counts(sv):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    def noise(dof):
        return sv.standard_gaussian() if dof == 0 else sv.scale_mixture(dof)

    def solve(d, s, b, e, dof):
        sol = sv.hsvr_risk(sv.HsvrProblem(d, s, b, e, noise(dof)))
        return [sol.diagnostics["expect_evals"], repr(sol.risk) if sol.feasible else None]

    points = {}
    for (d, s, e), _ in workloads.ANCHORS:
        points[f"anchor:{d:g},{s:g},{e:g}"] = solve(d, s, 1.0, e, 0)
    for vals, _ in workloads.GAUSS_HSVR + workloads.HEAVY_HSVR:
        points["bench:" + ",".join(f"{v:g}" for v in vals)] = solve(*vals)
    for d in workloads.MC_HSVR_GRID:
        points[f"bench:{d:g},1,1,1,0"] = solve(d, 1.0, 1.0, 1.0, 0)
    dstar = sv.delta_star(1.0, 0.2, noise(0))
    for f in (0.5, 0.7, 0.9, 0.99, 0.999, 1 - 1e-4, 1 - 1e-5, 1 - 1e-6):
        points[f"near:{f!r}"] = solve(f * dstar, 0.2, 2.0, 1.0, 0)
    grid = {}
    fracs = (0.5, 0.9, 1 - 1e-4, 1 + 1e-4, 1 - 1e-7, 1 + 1e-7, 1 - 1e-9, 1 + 1e-9,
             1 - 1e-11, 1 + 1e-11, 1.1, 1.0)
    for dof in (0, 2.1, 3.0, 10.0):
        for sigma in (0.2, 1.0):
            for eps in (0.0, 0.1, 1.0, 10.0, 30.0, 100.0):
                dstar = sv.delta_star(eps, sigma, noise(dof))
                if dstar == float("inf"):
                    continue
                for beta in (0.5, 2.0):
                    for f in fracs:
                        grid[f"dof={dof:g},{sigma:g},{eps:g},{beta:g},{f!r}"] = \
                            solve(f * dstar, sigma, beta, eps, dof)
    scan = {f"{d:g},{sigma:g}": solve(d, sigma, 1.0, 0.5, 0)
            for d in (1.0, 2.0) for sigma in (1.0, 0.1, 0.02, 0.01, 0.002, 1e-3, 1e-6)}
    return {
        "expect_evals": sum(v[0] for v in points.values()),
        "grid_expect_evals": sum(v[0] for v in grid.values()),
        "grid_feasible": sum(v[1] is not None for v in grid.values()),
        "scan_expect_evals": sum(v[0] for v in scan.values()),
        "points": points,
        "grid": grid,
        "scan": scan,
    }


def us_per_call(sv):
    out = {}
    for name, noise in (("gauss", sv.standard_gaussian()), ("d3", sv.scale_mixture(3.0)),
                        ("d10", sv.scale_mixture(10.0))):
        sv.e_hinge_moments(0.7, 0.4, noise)  # builds the cached rule
        blocks = [timeit.timeit(lambda: sv.e_hinge_moments(0.7, 0.4, noise), number=2000)
                  / 2000 * 1e6 for _ in range(15)]
        out[name] = round(statistics.median(blocks), 2)
    return out


WORK = ("polish_solves", "gram_products", "projector_builds")
LEGACY = ("spectral_products",)  # step-size estimate products, before the closed-form start


def fit_summary(fits, labels):
    work = WORK + tuple(name for name in LEGACY if hasattr(fits[0], name))
    per_fit = {label: [fit.status, fit.iterations] + [getattr(fit, name, None) for name in work]
               for label, fit in zip(labels, fits)}
    weights = hashlib.sha256(b"".join(fit.weights.tobytes() for fit in fits)).hexdigest()
    sums = {name: (sum(getattr(fit, name) for fit in fits) if hasattr(fits[0], name)
                   else None) for name in work}
    return {
        "fits": len(fits),
        "kkt_solves": sums.pop("polish_solves"),
        "iterations": sum(fit.iterations for fit in fits),
        **sums,
        "status": dict(sorted({s: sum(f.status == s for f in fits)
                               for s in {f.status for f in fits}}.items())),
        "weights_sha256": weights[:16],
        "per_fit": per_fit,
    }


class FitClock:
    """Times every ``solvers._solve_dual`` call made inside the ``with``
    blocks it is entered for, and the part of it spent in ``_polish`` and
    ``_null_projector`` (each wrapped only if the checkout has it).  Each
    block is one round of the same fits: ``records`` holds one list per
    round."""

    def __init__(self, solvers):
        self.solvers = solvers
        self.records = []  # per round: (fit, wall s, s in _polish, s in _null_projector)
        self._inner = [0.0, 0.0]

    def __enter__(self):
        self.records.append([])
        self.saved = {name: getattr(self.solvers, name, None)
                      for name in ("_solve_dual", "_polish", "_null_projector")}
        self.solvers._solve_dual = self._fit(self.saved["_solve_dual"])
        for slot, name in enumerate(("_polish", "_null_projector")):
            if self.saved[name] is not None:
                setattr(self.solvers, name, self._part(self.saved[name], slot))
        return self

    def __exit__(self, *exc):
        for name, real in self.saved.items():
            if real is not None:
                setattr(self.solvers, name, real)

    def _fit(self, real):
        def timed(*args, **kw):
            inner = self._inner = [0.0, 0.0]
            start = time.perf_counter()
            fit = real(*args, **kw)
            self.records[-1].append((fit, time.perf_counter() - start, *inner))
            return fit
        return timed

    def _part(self, real, slot):
        def timed(*args, **kw):
            start = time.perf_counter()
            try:
                return real(*args, **kw)
            finally:
                self._inner[slot] += time.perf_counter() - start
        return timed

    def summary(self):
        """Medians over the fits of each fit's median over the rounds."""
        per_iter, polish_ms = [], []
        for runs in zip(*self.records):  # one fit, every round
            fit = runs[0][0]
            polish_ms.append(statistics.median(polish * 1e3 for _, _, polish, _ in runs))
            if fit.iterations:
                per_iter.append(statistics.median((wall - polish - proj) / fit.iterations * 1e6
                                                  for _, wall, polish, proj in runs))
        return {
            "rounds": len(self.records),
            "ascent_fits": len(per_iter),
            "us_per_iter": round(statistics.median(per_iter), 2) if per_iter else None,
            "polish_ms": round(statistics.median(polish_ms), 3),
        }


def polish_fits(sv):
    import numpy as np

    gauss = sv.standard_gaussian()
    dstar = sv.delta_star(1.0, 1.0, gauss)
    fits, labels = [], []

    def data(delta, seed):
        return sv.generate_dataset(200, delta, 1.0, 1.0, gauss,
                                   seed=np.random.SeedSequence(seed, spawn_key=(2, 0)))

    for seed in range(40):
        fits.append(sv.solve_soft_svr(data(2.0, seed), 0.6, 100.0))
        labels.append(f"soft:C=100,seed={seed}")
    for seed in range(10):
        for f in (0.9, 1.1):
            fits.append(sv.solve_hard_svr(data(f * dstar, seed), 1.0))
            labels.append(f"hard:{f}dstar,seed={seed}")
        for cost in (0.5, 2.4):
            fits.append(sv.solve_soft_svr(data(2.0, seed), 0.6, cost))
            labels.append(f"soft:C={cost},seed={seed}")
    return fit_summary(fits, labels)


def near_threshold_fits(sv):
    import numpy as np

    gauss = sv.standard_gaussian()
    dstar = sv.delta_star(1.0, 1.0, gauss)
    fits, labels = [], []
    for f in (0.9, 1.1):
        for seed in range(20):
            data = sv.generate_dataset(200, f * dstar, 1.0, 1.0, gauss,
                                       seed=np.random.SeedSequence(seed, spawn_key=(0, 0)))
            fits.append(sv.solve_hard_svr(data, 1.0))
            labels.append(f"hard:{f}dstar,seed={seed}")
    return fit_summary(fits, labels)


def cold_fits(sv):
    import numpy as np

    gauss = sv.standard_gaussian()
    fits, labels = [], []

    def data(delta, seed):
        return sv.generate_dataset(200, delta, 1.0, 1.0, gauss,
                                   seed=np.random.SeedSequence(seed, spawn_key=(3, 0)))

    for seed in range(10):
        for delta in (0.5, 1.0):
            fits.append(sv.solve_hard_svr(data(delta, seed), 1.0))
            labels.append(f"hard:delta={delta},seed={seed}")
        square = data(1.0, seed)
        for cost in (0.5, 2.4, 100.0):
            fits.append(sv.solve_soft_svr(square, 0.6, cost))
            labels.append(f"soft:C={cost:g},seed={seed}")
    iter0 = sum(fit.status == "converged" and fit.iterations == 0 for fit in fits)
    return {"iter0_fits": iter0, **fit_summary(fits, labels)}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, args.src)
    import svrisk as sv

    report = {
        "src": args.src,
        "delta_star": delta_star_counts(sv),
        "theory_heavy": theory_heavy_counts(sv),
        "ssvr": ssvr_counts(sv),
        "hsvr": hsvr_counts(sv),
        "us_per_call": us_per_call(sv),
    }
    if args.fits:
        sections = (("polish", polish_fits), ("near_threshold", near_threshold_fits),
                    ("cold", cold_fits))
        clocks = {name: FitClock(sv.solvers) for name, _ in sections}
        for _ in range(ROUNDS):
            for name, section in sections:
                with clocks[name]:
                    counts = section(sv)
                if report.setdefault(name, counts) != counts:
                    raise SystemExit(f"{name}: a round gave other counts than the first")
        report["timing"] = {name: clock.summary() for name, clock in clocks.items()}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
