"""Wall time and dual-solver work of each default ``svrisk figure`` preset.

    python3 tools/preset_costs.py [--src DIR] [--csv-dir DIR]

Runs ``svrisk figure <id>`` with its default grid, p, trials and seed, one
preset per fresh interpreter, with the svrisk under ``--src`` (default:
this checkout's ``src``), and prints a table followed, on the last line,
by one JSON object with, per preset:

- ``exit``: the exit code of the command;
- ``wall_s``: the wall time of the command (import excluded);
- ``fits``: the calls of ``svrisk.solvers._solve_dual`` (every hard and
  soft SVR fit), and ``dual_s`` the wall time spent in them;
- ``iterations`` and ``kkt_solves``: the summed ``SvrFit.iterations`` and
  ``SvrFit.polish_solves`` (null for a checkout without that counter);
- ``max_iters``: the fits that stopped at the iteration cap;
- ``iter0_fits``: the fits certified at iteration 0, by a warm start from
  an earlier fit on the same design or, for a fit with n <= p, by the
  polish of the zero pattern; ``cold_iter0`` counts those of them made
  without a converged ``start``, and ``iter0_dual_s`` is the part of
  ``dual_s`` spent in them;
- ``designs``: the designs drawn, counted as calls of
  ``svrisk.solvers.sample_noise_rng`` (one per draw, in every checkout);
- ``polish_s``: the wall time spent in ``svrisk.solvers._polish`` (the
  active-set polish, part of ``dual_s``), and ``failed_polishes`` its
  calls that gave no candidate (the first item of its result None).

``--csv-dir`` keeps each preset's CSV as ``fig<id>.csv`` there, so two
checkouts' tables can be diffed; without it they go to a temporary
directory.  Counts repeat exactly for a checkout; times depend on the
host.  All ten presets take about a minute on 2 cores.  The command exits
1 if any preset exits non-zero (``exit``; a child that fails outside
``svrisk figure`` reports only its own exit code) and 0 otherwise; the
children's stderr is passed on.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("1", "2", "3a", "3b", "4", "5a", "5b", "6", "7a", "7b")

# one preset in a fresh interpreter, run in the CSV directory so that the
# table's ``# command`` line is the same for every checkout: argv = [src, preset id]
CHILD_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from svrisk import cli, solvers

fits = []
draws = []
polishes = []  # (seconds, gave a candidate) per _polish call
real = solvers._solve_dual
real_noise = solvers.sample_noise_rng
real_polish = solvers._polish

def timed(*args, **kwargs):
    t0 = time.perf_counter()
    fit = real(*args, **kwargs)
    start = kwargs.get("start")
    fits.append((time.perf_counter() - t0, fit,
                 start is None or start.status != "converged"))
    return fit

def drawn(*args, **kwargs):
    draws.append(1)
    return real_noise(*args, **kwargs)

def polish(*args, **kwargs):
    t0 = time.perf_counter()
    result = real_polish(*args, **kwargs)
    polishes.append((time.perf_counter() - t0, result[0] is not None))
    return result

solvers._solve_dual = timed
solvers.sample_noise_rng = drawn
solvers._polish = polish
t0 = time.perf_counter()
code = cli.main(["figure", sys.argv[2], "-o", f"fig{sys.argv[2]}.csv"])
wall = time.perf_counter() - t0
kkt = [getattr(fit, "polish_solves", None) for _, fit, _ in fits]
iter0 = [(t, cold) for t, fit, cold in fits if fit.status == "converged" and fit.iterations == 0]
print(json.dumps({
    "exit": code, "wall_s": round(wall, 3), "fits": len(fits),
    "dual_s": round(sum(t for t, _, _ in fits), 3),
    "iterations": sum(fit.iterations for _, fit, _ in fits),
    "kkt_solves": None if None in kkt else sum(kkt),
    "max_iters": sum(fit.status == "max_iters" for _, fit, _ in fits),
    "iter0_fits": len(iter0), "cold_iter0": sum(cold for _, cold in iter0),
    "iter0_dual_s": round(sum(t for t, _ in iter0), 3),
    "designs": len(draws),
    "polish_s": round(sum(t for t, _ in polishes), 3),
    "failed_polishes": sum(not gave for _, gave in polishes),
}))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--csv-dir", default=None)
    return ap.parse_args(argv)


def run_preset(src, preset, csv_dir):
    """The child's row; only ``exit`` if the child itself failed.  The
    child's stderr is passed on."""
    out = subprocess.run([sys.executable, "-c", CHILD_CODE, src, preset], cwd=csv_dir,
                         capture_output=True, text=True)
    sys.stderr.write(out.stderr)
    if out.returncode:
        return {"exit": out.returncode}
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = os.path.abspath(args.src)
    with tempfile.TemporaryDirectory() as tmp:
        csv_dir = args.csv_dir or tmp
        os.makedirs(csv_dir, exist_ok=True)
        report = {preset: run_preset(src, preset, csv_dir) for preset in PRESETS}
    cols = ("exit", "wall_s", "fits", "dual_s", "iter0_dual_s", "iterations", "kkt_solves",
            "max_iters", "iter0_fits", "cold_iter0", "designs", "polish_s", "failed_polishes")
    print(f"{'preset':>6} " + " ".join(f"{c:>10}" for c in cols))
    for preset, row in report.items():
        print(f"{preset:>6} " + " ".join(f"{str(row.get(c)):>10}" for c in cols))
    print(json.dumps({"src": src, "presets": report}))
    return int(any(row["exit"] for row in report.values()))


if __name__ == "__main__":
    sys.exit(main())
