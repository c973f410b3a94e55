"""Record the reference values that the benchmark checks its ops against.

    python3 perfbench/record_refs.py      # rewrites perfbench/refs.json

Evaluates every theory point any seed can select (see
``workloads.all_reference_keys``) plus the figure rows, with the svrisk in
``src/``.  Run it only when a change to svrisk is meant to change results;
the benchmark's tolerances (``workloads.REL_*``) then decide whether a later
version still agrees.  Takes a few minutes on 2 cores.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, import_svrisk
from workloads import FIG2_GRID, FIG2_PROBE, all_reference_keys, figure_body, key, num


def main():
    api = import_svrisk()
    refs = {}
    t0 = time.perf_counter()
    for kind, vals in all_reference_keys():
        if kind == "hsvr":
            sol = api.hsvr(vals)
            if not sol.feasible:
                raise SystemExit(f"{key(kind, *vals)} is infeasible")
            value = sol.risk
        elif kind == "ssvr":
            value = api.ssvr(vals).risk
        elif kind == "scan":
            value = api.ssvr(vals, tol=1e-3).risk
        elif kind == "dstar":
            value = api.dstar(vals)
        else:  # one figure-4 row per delta
            code, text = api.figure(("figure", "4", "--grid", num(vals[0])))
            header, value = figure_body(text)
            refs["fig4:header"] = header
        refs[key(kind, *vals)] = value
        print(f"{time.perf_counter() - t0:8.1f}s {key(kind, *vals)} {value}", flush=True)
    code, text = api.figure(FIG2_PROBE + ("--grid", num(FIG2_GRID[0])))
    refs["fig2:header"], refs["fig2:" + num(FIG2_GRID[0])] = figure_body(text)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
