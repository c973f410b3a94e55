"""svrisk benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload theory_gauss --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; svrisk is imported from ``src/``.
The run repeats the workload's job list (one op at a time, each issued when
the previous one returns) while another whole pass fits in ``--seconds``,
checks every op's output, and prints a table followed, on the last line,
by one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, built from
every op's median time over the passes and scaled by the host's speed in
the run (see ``op_times`` and ``host_speed``).  ``--trace 1``
makes one pass in which every job-list op runs untraced and then traced,
back to back (so host speed drift cancels in ``trace.overhead_frac``), and
reports the per-layer metrics; spans and counters go to
``perfbench/out/``.  BLAS keeps its default thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5

# fresh interpreter -> import svrisk -> one mixture expectation (fills the
# Gauss-Legendre cache) -> one small solve (starts BLAS)
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import svrisk, svrisk.cli
svrisk.hinge_sq_mean(0.5, 1.0, 0.5, svrisk.scale_mixture(3.0))
svrisk.solve_soft_svr(svrisk.generate_dataset(50, 2.0, 1.0, 1.0, seed=0), 0.5, 1.0)
"""

E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac", "workload_s": "s",
    "hsvr_point_ms": "ms", "ssvr_scan_ms": "ms", "figure_s": "s",
    "fit_trials_per_s": "1/s", "feas_trials_per_s": "1/s",
}
# Median time of host_kernel() on the host this benchmark was written on
# (2 vCPUs, Python 3.11); reported times are scaled to it (see host_speed).
KERNEL_REF_S = 1.6e-3
EXPECT = ("hinge_sq_mean", "e_hinge_sq", "e_hinge_abs", "soft_expectation")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_svrisk():
    sys.path.insert(0, str(SRC))
    import svrisk
    from svrisk import asymptotics, cli, expectations, montecarlo, solvers
    if Path(svrisk.__file__).resolve().parent != SRC / "svrisk":
        raise SystemExit(f"svrisk imported from {svrisk.__file__}, not {SRC}")
    from workloads import Api
    return Api(svrisk, asymptotics, montecarlo, solvers, expectations, cli)


def measure_setup(kernel_times):
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
        kernel_times.append(time_kernel())
    return times


def host_kernel():
    """A fixed piece of pure-Python work that uses nothing of svrisk or
    numpy; timed between ops to follow the host's speed."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def time_kernel():
    t0 = time.perf_counter()
    host_kernel()
    return time.perf_counter() - t0


def host_speed(kernel_times):
    """The host's speed in this run relative to the reference host: the
    reference kernel time over this run's median kernel time.

    Other tenants share the host's cores, and its speed drifts by 15-40 %
    over tens of seconds: whole runs are slower or faster, every op by
    about the same factor.  A time multiplied by this speed estimates the
    time on the reference host, which is what one run can compare with
    another.  On 5-minute recordings of each job list cut into 32 s runs,
    the per-metric spread across runs (quartile distance over median) was
    0.06-0.26 as measured and 0.03-0.12 once scaled.
    """
    return KERNEL_REF_S / statistics.median(kernel_times)


def warm_up(api):
    """Untimed: the set-up work, plus the first LAPACK calls of each kind
    (eigh, solve, lstsq) that the job lists make at their sizes."""
    sv = api.sv
    sv.hinge_sq_mean(0.5, 1.0, 0.5, sv.scale_mixture(3.0))
    sv.solve_soft_svr(sv.generate_dataset(50, 2.0, 1.0, 1.0, seed=0), 0.5, 1.0)
    sv.oracle_ridge(sv.generate_dataset(200, 3.8, 1.0, 1.0, sv.scale_mixture(3.0), seed=0))
    sv.solve_hard_svr(sv.generate_dataset(100, 1.0, 1.0, 1.0, seed=0), 1.0)


def environment(args):
    import numpy as np
    import scipy
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "svrisk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": commit, "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Passes.
# ---------------------------------------------------------------------------

def run_op(op, rep, tracer=None):
    """Time ``op.run`` in pass ``rep`` (the check stays outside the timing);
    return a record."""
    result, error = None, None
    t0 = time.perf_counter()
    try:
        if tracer:
            result = tracer.op(op_key(op), op.label, lambda: op.run(rep))
        else:
            result = op.run(rep)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{op.label}: raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"{op.label}: check raised {type(exc).__name__}: {exc}"
    return {"op": op, "seconds": dt, "error": error, "result": result}


def op_key(op):
    """Counter key of an op: its kind, prefixed for probes so that per-call
    costs can be taken from the job list alone."""
    return "probe:" + op.kind if op.probe else op.kind


def main_seconds(records):
    return sum(r["seconds"] for r in records if not r["op"].probe)


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def summary(samples):
    """n, median, and the highest whole percentile above the median that has
    at least 10 samples beyond it (when there are enough samples).  For a
    latency the samples are the median times of the ops of its kind."""
    n = len(samples)
    out = {"n": n, "p50": statistics.median(samples)}
    q = math.floor(100 * (n - 10) / n)
    if q > 50:
        out[f"p{q}"] = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return out


def op_times(passes):
    """Each op's median time over the passes, in job-list order.

    Every pass makes the same ops, so this is the time of one fixed piece
    of work; the median over passes spread through the run matches the
    median kernel time of ``host_speed``.
    """
    return [statistics.median(p[j]["seconds"] for p in passes) for j in range(len(passes[0]))]


def end_to_end(passes, setup_times, kernel_times):
    ops = [r["op"] for r in passes[0]]
    times = op_times(passes)
    records = [r for p in passes for r in p]
    speed = host_speed(kernel_times)

    def latency(kind, scale):
        return [b * scale for op, b in zip(ops, times) if op.kind == kind]

    def rate(kind):
        pairs = [(op.trials, b) for op, b in zip(ops, times) if op.kind == kind]
        return sum(t for t, _ in pairs) / max(sum(b for _, b in pairs), 1e-12)

    failed = sum(r["error"] is not None for r in records)
    samples = {
        "setup_s": setup_times,
        "hsvr_point_ms": latency("hsvr_point", 1e3),
        "ssvr_scan_ms": latency("ssvr_scan", 1e3),
        "figure_s": latency("figure", 1.0),
    }
    raw = {name: statistics.median(v) for name, v in samples.items()}
    raw["workload_s"] = sum(b for op, b in zip(ops, times) if not op.probe)
    values = {name: v * speed for name, v in raw.items()}
    for kind, name in (("sweep", "fit_trials_per_s"), ("feas", "feas_trials_per_s")):
        raw[name] = rate(kind)
        values[name] = raw[name] / speed
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ok_frac"] = 1.0 - failed / len(records)
    details = {name: summary(v) for name, v in samples.items()}
    details["workload_s"] = {"ops": sum(not op.probe for op in ops), "passes": len(passes)}
    for kind, name in (("sweep", "fit_trials_per_s"), ("feas", "feas_trials_per_s")):
        details[name] = {"n_trials": sum(op.trials for op in ops if op.kind == kind)}
    for name, v in raw.items():
        details[name]["raw"] = v
    details["fail_frac"] = {"value": failed / len(records), "failed": failed,
                            "attempted": len(records)}
    details["host_speed"] = {"value": speed,
                             "kernel_median_s": statistics.median(kernel_times),
                             "kernel_n": len(kernel_times)}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in E2E_UNITS.items()}
    return metrics, details


def per_layer(tracer, records, untraced_s):
    total = sum(r["seconds"] for r in records)
    traced_s = main_seconds(records)
    count = {}
    for r in records:
        count[r["op"].kind] = count.get(r["op"].kind, 0) + 1
    spans = tracer.spans

    def per(x, n):
        return x / n if n else 0.0

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    def solves(name, status=None):
        return [s for s in spans if s["name"] == name and s.get("end") is not None
                and (status is None or s.get("status") == status)]

    def ms(ss):
        return [1e3 * (s["end"] - s["start"]) for s in ss]

    e_calls = tracer.leaf_calls(EXPECT)
    hard = solves("solve_hard_svr", "converged")
    soft = solves("solve_soft_svr")
    infeas = solves("solve_hard_svr", "infeasible")
    all_solves = solves("solve_hard_svr") + soft
    datasets = len(solves("generate_dataset"))
    by_id = {s["id"]: s for s in spans}
    tunes = [s for s in spans if s["name"] in ("tune_hsvr", "tune_ssvr")]
    risk_in_tune = [s for s in spans if s["name"] in ("hsvr_risk", "ssvr_risk")
                    and s["parent"] is not None
                    and by_id[s["parent"]]["name"] in ("tune_hsvr", "tune_ssvr")]
    ssvr_diag = [r["result"].diagnostics for r in records
                 if r["op"].kind == "ssvr_point" and r["error"] is None]
    hsvr_diag = [r["result"].diagnostics for r in records
                 if r["op"].kind == "hsvr_point" and r["error"] is None]
    value_evals = [d.get("value_evals") for d in ssvr_diag if d.get("value_evals") is not None]
    d_res = [abs(d.get("d_residual")) for d in hsvr_diag if d.get("d_residual") is not None]
    iters = sum(s["iterations"] or 0 for s in all_solves)
    golden = tracer.leaf_calls({"golden_section_min"})
    bisect = tracer.leaf_calls({"bisect_root"})
    main_kinds = {op_key(r["op"]) for r in records if not r["op"].probe}

    def of_kind(fn, kind):
        return fn(kind) + fn("probe:" + kind)

    def calls_per(kind):
        return per(of_kind(lambda k: tracer.leaf_calls(EXPECT, k), kind), count.get(kind, 0))

    def self_ms_per(layer, kind):
        return 1e3 * per(of_kind(lambda k: tracer.layer_self(layer, k), kind),
                         count.get(kind, 0))

    def us_per_call(names):
        """Over the job list when it makes such calls, else over the probes."""
        kinds = [k for k in main_kinds if tracer.leaf_calls(names, k)] or [None]
        calls = sum(tracer.leaf_calls(names, k) for k in kinds)
        return 1e6 * per(sum(tracer.leaf_seconds(names, k) for k in kinds), calls)

    def share(layer):
        return per(tracer.layer_self(layer), total)

    values = {
        "expectations.calls": (e_calls, "count"),
        "expectations.calls_per_hsvr_point": (calls_per("hsvr_point"), "calls/op"),
        "expectations.calls_per_ssvr_point": (calls_per("ssvr_point"), "calls/op"),
        "expectations.calls_per_ssvr_scan": (calls_per("ssvr_scan"), "calls/op"),
        "expectations.us_per_call": (us_per_call(EXPECT), "us"),
        "expectations.hinge_sq.us_per_call": (us_per_call({"hinge_sq_mean", "e_hinge_sq"}), "us"),
        "expectations.hinge_abs.us_per_call": (us_per_call({"e_hinge_abs"}), "us"),
        "expectations.huber.us_per_call": (us_per_call({"soft_expectation"}), "us"),
        "expectations.share": (share("expectations"), "frac"),
        "noise.pdf_calls": (tracer.leaf_calls({"noise_pdf"}), "count"),
        "noise.pdf_us_per_call": (us_per_call({"noise_pdf"}), "us"),
        "noise.pdf_share": (per(tracer.leaf_seconds({"noise_pdf"}), total), "frac"),
        "noise.sample_ms_per_dataset":
            (1e3 * per(tracer.leaf_seconds({"sample_noise_rng"}), datasets), "ms"),
        "scalar_opt.golden_calls": (golden, "count"),
        "scalar_opt.bisect_calls": (bisect, "count"),
        "scalar_opt.evals_per_golden":
            (per(tracer.search_evals("golden_section_min"), golden), "evals/call"),
        "scalar_opt.evals_per_bisect":
            (per(tracer.search_evals("bisect_root"), bisect), "evals/call"),
        "asymptotics.self_ms_per_hsvr_point": (self_ms_per("asymptotics", "hsvr_point"), "ms"),
        "asymptotics.self_ms_per_ssvr_point": (self_ms_per("asymptotics", "ssvr_point"), "ms"),
        "asymptotics.share": (share("asymptotics"), "frac"),
        "asymptotics.delta_star_calls": (tracer.leaf_calls({"delta_star"}), "count"),
        "asymptotics.risk_calls_per_tune": (per(len(risk_in_tune), len(tunes)), "calls/op"),
        "asymptotics.value_evals_per_ssvr_point":
            (per(sum(value_evals), len(value_evals)), "evals/op"),
        "asymptotics.max_d_residual": (max(d_res, default=0.0), "abs"),
        "solvers.hard_ms": (med(ms(hard)), "ms"),
        "solvers.hard_iters": (med([s["iterations"] for s in hard]), "iters"),
        "solvers.soft_ms": (med(ms(soft)), "ms"),
        "solvers.soft_iters": (med([s["iterations"] for s in soft]), "iters"),
        "solvers.infeasible_ms": (med(ms(infeas)), "ms"),
        "solvers.infeasible_iters": (med([s["iterations"] for s in infeas]), "iters"),
        "solvers.us_per_iter":
            (1e6 * per(sum(e - s for e, s in ((x["end"], x["start"]) for x in all_solves)),
                       iters), "us"),
        "solvers.generate_ms": (med(ms(solves("generate_dataset"))), "ms"),
        "solvers.ridge_ms": (med(ms(solves("oracle_ridge"))), "ms"),
        "solvers.share": (share("solvers"), "frac"),
        "solvers.converged": (sum(s.get("status") == "converged" for s in all_solves), "count"),
        "solvers.infeasible": (len(infeas), "count"),
        "solvers.max_iters": (sum(s.get("status") == "max_iters" for s in all_solves), "count"),
        "solvers.max_kkt_residual":
            (max((float(s["kkt_residual"]) for s in all_solves
                  if s.get("status") == "converged"), default=0.0), "rel"),
        "montecarlo.trials": (datasets, "count"),
        "montecarlo.self_ms_per_trial": (1e3 * per(tracer.layer_self("montecarlo"), datasets), "ms"),
        "montecarlo.share": (share("montecarlo"), "frac"),
        "cli.self_ms": (1e3 * per(tracer.layer_self("cli"), count.get("figure", 0)), "ms"),
        "cli.share": (share("cli"), "frac"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "frac"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


# ---------------------------------------------------------------------------

def report(metrics, details, records, env):
    for name, m in metrics.items():
        extra = details.get(name, {})
        extra_txt = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in extra.items())
        print(f"{name:40s} {m['value']:14.6g} {m['unit']:10s} {extra_txt}")
    for name, unit in (("fail_frac", "frac"), ("host_speed", "x")):
        if name in details:
            d = dict(details[name])
            print(f"{name:40s} {d.pop('value'):14.6g} {unit:10s} "
                  + " ".join(f"{k}={v:.6g}" for k, v in d.items()))
    for r in records:
        if r["error"]:
            print(f"FAILED {r['error']}")
    print("env " + json.dumps(env, sort_keys=True))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "svrisk" / "__init__.py").is_file():
        print(f"error: no svrisk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, trace_extras
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    kernel_times = []
    setup_times = [] if args.trace else measure_setup(kernel_times)
    api = import_svrisk()
    warm_up(api)
    refs = json.loads((HERE / "refs.json").read_text())
    ops = WORKLOADS[args.workload](api, refs, args.seed)
    api.install_status_hook()
    env = environment(args)

    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        modules = {name: getattr(api, name) for name in
                   ("asymptotics", "expectations", "solvers", "montecarlo", "cli")}
        untraced, traced = [], []
        for op in ops + trace_extras(api, refs):
            # each job-list op runs untraced, then traced, back to back
            if not op.probe:
                untraced.append(run_op(op, 0))
            tracer.install(modules)
            try:
                traced.append(run_op(op, 1, tracer))
            finally:
                tracer.uninstall()
        records = untraced + traced
        metrics = per_layer(tracer, traced, main_seconds(untraced))
        details = {}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        dump = {"env": env, "metrics": metrics, "counters": tracer.counters(),
                "spans": tracer.spans,
                "ops": [{"kind": r["op"].kind, "label": r["op"].label,
                         "probe": r["op"].probe, "seconds": r["seconds"],
                         "error": r["error"]} for r in traced]}
        path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(dump, indent=1, default=str))
        print(f"trace written to {path.relative_to(ROOT)}")
    else:
        passes = []
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            records = []
            for op in ops:
                records.append(run_op(op, len(passes)))
                kernel_times.append(time_kernel())
            passes.append(records)
            now = time.perf_counter()
            if (now - t_start) + (now - t0) > args.seconds:
                break
        records = [r for p in passes for r in p]
        metrics, details = end_to_end(passes, setup_times, kernel_times)

    report(metrics, details, records, env)
    failed = sum(r["error"] is not None for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
