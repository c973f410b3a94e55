"""Per-layer tracing for the svrisk benchmark.

The tracer installs wrappers around the public functions that each svrisk
module calls in the next, in *every* module namespace that imports the name
(``cli`` and ``montecarlo`` import ``hsvr_risk`` by name, so wrapping only
``asymptotics.hsvr_risk`` would miss their calls).  Each wrapped call is a
frame on one stack; a frame's self time is its duration minus the time of
the frames it encloses, and is charged to the layer that owns the function.

Leaf calls (expectations, noise density, scalar searches, objective
evaluations) run 1e5-1e6 times per pass, so they are aggregated into
counters keyed by (name, op kind).  Points, solves, sweeps and tunes keep a
full span (name, parent, start, end, self time) in memory.  Nothing inside
svrisk is edited: every span is recorded from this file.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, name, layer, mode) -- mode "span" keeps a full span, "leaf"
# aggregates, "search" aggregates and also counts evaluations of the
# objective passed as the first argument.
WRAP_TABLE = [
    ("asymptotics", "hinge_sq_mean", "expectations", "leaf"),
    ("asymptotics", "e_hinge_sq", "expectations", "leaf"),
    ("asymptotics", "e_hinge_abs", "expectations", "leaf"),
    ("asymptotics", "soft_expectation", "expectations", "leaf"),
    ("asymptotics", "golden_section_min", "scalar_opt", "search"),
    ("asymptotics", "bisect_root", "scalar_opt", "search"),
    ("asymptotics", "delta_star", "asymptotics", "leaf"),
    ("asymptotics", "epsilon_star", "asymptotics", "leaf"),
    ("asymptotics", "hsvr_risk", "asymptotics", "span"),
    ("asymptotics", "ssvr_risk", "asymptotics", "span"),
    ("asymptotics", "tune_hsvr", "asymptotics", "span"),
    ("asymptotics", "tune_ssvr", "asymptotics", "span"),
    ("expectations", "noise_pdf", "noise", "leaf"),
    ("solvers", "sample_noise_rng", "noise", "leaf"),
    ("montecarlo", "hsvr_risk", "asymptotics", "span"),
    ("montecarlo", "ssvr_risk", "asymptotics", "span"),
    ("montecarlo", "solve_hard_svr", "solvers", "span"),
    ("montecarlo", "solve_soft_svr", "solvers", "span"),
    ("montecarlo", "generate_dataset", "solvers", "span"),
    ("montecarlo", "oracle_ridge", "solvers", "span"),
    ("montecarlo", "run_sweep", "montecarlo", "span"),
    ("montecarlo", "feasibility_curve", "montecarlo", "span"),
    ("cli", "delta_star", "asymptotics", "leaf"),
    ("cli", "hsvr_risk", "asymptotics", "span"),
    ("cli", "ssvr_risk", "asymptotics", "span"),
    ("cli", "tune_hsvr", "asymptotics", "span"),
    ("cli", "tune_ssvr", "asymptotics", "span"),
    ("cli", "run_sweep", "montecarlo", "span"),
    ("cli", "generate_dataset", "solvers", "span"),
    ("cli", "solve_hard_svr", "solvers", "span"),
    ("cli", "solve_soft_svr", "solvers", "span"),
    ("cli", "oracle_ridge", "solvers", "span"),
    ("cli", "main", "cli", "span"),
]


class Tracer:
    """Frame stack, leaf counters and spans for one traced pass."""

    def __init__(self):
        self._clock = time.perf_counter
        self._child = [0.0]        # enclosed time per open frame
        self._span_ids = [None]    # id of the innermost open span
        self.op_kind = "none"
        self.self_time = defaultdict(float)          # (layer, op kind) -> s
        self.leaf = defaultdict(lambda: [0, 0.0])    # (name, op kind) -> [calls, s]
        self.evals = defaultdict(int)                # (search name, op kind)
        self.spans = []
        self._installed = []

    # -- frames ------------------------------------------------------------

    def _frame(self, layer, fn, args, kwargs):
        child = self._child
        child.append(0.0)
        t0 = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = self._clock() - t0
            inner = child.pop()
            child[-1] += dt
            self.self_time[layer, self.op_kind] += dt - inner

    def _leaf(self, name, layer, fn):
        key_calls = self.leaf

        # _frame inlined: this wrapper runs up to ~1e6 times per pass
        def wrapper(*args, **kwargs):
            child = self._child
            child.append(0.0)
            t0 = self._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self._clock() - t0
                inner = child.pop()
                child[-1] += dt
                op = self.op_kind
                self.self_time[layer, op] += dt - inner
                entry = key_calls[name, op]
                entry[0] += 1
                entry[1] += dt

        return wrapper

    def _search(self, name, layer, fn, caller_layer):
        leaf = self._leaf(name, layer, fn)

        def wrapper(f, *args, **kwargs):
            evals = self.evals
            key = (name, self.op_kind)

            def objective(*a, **k):
                evals[key] += 1
                return self._frame(caller_layer, f, a, k)

            return leaf(objective, *args, **kwargs)

        return wrapper

    def _span(self, name, layer, fn):
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._span_ids[-1],
                    "name": name, "layer": layer, "op": self.op_kind}
            self.spans.append(span)
            self._span_ids.append(span["id"])
            child = self._child
            child.append(0.0)
            t0 = self._clock()
            try:
                result = fn(*args, **kwargs)
                span["status"] = getattr(result, "status", None)
                span["iterations"] = getattr(result, "iterations", None)
                span["kkt_residual"] = getattr(result, "kkt_residual", None)
                return result
            finally:
                t1 = self._clock()
                dt = t1 - t0
                inner = child.pop()
                child[-1] += dt
                self._span_ids.pop()
                self.self_time[layer, self.op_kind] += dt - inner
                span.update(start=t0, end=t1, self=dt - inner)

        return wrapper

    def op(self, kind, label, fn):
        """Run one benchmark op as a root span of layer ``bench``."""
        self.op_kind = kind
        try:
            return self._span(label, "bench", fn)()
        finally:
            self.op_kind = "none"

    # -- installation ------------------------------------------------------

    def install(self, modules):
        """Wrap every table entry present in ``modules`` (name -> module).

        Names a later version of svrisk drops are skipped, so their
        counters read zero instead of breaking the run.
        """
        wrapped = {}
        for mod_name, name, layer, mode in WRAP_TABLE:
            mod = modules[mod_name]
            orig = getattr(mod, name, None)
            if orig is None:
                continue
            key = (id(orig), mode)
            if key not in wrapped:
                if mode == "span":
                    wrapped[key] = self._span(name, layer, orig)
                elif mode == "search":
                    wrapped[key] = self._search(name, layer, orig, mod_name)
                else:
                    wrapped[key] = self._leaf(name, layer, orig)
            self._installed.append((mod, name, orig))
            setattr(mod, name, wrapped[key])

    def uninstall(self):
        for mod, name, orig in reversed(self._installed):
            setattr(mod, name, orig)
        self._installed.clear()

    # -- summaries ---------------------------------------------------------

    def leaf_calls(self, names, op=None):
        return sum(v[0] for (n, o), v in self.leaf.items()
                   if n in names and (op is None or o == op))

    def leaf_seconds(self, names, op=None):
        return sum(v[1] for (n, o), v in self.leaf.items()
                   if n in names and (op is None or o == op))

    def layer_self(self, layer, op=None):
        return sum(v for (lay, o), v in self.self_time.items()
                   if lay == layer and (op is None or o == op))

    def search_evals(self, name):
        return sum(v for (n, _), v in self.evals.items() if n == name)

    def counters(self):
        """JSON-ready dump of the aggregated counters."""
        return {
            "leaf": [{"name": n, "op": o, "calls": v[0], "seconds": v[1]}
                     for (n, o), v in sorted(self.leaf.items())],
            "evals": [{"name": n, "op": o, "evals": v}
                      for (n, o), v in sorted(self.evals.items())],
            "self_time": [{"layer": lay, "op": o, "seconds": v}
                          for (lay, o), v in sorted(self.self_time.items())],
        }
