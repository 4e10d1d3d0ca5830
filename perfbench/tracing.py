"""Per-layer tracing from outside the program.

Each traced function is wrapped at every module binding that holds it, so a
call is seen whether it arrives as ``cylinder.sample_cyl_fbm`` or through a
``from .cylinder import sample_cyl_fbm`` in another module.  A wrapper
records a span: name, start, end, parent span and run id (one run id per
operation).  Spans stay in memory until :meth:`Tracer.dump`.

:func:`layer_metrics` turns the spans of one operation into calls, time and
self time (span time not covered by child spans) per layer, plus the counts
the hooks record; :func:`self_check` confirms that the spans nest and that
each binding is hit exactly where the workload says it is.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import statistics
import time

from workloads import VERIFY_TASKS

# span name -> (home module, attribute path in it)
TRACED = {
    "cli.load_config": ("cli", "load_config"),
    "cli.run": ("cli", "run"),
    "cli.write_csv": ("cli", "ResultTable.write_csv"),
    "fbm.kernel_matrix": ("fbm", "kernel_matrix"),
    "fraccalc.kh_inverse_matrix": ("fraccalc", "kh_inverse_matrix"),
    "cylinder.sample_cyl_fbm": ("cylinder", "sample_cyl_fbm"),
    "drift.evaluate": ("drift", "evaluate"),
    "drift.mollify": ("drift", "mollify"),
    "drift.lipschitz_estimate": ("drift", "lipschitz_estimate"),
    "girsanov.weak_solution_estimator": ("girsanov", "weak_solution_estimator"),
    "solver.picard_solve": ("solver", "picard_solve"),
    "solver.converge_experiment": ("solver", "converge_experiment"),
    "verify.run_all": ("verify", "run_all"),
    **{f"verify.{t}": ("verify", t) for t in VERIFY_TASKS},
}

# lru caches whose misses count as builds
CACHES = {
    "fbm.kernel_matrix": ("fbm", "_kernel_matrix_entries"),
    "fraccalc.weighted_integral_matrix": ("fraccalc", "weighted_integral_matrix"),
}

ROOT = "op"

# per-layer metrics: name -> unit, better
PER_LAYER = {
    "fbm.kernel_matrix.calls": ("count", "lower"),
    "fbm.kernel_matrix.builds": ("count", "lower"),
    "fbm.kernel_matrix.s": ("s", "lower"),
    "fraccalc.kh_inverse_matrix.calls": ("count", "lower"),
    "fraccalc.kh_inverse_matrix.s": ("s", "lower"),
    "fraccalc.weighted_integral_matrix.builds": ("count", "lower"),
    "cylinder.sample_cyl_fbm.calls": ("count", "lower"),
    "cylinder.sample_cyl_fbm.s": ("s", "lower"),
    "cylinder.sample_cyl_fbm.self_s": ("s", "lower"),
    "cylinder.sample_cyl_fbm.paths": ("count", "lower"),
    "cylinder.sample_cyl_fbm.bytes_computed": ("bytes", "lower"),
    "drift.evaluate.calls": ("count", "lower"),
    "drift.evaluate.s": ("s", "lower"),
    "drift.evaluate.useful_ratio": ("ratio", "higher"),
    "drift.mollified.calls": ("count", "lower"),
    "drift.mollified.s": ("s", "lower"),
    "drift.mollified.states": ("count", "lower"),
    "drift.lipschitz_estimate.s": ("s", "lower"),
    "girsanov.weak_solution_estimator.calls": ("count", "lower"),
    "girsanov.weak_solution_estimator.s": ("s", "lower"),
    "girsanov.weak_solution_estimator.self_s": ("s", "lower"),
    "girsanov.ess_fraction": ("ratio", "higher"),
    "girsanov.mean_weight": ("ratio", "higher"),
    "solver.picard_solve.calls": ("count", "lower"),
    "solver.picard_solve.s": ("s", "lower"),
    "solver.picard_solve.self_s": ("s", "lower"),
    "solver.picard_iters": ("count", "lower"),
    "solver.final_residual_max": ("norm", "lower"),
    "solver.converge_experiment.s": ("s", "lower"),
    "verify.run_all.s": ("s", "lower"),
    **{f"verify.{t}.s": ("s", "lower") for t in VERIFY_TASKS},
    "cli.run.s": ("s", "lower"),
    "cli.load_config.s": ("s", "lower"),
    "cli.write_csv.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "time_to_se_s": ("s", "lower"),
}

# read from the cold operation, where the caches fill; the rest are medians
# over the traced warm operations
COLD_METRICS = ("fbm.kernel_matrix.calls", "fbm.kernel_matrix.builds", "fbm.kernel_matrix.s",
                "fraccalc.kh_inverse_matrix.calls", "fraccalc.kh_inverse_matrix.s",
                "fraccalc.weighted_integral_matrix.builds")


def _resolve(owner, path):
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    """Installs span-recording wrappers on every binding of the traced
    functions and keeps the spans of the operations run while installed."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in package.__all__}
        self.spans = []
        self.errors = []
        self.run_id = None
        self.bindings = set()
        self._stack = []
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _open(self, name, via):
        span = {"name": name, "via": via, "start": time.perf_counter_ns(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "run": self.run_id}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter_ns()
        self._stack.pop()

    def root(self, run_id, fn):
        """Run ``fn()`` as one operation under a root span."""
        self.run_id = run_id
        span = self._open(ROOT, ROOT)
        try:
            return fn()
        finally:
            self._close(span)

    def wrap(self, name, via, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, via)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                replaced = hook(self, span, fn, args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result
        return traced

    # -- patching -----------------------------------------------------------

    def install(self):
        """Patch every binding of every traced function; a traced function
        missing from its home module is recorded as an error."""
        self.errors = []
        for name, (home, path) in TRACED.items():
            try:
                original = _resolve(self.modules[home], path)
            except (KeyError, AttributeError):
                self.errors.append(f"traced function {home}.{path} not found")
                continue
            owner_path, _, attr = path.rpartition(".")
            if owner_path:  # a method: its class attribute is the one binding
                bindings = [(_resolve(self.modules[home], owner_path), attr,
                             f"{home}.{path}")]
            else:
                bindings = [(mod, key, f"{mname}.{key}")
                            for mname, mod in self.modules.items()
                            for key, val in vars(mod).items() if val is original]
            for owner, key, via in bindings:
                setattr(owner, key, self.wrap(name, via, original, HOOKS.get(name)))
                self._patches.append((owner, key, original))
                self.bindings.add(via)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def cache_misses(self) -> dict:
        return {name: _resolve(self.modules[home], attr).cache_info().misses
                for name, (home, attr) in CACHES.items()}

    def dump(self, path):
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                rec = {"id": i, **span}
                fh.write(json.dumps(rec, default=str) + "\n")


# -- hooks: counts recorded at the layer boundary -----------------------------


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _sample_hook(tracer, span, fn, args, kwargs, ens):
    nbytes = ens.values.nbytes + sum(inc.values.nbytes for inc in ens.increments or ())
    span["paths"] = ens.n_paths
    span["bytes"] = nbytes


def _evaluate_hook(tracer, span, fn, args, kwargs, out):
    span["values"] = out.size


def _estimator_hook(tracer, span, fn, args, kwargs, res):
    a = _bind(fn, args, kwargs)
    # the drift values the estimator needs: one set per distinct sample
    seed = a["seed"]
    seed = (getattr(seed, "entropy", seed), getattr(seed, "spawn_key", ()))
    span["need_key"] = repr((a["d"], a["grid"].n_nodes, a["n_paths"], a["t"], seed))
    span["need"] = a["d"] * a["grid"].n_nodes * a["n_paths"]
    span["ess"] = res.ess_fraction
    span["mean_weight"] = res.mean_weight


def _mollified_hook(tracer, span, fn, args, kwargs, out):
    span["states"] = out.shape[1]


def _mollify_hook(tracer, span, fn, args, kwargs, md):
    wrapped = tracer.wrap("drift.mollified", "drift.mollified", md.evaluator, _mollified_hook)
    return dataclasses.replace(md, evaluator=wrapped)


def _picard_hook(tracer, span, fn, args, kwargs, sol):
    span["iters"] = sol.iterations_used
    span["residual"] = sol.final_residual


HOOKS = {
    "cylinder.sample_cyl_fbm": _sample_hook,
    "drift.evaluate": _evaluate_hook,
    "girsanov.weak_solution_estimator": _estimator_hook,
    "drift.mollify": _mollify_hook,
    "solver.picard_solve": _picard_hook,
}


# -- per-operation metrics ----------------------------------------------------


def _union_ns(intervals, lo, hi) -> int:
    covered, cur_lo, cur_hi = 0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def self_times(spans) -> dict:
    """Span index -> self time in ns: duration minus the part of it that
    child spans cover."""
    children = {}
    for i, s in spans.items():
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)
    return {i: (s["end"] - s["start"])
            - _union_ns([(spans[c]["start"], spans[c]["end"]) for c in children.get(i, ())],
                        s["start"], s["end"])
            for i, s in spans.items()}


def op_spans(tracer, run_id) -> dict:
    return {i: s for i, s in enumerate(tracer.spans) if s["run"] == run_id}


def layer_metrics(spans, builds) -> dict:
    """Per-layer metrics of one operation from its spans and cache builds."""
    selfs = self_times(spans)
    by_name = {}
    for i, s in spans.items():
        by_name.setdefault(s["name"], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, key=None):
        idx = by_name.get(name, ())
        if key is None:
            return sum(spans[i]["end"] - spans[i]["start"] for i in idx) / 1e9
        return sum(spans[i][key] for i in idx)

    def self_s(name):
        return sum(selfs[i] for i in by_name.get(name, ())) / 1e9

    est = [spans[i] for i in by_name.get("girsanov.weak_solution_estimator", ())]
    need = sum({s["need_key"]: s["need"] for s in est}.values())
    computed = total("drift.evaluate", "values")
    picard = [spans[i] for i in by_name.get("solver.picard_solve", ())]
    m = {
        "fbm.kernel_matrix.calls": calls("fbm.kernel_matrix"),
        "fbm.kernel_matrix.builds": builds["fbm.kernel_matrix"],
        "fbm.kernel_matrix.s": total("fbm.kernel_matrix"),
        "fraccalc.kh_inverse_matrix.calls": calls("fraccalc.kh_inverse_matrix"),
        "fraccalc.kh_inverse_matrix.s": total("fraccalc.kh_inverse_matrix"),
        "fraccalc.weighted_integral_matrix.builds": builds["fraccalc.weighted_integral_matrix"],
        "cylinder.sample_cyl_fbm.calls": calls("cylinder.sample_cyl_fbm"),
        "cylinder.sample_cyl_fbm.s": total("cylinder.sample_cyl_fbm"),
        "cylinder.sample_cyl_fbm.self_s": self_s("cylinder.sample_cyl_fbm"),
        "cylinder.sample_cyl_fbm.paths": total("cylinder.sample_cyl_fbm", "paths"),
        "cylinder.sample_cyl_fbm.bytes_computed": total("cylinder.sample_cyl_fbm", "bytes"),
        "drift.evaluate.calls": calls("drift.evaluate"),
        "drift.evaluate.s": total("drift.evaluate"),
        "drift.evaluate.useful_ratio": need / computed if computed else 0.0,
        "drift.mollified.calls": calls("drift.mollified"),
        "drift.mollified.s": total("drift.mollified"),
        "drift.mollified.states": total("drift.mollified", "states"),
        "drift.lipschitz_estimate.s": total("drift.lipschitz_estimate"),
        "girsanov.weak_solution_estimator.calls": len(est),
        "girsanov.weak_solution_estimator.s": total("girsanov.weak_solution_estimator"),
        "girsanov.weak_solution_estimator.self_s": self_s("girsanov.weak_solution_estimator"),
        "girsanov.ess_fraction": min((s["ess"] for s in est), default=0.0),
        "girsanov.mean_weight": statistics.fmean(s["mean_weight"] for s in est) if est else 0.0,
        "solver.picard_solve.calls": len(picard),
        "solver.picard_solve.s": total("solver.picard_solve"),
        "solver.picard_solve.self_s": self_s("solver.picard_solve"),
        "solver.picard_iters": sum(s["iters"] for s in picard),
        "solver.final_residual_max": max((s["residual"] for s in picard), default=0.0),
        "solver.converge_experiment.s": total("solver.converge_experiment"),
        "verify.run_all.s": total("verify.run_all"),
        **{f"verify.{t}.s": total(f"verify.{t}") for t in VERIFY_TASKS},
        "cli.run.s": total("cli.run"),
        "cli.load_config.s": total("cli.load_config"),
        "cli.write_csv.s": total("cli.write_csv"),
    }
    return m


def binding_hits(spans) -> dict:
    hits = {}
    for s in spans.values():
        hits[s["via"]] = hits.get(s["via"], 0) + 1
    return hits


def self_check(tracer, spans, builds, expect, cold) -> list:
    """Problems with one traced operation: spans that do not nest, bindings
    hit that the workload should not reach or missed that it should, and
    cache builds where none belong."""
    problems = list(tracer.errors)
    roots = [i for i, s in spans.items() if s["parent"] is None]
    if len(roots) != 1 or spans[roots[0]]["name"] != ROOT:
        return problems + [f"expected one {ROOT!r} root span, found {len(roots)}"]
    root = spans[roots[0]]
    selfs = self_times(spans)
    if sum(selfs.values()) != root["end"] - root["start"]:
        problems.append(f"self times sum to {sum(selfs.values())} ns, "
                        f"root span is {root['end'] - root['start']} ns")
    hits = binding_hits(spans)
    for via in sorted(expect["hit"]):
        if not hits.get(via):
            problems.append(f"binding {via} not hit")
    others = (tracer.bindings | {"drift.mollified"}) - expect["hit"]
    for via in sorted(others):
        if hits.get(via):
            problems.append(f"binding {via} hit {hits[via]} times, expected 0")
    if cold and expect["builds"] and not all(builds.values()):
        problems.append(f"cold operation built no cache entry: {builds}")
    if not expect["builds"] and any(builds.values()):
        problems.append(f"cache builds where none belong: {builds}")
    return problems
