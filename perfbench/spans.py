"""Span tracing of sddelab's layers from outside the program.

The modules bind each other's functions with ``from .x import y``, so a
function is wrapped in the namespace that calls it, not where it is defined.
Each call of a wrapped function records one span: (id, parent id, operation
id, name, start, end, counts).  The parent comes from a thread-local stack,
because ``simulate_batch`` runs in the harness's pool threads; a span opened
in a pool thread therefore has no parent.  All spans of one benchmark
operation (one experiment or one catalog item) share the operation id.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
import warnings
from collections import defaultdict

import numpy as np


def _arg(sig, args, kwargs, name):
    return sig.bind(*args, **kwargs).arguments[name]


def _count_points(sig, args, kwargs, out):
    return {"points": int(np.size(_arg(sig, args, kwargs, "lams")))}


def _count_roots(sig, args, kwargs, out):
    return {"roots": len(out)}


def _count_fundamental(sig, args, kwargs, out):
    return {"steps": int(_arg(sig, args, kwargs, "grid").n_steps)}


def _count_replicate_steps(sig, args, kwargs, out):
    grid = _arg(sig, args, kwargs, "grid")
    return {"replicate_steps": len(list(_arg(sig, args, kwargs, "seeds"))) * int(grid.n_steps)}


def _count_rng(sig, args, kwargs, out):
    return {"draws": int(_arg(sig, args, kwargs, "n_steps"))}


def _count_rows(sig, args, kwargs, out):
    return {"rows": int(out[0].size), "nan_theta_hat": int(np.count_nonzero(np.isnan(out[2])))}


def _count_draws(sig, args, kwargs, out):
    return {"draws": int(len(out[0]))}


_SAMPLERS = ("sample_lan_many", "sample_laq_many", "sample_lamn_many", "sample_plamn_many")

# (module, attribute, span name, counter).  The span name is layer.function.
# The benchmark's catalog workload calls classify and the samplers through
# their defining modules, the experiment path through harness and cli.
WRAPPED = (
    ("spectrum", "exp_moments_01_many", "measures.exp_moments_01_many", _count_points),
    ("spectrum", "exp_moment", "measures.exp_moment", None),
    ("spectrum", "roots_in_strip", "spectrum.roots_in_strip", _count_roots),
    ("spectrum", "build_root_data", "spectrum.build_root_data", None),
    ("spectrum", "classify", "spectrum.classify", None),
    ("harness", "classify", "spectrum.classify", None),
    ("harness", "fisher_limit", "kernels.fisher_limit", None),
    ("kernels", "solve_fundamental", "kernels.solve_fundamental", _count_fundamental),
    ("kernels", "y_kernel", "kernels.y_kernel", None),
    ("harness", "simulate_batch", "simulate.simulate_batch", _count_replicate_steps),
    ("simulate", "brownian_increments", "simulate.brownian_increments", _count_rng),
    ("harness", "batch_statistics", "inference.batch_statistics", _count_rows),
    *((mod, fn, f"limit_laws.{fn}", _count_draws) for mod in ("harness", "limit_laws") for fn in _SAMPLERS),
    ("harness", "ks_two_sample", "harness.ks_two_sample", None),
    ("harness", "ks_vs_standard_normal", "harness.ks_vs_standard_normal", None),
    ("cli", "run_experiment", "harness.run_experiment", None),
    ("cli", "write_result_json", "harness.write_result_json", None),
    ("cli", "write_samples_csv", "harness.write_samples_csv", None),
)

# per-layer metric name -> unit, in report order
PER_LAYER_UNITS = {
    "measures.contour_points": "count",
    "measures.contour_s": "s",
    "measures.contour_points_per_s": "1/s",
    "measures.scalar_moments": "count",
    "measures.scalar_moment_s": "s",
    "spectrum.classify_calls": "count",
    "spectrum.classify_s": "s",
    "spectrum.strip_searches": "count",
    "spectrum.strip_search_self_s": "s",
    "spectrum.roots_found": "count",
    "spectrum.root_data_built": "count",
    "spectrum.overflow_warnings": "count",
    "kernels.fisher_calls": "count",
    "kernels.fisher_s": "s",
    "kernels.fundamental_steps": "count",
    "kernels.fundamental_s": "s",
    "kernels.y_kernel_s": "s",
    "simulate.replicate_steps": "count",
    "simulate.busy_s": "s",
    "simulate.wait_s": "s",
    "simulate.replicate_steps_per_s": "1/s",
    "simulate.rng_draws": "count",
    "simulate.rng_s": "s",
    "inference.rows": "count",
    "inference.batch_statistics_s": "s",
    "inference.nan_theta_hat": "count",
    "limit_laws.draws": "count",
    "limit_laws.lan_s": "s",
    "limit_laws.laq_s": "s",
    "limit_laws.lamn_s": "s",
    "limit_laws.plamn_s": "s",
    "harness.run_experiment_s": "s",
    "harness.ks_calls": "count",
    "harness.ks_s": "s",
    "harness.write_s": "s",
    "harness.result_bytes": "bytes",
    "harness.dropped_replicates": "count",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Installs span wrappers on sddelab's module namespaces and collects
    spans and overflow warnings until uninstalled."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self.warnings: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []
        self._catch = None

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn) if counter else None
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            counts = counter(sig, args, kwargs, out) if counter else None
            spans.append((sid, parent, self.op, name, t0, t1, counts))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod_name, attr, span, counter in WRAPPED:
            mod = importlib.import_module(f"sddelab.{mod_name}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(span, fn, counter))
        self._catch = warnings.catch_warnings(record=True)
        self.warnings = self._catch.__enter__()
        warnings.simplefilter("always", RuntimeWarning)

    def uninstall(self) -> None:
        self._catch.__exit__(None, None, None)
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def overflow_warnings(self) -> int:
        return sum(
            1 for w in self.warnings if issubclass(w.category, RuntimeWarning) and "overflow" in str(w.message)
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "op", "name", "start", "end", "counts"],
                    "spans": self.spans,
                },
                fh,
            )


def union_s(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, overflow_warnings: int, observed: dict) -> dict:
    """Per-layer metrics (all of PER_LAYER_UNITS except trace.overhead_frac)
    from one traced pass.  `observed` holds the counts the workload read from
    the program's output files (result bytes, dropped replicates)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for sp in spans:
        by_name[sp[3]].append(sp)
        children[sp[1]].append(sp)

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def busy(*names):
        return union_s((sp[4], sp[5]) for n in names for sp in by_name[n])

    def summed(*names):
        return sum(sp[5] - sp[4] for n in names for sp in by_name[n])

    def count(name, key):
        return sum(sp[6][key] for sp in by_name[name])

    def descendants(sp, prefix):
        out, todo = [], list(children[sp[0]])
        while todo:
            ch = todo.pop()
            if ch[3].startswith(prefix):
                out.append((ch[4], ch[5]))
            todo.extend(children[ch[0]])
        return out

    strip = by_name["spectrum.roots_in_strip"]
    strip_measures = [iv for sp in strip for iv in descendants(sp, "measures.")]
    points = count("measures.exp_moments_01_many", "points")
    contour_s = busy("measures.exp_moments_01_many")
    steps = count("simulate.simulate_batch", "replicate_steps")
    sim_busy = busy("simulate.simulate_batch")
    m = {
        "measures.contour_points": points,
        "measures.contour_s": contour_s,
        "measures.contour_points_per_s": points / contour_s if contour_s > 0 else 0.0,
        "measures.scalar_moments": calls("measures.exp_moment"),
        "measures.scalar_moment_s": busy("measures.exp_moment"),
        "spectrum.classify_calls": calls("spectrum.classify"),
        "spectrum.classify_s": busy("spectrum.classify"),
        "spectrum.strip_searches": len(strip),
        "spectrum.strip_search_self_s": busy("spectrum.roots_in_strip") - union_s(strip_measures),
        "spectrum.roots_found": count("spectrum.roots_in_strip", "roots"),
        "spectrum.root_data_built": calls("spectrum.build_root_data"),
        "spectrum.overflow_warnings": overflow_warnings,
        "kernels.fisher_calls": calls("kernels.fisher_limit"),
        "kernels.fisher_s": busy("kernels.fisher_limit"),
        "kernels.fundamental_steps": count("kernels.solve_fundamental", "steps"),
        "kernels.fundamental_s": busy("kernels.solve_fundamental"),
        "kernels.y_kernel_s": busy("kernels.y_kernel"),
        "simulate.replicate_steps": steps,
        "simulate.busy_s": sim_busy,
        "simulate.wait_s": summed("simulate.simulate_batch") - sim_busy,
        "simulate.replicate_steps_per_s": steps / sim_busy if sim_busy > 0 else 0.0,
        "simulate.rng_draws": count("simulate.brownian_increments", "draws"),
        "simulate.rng_s": busy("simulate.brownian_increments"),
        "inference.rows": count("inference.batch_statistics", "rows"),
        "inference.batch_statistics_s": busy("inference.batch_statistics"),
        "inference.nan_theta_hat": count("inference.batch_statistics", "nan_theta_hat"),
        "limit_laws.draws": sum(count(f"limit_laws.{fn}", "draws") for fn in _SAMPLERS),
        "limit_laws.lan_s": busy("limit_laws.sample_lan_many"),
        "limit_laws.laq_s": busy("limit_laws.sample_laq_many"),
        "limit_laws.lamn_s": busy("limit_laws.sample_lamn_many"),
        "limit_laws.plamn_s": busy("limit_laws.sample_plamn_many"),
        "harness.run_experiment_s": busy("harness.run_experiment"),
        "harness.ks_calls": calls("harness.ks_two_sample", "harness.ks_vs_standard_normal"),
        "harness.ks_s": busy("harness.ks_two_sample", "harness.ks_vs_standard_normal"),
        "harness.write_s": busy("harness.write_result_json", "harness.write_samples_csv"),
        "harness.result_bytes": observed.get("result_bytes", 0),
        "harness.dropped_replicates": observed.get("dropped_replicates", 0),
    }
    return m


# layer -> the per-layer time metrics that make up its time, for naming the
# dominant layer of a workload
LAYER_TIME = {
    "measures": ("measures.contour_s", "measures.scalar_moment_s"),
    "spectrum": ("spectrum.strip_search_self_s",),
    "kernels": ("kernels.fisher_s",),
    "simulate": ("simulate.busy_s",),
    "inference": ("inference.batch_statistics_s",),
    "limit_laws": ("limit_laws.lan_s", "limit_laws.laq_s", "limit_laws.lamn_s", "limit_laws.plamn_s"),
    "harness": ("harness.ks_s", "harness.write_s"),
}


def dominant_layer(metrics: dict) -> str:
    return max(LAYER_TIME, key=lambda layer: sum(metrics[k] for k in LAYER_TIME[layer]))
