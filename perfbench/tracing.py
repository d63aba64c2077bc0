"""Spans around the public functions of each m3sph module.

The library has no spans of its own yet, so the benchmark wraps the
functions it wants to see, at every name that binds them: ``from
._kernels import f_table`` copies the function into ``transform``,
``spherical`` and ``radial``, and wrapping ``_kernels.f_table`` alone
would miss those calls.  One wrapper per original function is installed
at every binding in every ``m3sph`` module, so a call is counted once
whichever name it goes through.

Spans are kept in memory.  A layer's self time is its span's duration
minus the part covered by its wrapped children; the time the wrappers
spend on their own bookkeeping (timestamps, counters, the warning hook)
is kept apart, so that the root span's self time plus every layer's self
time plus the bookkeeping adds up to the traced op time exactly.

This module imports nothing from m3sph at import time, so the parent
process can read the layer table without loading numpy.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import warnings


def _size_of_file(index):
    def count(args, result):
        return {"bytes": os.path.getsize(args[index])}

    return count


def _forward_counts(args, result):
    return {"s_nodes": int(result.s_grid.size)}


def _inverse_counts(args, result):
    import numpy as np

    xs = np.atleast_2d(np.asarray(args[1], dtype=np.float64))
    radii = np.round(np.linalg.norm(xs, axis=1), 12)
    return {"points": xs.shape[0], "distinct_radii": int(np.unique(radii).size)}


def _f_table_counts(args, result):
    return {"evals": int(result.size)}


def _q_series_counts(args, result):
    return {"points": int(result.shape[0])}


def _fourier_grid_sum_counts(args, result):
    values, pts, ys = args[:3]
    n_nodes, n_freq = len(pts), len(ys)
    # the numpy kernel materialises an (n_freq, n_nodes) complex phase
    # matrix and reads the value and node arrays once
    computed = 16 * n_nodes * n_freq + values.nbytes + pts.nbytes
    return {"terms": n_nodes * n_freq, "bytes": int(computed)}


def _plane_wave_sum_counts(args, result):
    return {"terms": len(args[0]) * int(result.shape[0])}


def _suite_counts(args, result):
    return {"cases": int(result["cases"])}


# (layer name, module, attribute path, counter); the layer name is the
# metric prefix.  Module and attribute give the definition; every other
# binding of the same object is found by identity.
LAYERS = [
    ("fieldio.read_field", "fieldio", "read_field", _size_of_file(0)),
    ("fieldio.write_field", "fieldio", "write_field", _size_of_file(1)),
    ("fieldio.synthesize", "fieldio", "synthesize", None),
    ("transform.MatrixField.equivariance_diagnostic", "transform",
     "MatrixField.equivariance_diagnostic", None),
    ("transform.forward", "transform", "forward", _forward_counts),
    ("transform.apply_multiplier", "transform", "apply_multiplier", None),
    ("transform.inverse", "transform", "inverse", _inverse_counts),
    ("_kernels.f_table", "_kernels", "f_table", _f_table_counts),
    ("_kernels.q_series", "_kernels", "q_series", _q_series_counts),
    ("_kernels.fourier_grid_sum", "_kernels", "fourier_grid_sum", _fourier_grid_sum_counts),
    ("_kernels.plane_wave_sum", "_kernels", "plane_wave_sum", _plane_wave_sum_counts),
    ("spherical.phi_method1", "spherical", "phi_method1", None),
    ("spherical.phi_method2_batch", "spherical", "phi_method2_batch", None),
    ("spherical.phi_method3", "spherical", "phi_method3", None),
    ("spherical.eval_phi_batch", "spherical", "eval_phi_batch", None),
    ("spherical.projections", "spherical", "projections", None),
    ("polyalg.build_Q", "polyalg", "build_Q", None),
    ("polyalg.equivariance_defect", "polyalg", "equivariance_defect", None),
    ("polyalg.apply_dtau_op", "polyalg", "apply_dtau_op", None),
    ("polyalg.laplacian", "polyalg", "laplacian", None),
    ("polyalg.expand_in_q1_powers", "polyalg", "expand_in_q1_powers", None),
    ("checks.suite_so3rep", "checks", "suite_so3rep", _suite_counts),
    ("checks.suite_polyalg", "checks", "suite_polyalg", _suite_counts),
    ("checks.suite_radial", "checks", "suite_radial", _suite_counts),
    ("checks.suite_spherical", "checks", "suite_spherical", _suite_counts),
    ("checks.suite_transform", "checks", "suite_transform", _suite_counts),
    ("cli.main", "cli", "main", None),
]

ROOT = "bench"  # the op itself: the benchmark's code outside every layer

# per-layer metrics beyond each layer's self_s / calls / errors / warnings
EXTRA_METRICS = [
    ("fieldio.read_field.bytes", "B"),
    ("fieldio.write_field.bytes", "B"),
    ("transform.forward.s_nodes", "count"),
    ("transform.inverse.points", "count"),
    ("transform.inverse.distinct_radius_frac", "fraction"),
    ("_kernels.f_table.evals", "count"),
    ("_kernels.q_series.points", "count"),
    ("_kernels.fourier_grid_sum.terms", "count"),
    ("_kernels.fourier_grid_sum.bytes", "B"),
    ("_kernels.plane_wave_sum.terms", "count"),
    ("checks.cases", "count"),
    ("cli.import_s", "s"),
    ("bench.self_s", "s"),
    ("trace.bookkeeping_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_frac", "fraction"),
]


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name, *_ in LAYERS:
        out += [
            (f"{name}.self_s", "s", "lower"),
            (f"{name}.calls", "count", "lower"),
            (f"{name}.errors", "count", "lower"),
            (f"{name}.warnings", "count", "lower"),
        ]
    work = ("transform.inverse.points", "checks.cases")
    out += [(name, unit, "higher" if name in work else "lower") for name, unit in EXTRA_METRICS]
    return out


class Tracer:
    """Installs the wrappers and accumulates spans for traced ops."""

    def __init__(self):
        self.spans = []  # (op number, name, parent index, start, end)
        self.stats = {}  # name -> {"self_s", "calls", "errors", "warnings", counters...}
        self.bookkeeping_s = 0.0
        self.ops = 0
        self.op_total_s = 0.0
        self._stack = []  # [span index, name, child time]
        self._installed = []  # (owner, attribute, original)
        self._warn = None

    # -- installation -------------------------------------------------------
    def install(self):
        import importlib

        owners = {module: importlib.import_module(f"m3sph.{module}") for _, module, _, _ in LAYERS}
        modules = [mod for key, mod in sys.modules.items() if key == "m3sph" or key.startswith("m3sph.")]
        for name, module, path, counter in LAYERS:
            owner = owners[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            if cls_path:
                self._swap(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, original, wrapper)
        self._warn = warnings.warn
        warnings.warn = self._count_warning

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        if self._warn is not None:
            warnings.warn = self._warn
            self._warn = None

    def _swap(self, owner, attr, original, wrapper):
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- spans --------------------------------------------------------------
    def _stat(self, name):
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = {"self_s": 0.0, "calls": 0, "errors": 0, "warnings": 0}
        return entry

    def _count_warning(self, *args, **kwargs):
        if self._stack:
            self._stat(self._stack[-1][1])["warnings"] += 1
        kwargs["stacklevel"] = kwargs.get("stacklevel", 1) + 1
        return self._warn(*args, **kwargs)

    def _open(self, name, start):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((self.ops, name, parent, start, start))
        self._stack.append([len(self.spans) - 1, name, 0.0])

    def _close(self, end, failed):
        index, name, child_s = self._stack.pop()
        op, _, parent, start, _ = self.spans[index]
        self.spans[index] = (op, name, parent, start, end)
        entry = self._stat(name)
        entry["self_s"] += (end - start) - child_s
        entry["calls"] += 1
        entry["errors"] += int(failed)
        return entry

    def _wrap(self, name, fn, counter):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            start = clock()
            self._open(name, start)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                entry = self._close(end, failed)
                if counter is not None and not failed:
                    for key, value in counter(args, result).items():
                        entry[key] = entry.get(key, 0) + value
                left = clock()
                if self._stack:
                    # the caller's child time is the whole wrapper interval;
                    # the part outside this span is bookkeeping
                    self._stack[-1][2] += left - entered
                self.bookkeeping_s += (left - entered) - (end - start)

        return wrapper

    def run_op(self, fn):
        """Run one op under the root span; returns (result, wall seconds)."""
        self.ops += 1
        start = time.perf_counter()
        self._open(ROOT, start)
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            self._close(end, False)
            self.op_total_s += end - start
        return result, end - start

    # -- report -------------------------------------------------------------
    def metrics(self, import_s, overhead_frac):
        """Per-layer metrics; counts and times are means per traced op."""
        ops = max(1, self.ops)
        values = {}
        for name in [layer for layer, *_ in LAYERS] + [ROOT]:
            for key, total in self.stats.get(name, {}).items():
                values[f"{name}.{key}"] = total / ops
        inv = self.stats.get("transform.inverse", {})
        if inv.get("points"):
            values["transform.inverse.distinct_radius_frac"] = inv["distinct_radii"] / inv["points"]
        values["checks.cases"] = sum(values.get(f"{name}.cases", 0.0) for name, *_ in LAYERS)
        values["cli.import_s"] = import_s
        values["trace.bookkeeping_s"] = self.bookkeeping_s / ops
        values["trace.op_s"] = self.op_total_s / ops
        values["trace.overhead_frac"] = overhead_frac
        return {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in per_layer_metrics()
        }
