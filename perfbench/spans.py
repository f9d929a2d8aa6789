"""Tracing from the benchmark's own code: spans around streamfem's layers.

``Tracer.install()`` wraps the public entry points of each layer module.
It replaces every binding of the original function in every loaded
``streamfem`` module, so the names ``streamfem.cli`` (and the package
``__init__``) imported are traced too.  ``Factorized`` is traced through
its class methods, which covers every module that imported the class.

A span is (name, start, end, parent index); spans stay in memory until
``write()``.  ``layer_metrics()`` derives the per-layer numbers: time in
the outermost spans of a name, self time (duration minus direct child
spans) and the counts recorded at the same boundaries.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute, span name); several entry points may share a span
TRACED_FUNCTIONS = (
    ("mesh", "build_structured_mesh", "mesh.build"),
    ("fem", "build_space", "fem.space"),
    ("fem", "load_provider", "fem.load"),
    ("fem", "assemble_load_scalar", "fem.load"),
    ("fem", "assemble_load_dual", "fem.load"),
    ("fem", "assemble_load_gradient", "fem.load"),
    ("fem", "space_time_h1_error", "fem.error"),
    ("fem", "h1_field_error", "fem.error"),
    ("cip", "assemble_cip", "cip.assemble"),
    ("cip", "ritz_projection", "cip.ritz"),
    ("dg_time", "dg_solve", "dg_time.solve"),
    ("dg_time", "bh_analytic", "dg_time.bh_analytic"),
    ("dg_time", "best_approx_terms", "dg_time.best_approx"),
    ("dg_time", "stability_functional", "dg_time.stability"),
    ("dg_time", "stability_data_norm", "dg_time.stability"),
)

# per-layer metric name -> unit, in the order they are reported
LAYER_UNITS = {
    "mesh.build_s": "s", "fem.space_s": "s",
    "cip.assemble_s": "s", "cip.ritz_s": "s",
    "linalg.factor_s": "s", "linalg.factor_calls": "count",
    "linalg.lu_fill_nnz": "count",
    "linalg.solve_s": "s", "linalg.solve_calls": "count",
    "linalg.lu_solves": "count", "linalg.lu_solves_per_solve": "ratio",
    "linalg.max_residual": "ratio", "linalg.solver_errors": "count",
    "fem.load_s": "s", "fem.load_calls": "count",
    "fem.error_s": "s", "fem.error_calls": "count",
    "fem.error_evals": "count",
    "dg_time.solve_s": "s", "dg_time.solve_self_s": "s",
    "dg_time.bh_analytic_s": "s", "dg_time.best_approx_s": "s",
    "dg_time.stability_s": "s",
    "mesh.triangles": "count", "fem.free_dofs": "count", "cip.nnz": "count",
    "dg_time.intervals": "count",
}


class _CountingLU:
    """Stands in for a SuperLU factor and counts its triangular solves."""

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, *args, **kwargs):
        self._counts["linalg.lu_solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans and counts while installed; not thread-safe."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self.counts = Counter()
        self.max_residual = 0.0
        self._stack = []
        self._restore = []

    # -- spans -------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, fn, name, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return traced

    # -- counts recorded at the layer boundaries -----------------------

    def _count_mesh(self, args, kwargs, result):
        self.counts["mesh.triangles"] += result.num_triangles

    def _count_space(self, args, kwargs, result):
        self.counts["fem.free_dofs"] += result.free_dofs.size

    def _count_form(self, args, kwargs, result):
        self.counts["cip.nnz"] += result.matrix_free.nnz

    def _count_dg(self, args, kwargs, result):
        self.counts["dg_time.intervals"] += result.partition.num_intervals

    def _error_evals(self, fn):
        signature = inspect.signature(fn)

        def count(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            params = bound.arguments
            if "time_points" in params:   # space_time_h1_error
                space = params["sol"].space
                points = (params["sol"].partition.num_intervals
                          * params["time_points"])
            elif "space" in params:       # h1_field_error
                space = params["space"]
                points = 1
            else:                         # a signature this does not know
                return
            rule = params.get("rule") or space.default_data_rule()
            self.counts["fem.error_evals"] += (
                points * space.mesh.num_triangles * len(rule.weights))
        return count

    # -- install / uninstall -------------------------------------------

    def _rebind(self, original, replacement):
        """Replace every binding of ``original`` in the streamfem modules."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "streamfem"
                                      or mod_name.startswith("streamfem.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._restore.append((module, key, original))

    def install(self):
        from streamfem import linalg

        on_result = {"mesh.build": self._count_mesh,
                     "fem.space": self._count_space,
                     "cip.assemble": self._count_form,
                     "dg_time.solve": self._count_dg}
        for mod_name, attr, span in TRACED_FUNCTIONS:
            module = sys.modules[f"streamfem.{mod_name}"]
            fn = getattr(module, attr, None)
            if fn is None:   # an entry point a later version removed
                continue
            if attr == "load_provider":
                traced = self._wrap_provider(fn, span)
            elif span == "fem.error":
                traced = self._wrap(fn, span, self._error_evals(fn))
            else:
                traced = self._wrap(fn, span, on_result.get(span))
            self._rebind(fn, traced)
        self._install_factorized(linalg)
        return self

    def _wrap_provider(self, fn, name):
        """Trace the provider and the callable it returns, which is where
        dg_solve spends its load time."""
        traced = self._wrap(fn, name)

        @functools.wraps(fn)
        def provider(*args, **kwargs):
            return self._wrap(traced(*args, **kwargs), name)
        return provider

    def _install_factorized(self, linalg):
        import scipy.sparse.linalg as spla

        cls = linalg.Factorized
        init = vars(cls)["__init__"]
        call = vars(cls)["__call__"]
        tracer = self

        def traced_init(obj, *args, **kwargs):
            tracer._open("linalg.factor")
            try:
                init(obj, *args, **kwargs)
            except linalg.SolverError:
                tracer.counts["linalg.solver_errors"] += 1
                raise
            finally:
                tracer._close()
            for key, value in list(vars(obj).items()):
                if isinstance(value, spla.SuperLU):
                    tracer.counts["linalg.lu_fill_nnz"] += (value.L.nnz
                                                            + value.U.nnz)
                    setattr(obj, key, _CountingLU(value, tracer.counts))

        def traced_call(obj, b):
            tracer._open("linalg.solve")
            try:
                x = call(obj, b)
            except linalg.SolverError as exc:
                tracer.counts["linalg.solver_errors"] += 1
                if exc.residual is not None:
                    tracer.max_residual = max(tracer.max_residual,
                                              exc.residual)
                raise
            finally:
                tracer._close()
            # the residual check costs a product; keep it out of the parent's
            # self time by giving it a span of its own
            tracer._open("trace.residual")
            try:
                norm_b = np.linalg.norm(b)
                if norm_b > 0.0:
                    tracer.max_residual = max(
                        tracer.max_residual,
                        float(np.linalg.norm(obj.a @ x - b) / norm_b))
            finally:
                tracer._close()
            return x

        cls.__init__ = traced_init
        cls.__call__ = traced_call
        self._restore.append((cls, "__init__", init))
        self._restore.append((cls, "__call__", call))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- results ---------------------------------------------------------

    def _derive(self):
        """Per name: outermost time, outermost calls and self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, calls, self_time = Counter(), Counter(), Counter()
        for index, (name, start, end, parent) in enumerate(self.spans):
            self_time[name] += end - start - child[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                total[name] += end - start
                calls[name] += 1
        return total, calls, self_time

    def layer_metrics(self):
        """Every metric in LAYER_UNITS as {name: value}."""
        total, calls, self_time = self._derive()
        counts = self.counts
        solves = calls["linalg.solve"]
        values = {
            "mesh.build_s": total["mesh.build"],
            "fem.space_s": total["fem.space"],
            "cip.assemble_s": total["cip.assemble"],
            "cip.ritz_s": total["cip.ritz"],
            "linalg.factor_s": total["linalg.factor"],
            "linalg.factor_calls": calls["linalg.factor"],
            "linalg.lu_fill_nnz": counts["linalg.lu_fill_nnz"],
            "linalg.solve_s": total["linalg.solve"],
            "linalg.solve_calls": solves,
            "linalg.lu_solves": counts["linalg.lu_solves"],
            "linalg.lu_solves_per_solve":
                counts["linalg.lu_solves"] / solves if solves else 0.0,
            "linalg.max_residual": self.max_residual,
            "linalg.solver_errors": counts["linalg.solver_errors"],
            "fem.load_s": total["fem.load"],
            "fem.load_calls": calls["fem.load"],
            "fem.error_s": total["fem.error"],
            "fem.error_calls": calls["fem.error"],
            "fem.error_evals": counts["fem.error_evals"],
            "dg_time.solve_s": total["dg_time.solve"],
            "dg_time.solve_self_s": self_time["dg_time.solve"],
            "dg_time.bh_analytic_s": total["dg_time.bh_analytic"],
            "dg_time.best_approx_s": total["dg_time.best_approx"],
            "dg_time.stability_s": total["dg_time.stability"],
            "mesh.triangles": counts["mesh.triangles"],
            "fem.free_dofs": counts["fem.free_dofs"],
            "cip.nnz": counts["cip.nnz"],
            "dg_time.intervals": counts["dg_time.intervals"],
        }
        return {name: values[name] for name in LAYER_UNITS}

    def write(self, path):
        """Write the spans as JSON: name, start, end (s), parent index."""
        Path(path).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"],
             "spans": self.spans}))
