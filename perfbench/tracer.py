"""Span tracer wrapped around ringspace's public entry points from outside.

``Tracer.install()`` replaces each listed function in every ``ringspace.*``
module namespace that holds a reference to it (modules bind names through
``from .x import f``), the two ``__call__`` methods on their classes, and the
numpy/scipy linear-algebra entry points on their modules.  The numpy/scipy
wrappers record a span only when the immediate caller is a ringspace module.
Spans (name, start, end, parent span, job id) stay in memory until the run
ends; ``uninstall()`` restores every original.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

import numpy as np

ENTRIES = {
    "spaces": ["gram_matrix", "quadrature_for", "norm"],
    "kernels": ["build_kernel", "count_zeros", "locate_zeros"],
    "geometry": ["boundary_nodes"],
    "harmonic": ["green", "solve_dirichlet", "measure_density", "schottky"],
    "inner": ["blaschke_factor", "blaschke_product", "singular_inner",
              "division_bound_check", "verify_inner", "schottky_fit"],
    "extremal": ["candidate_divisor", "quasicontract_estimate", "solve_extremal",
                 "extremal_maximizer", "extremal_identity_check", "repro_fact_check"],
    "probes": ["biharmonic_green", "bergman_decomposition_residual"],
    "cli": ["run"],
}
METHODS = {"kernels": "KernelEvaluator", "laurent": "LaurentPolynomial"}
FOREIGN = {
    "linalg.cond": [("numpy.linalg", "cond")],
    "linalg.inv": [("numpy.linalg", "inv"), ("scipy.linalg", "inv")],
    "linalg.solve": [("numpy.linalg", "solve"), ("scipy.linalg", "solve")],
    "linalg.eigh": [("numpy.linalg", "eigh"), ("scipy.linalg", "eigh")],
    "sparse.spsolve": [("scipy.sparse.linalg", "spsolve")],
}
# Entries whose raised exceptions are reported as ``<entry>.errors``.
WITH_ERRORS = ("kernels.count_zeros", "kernels.locate_zeros",
               "extremal.candidate_divisor", "extremal.quasicontract_estimate")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _biharmonic_unknowns(args, kwargs, result):
    rows, cols = result.grid.values.shape
    disk = _arg(args, kwargs, 0, "domain") is None
    return (rows - (1 if disk else 2)) * cols


# Computed work counts, derived from call arguments and result shapes.
COUNTERS = {
    "spaces.quadrature_for": lambda a, k, res: len(res[0]),     # quadrature nodes
    "spaces.gram_matrix": lambda a, k, res: res.shape[0],       # window 2N+1
    "kernels.KernelEvaluator.__call__":
        lambda a, k, res: int(np.size(a[1])) * (2 * a[0].N + 1),
    "laurent.LaurentPolynomial.__call__":
        lambda a, k, res: int(np.size(a[1])) * (a[0].hi - a[0].lo + 1),
    "geometry.boundary_nodes": lambda a, k, res: len(res),
    "probes.biharmonic_green": _biharmonic_unknowns,
}

# Per-layer stats reported for each traced name.
REPORTED = {
    "spaces.gram_matrix": ("calls", "self_s", "entries", "bytes"),
    "kernels.KernelEvaluator.__call__": ("calls", "self_s", "points"),
    "laurent.LaurentPolynomial.__call__": ("calls", "self_s", "points"),
    "geometry.boundary_nodes": ("calls", "self_s", "nodes"),
    "probes.biharmonic_green": ("calls", "self_s", "unknowns"),
    "cli.run": ("self_s",),
}


def traced_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in ENTRIES.items() for fn in fns]
    names += [f"{mod}.{cls}.__call__" for mod, cls in METHODS.items()]
    return names + list(FOREIGN)


def layer_metric_names() -> list[str]:
    out = []
    for name in traced_names():
        stats = REPORTED.get(name, ("calls", "self_s"))
        if name in WITH_ERRORS:
            stats = stats + ("errors",)
        out += [f"{name}.{stat}" for stat in stats]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, job, error, count]
        self.stack: list[int] = []
        self.job = None
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, ringspace_callers_only=False):
        spans, stack, counter = self.spans, self.stack, COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if ringspace_callers_only and not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith("ringspace"):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, False, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result
        return wrapper

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {n: m for n, m in list(sys.modules.items())
                   if n == "ringspace" or n.startswith("ringspace.")}
        for mod, fns in ENTRIES.items():
            home = modules[f"ringspace.{mod}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, attr, wrapper)
        for mod, cls_name in METHODS.items():
            cls = getattr(modules[f"ringspace.{mod}"], cls_name)
            self._replace(cls, "__call__",
                          self._wrap(f"{mod}.{cls_name}.__call__", cls.__call__))
        for name, places in FOREIGN.items():
            for module_name, attr in places:
                owner = sys.modules[module_name]
                self._replace(owner, attr, self._wrap(name, getattr(owner, attr), True))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time, errors and computed counts per traced name."""
        n = len(self.spans)
        child_time = [0.0] * n
        child_nodes = [0] * n
        for name, start, end, parent, _, _, count in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "spaces.quadrature_for":
                    child_nodes[parent] += count
        stats = {name: {"calls": 0, "self_s": 0.0, "errors": 0, "count": 0, "entries": 0}
                 for name in traced_names()}
        for i, (name, start, end, _, _, error, count) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += (end - start) - child_time[i]
            s["errors"] += int(error)
            s["count"] += count
            if name == "spaces.gram_matrix":
                s["entries"] += child_nodes[i] * count
        out = {}
        for metric in layer_metric_names():
            name, stat = metric.rsplit(".", 1)
            s = stats[name]
            if stat in ("points", "nodes", "unknowns"):
                value = s["count"]
            elif stat == "bytes":
                value = 16 * s["entries"]   # complex128 Vandermonde entries
            else:
                value = s[stat]
            out[metric] = value
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job, error, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, "error": error}) + "\n")
