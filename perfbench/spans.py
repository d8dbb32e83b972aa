"""Spans around the calls into each qqsystems layer, wrapped from outside.

A name is wrapped where it is looked up: ``cli`` calls ``lift_newton``
through its own ``from .lifting import`` copy, so the copy in ``cli`` is the
one replaced.  Wrappers are installed around one operation and restored
afterwards.  Spans stay in memory; the benchmark writes them out when the run
ends.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Dict, List

# (module the name is looked up in, attribute, span name)
CALL_SITES = [
    ("qqsystems.cli", "main", "cli.main"),
    ("qqsystems.cli", "enumerate_infinite_solutions",
     "infinite.enumerate_infinite_solutions"),
    ("qqsystems.cli", "lift_newton", "lifting.lift_newton"),
    ("qqsystems.cli", "lift_ramified", "lifting.lift_ramified"),
    ("qqsystems.cli", "bethe_report", "bethe.bethe_report"),
    ("qqsystems.cli", "prevariety", "tropical.prevariety"),
    ("qqsystems.lifting", "evaluate_residual", "systems.evaluate_residual"),
    ("qqsystems.lifting", "certify_residual_point",
     "lifting.certify_residual_point"),
    ("qqsystems.lifting", "solve_unique", "linalg.solve_unique"),
    ("qqsystems.lifting", "jacobian_at_zero", "systems.jacobian_at_zero"),
    ("qqsystems.bethe", "nondegeneracy_check", "bethe.nondegeneracy_check"),
    ("qqsystems.bethe", "gaudin_residual", "bethe.gaudin_residual"),
    ("qqsystems.bethe", "xxz_residual", "bethe.xxz_residual"),
    ("qqsystems.tropical", "feasible", "lp.feasible"),
    # reached by lp.feasible and by tropical.lp_solve_obj's call-time import
    ("qqsystems.lp", "lp_solve", "lp.lp_solve"),
    # imported at call time by tropical.prevariety and exclusion_witness
    ("qqsystems.systems", "symbolic_support", "systems.symbolic_support"),
    ("sympy", "solve", "sympy.solve"),
]


def _lp_rows(fn):
    sig = inspect.signature(fn)

    def info(args, kwargs, result, error):
        bound = sig.bind(*args, **kwargs).arguments
        return {"rows": len(bound.get("a_ub", ())) +
                len(bound.get("a_eq", ()))}
    return info


def _feasible_info(args, kwargs, result, error):
    return {"infeasible": int(error is None and result is None)}


def _prevariety_info(args, kwargs, result, error):
    return {"cells": result.cell_count if error is None else 0}


def _lift_ramified_info(args, kwargs, result, error):
    return {"failed": int(error is not None),
            "kept": len(result) if error is None else 0}


_INFO = {
    "lp.lp_solve": _lp_rows,
    "lp.feasible": lambda fn: _feasible_info,
    "tropical.prevariety": lambda fn: _prevariety_info,
    "lifting.lift_ramified": lambda fn: _lift_ramified_info,
}


class Tracer:
    """Records spans [name, start, end, parent index, op id, info]."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op = None

    def _wrap(self, name, fn):
        make_info = _INFO.get(name)
        info = make_info(fn) if make_info else None

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self._op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result, error = None, None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if info is not None:
                    span[5] = info(args, kwargs, result, error)
        return wrapper

    @contextmanager
    def installed(self, op_id):
        """Wrap every call site for one operation, then restore them."""
        self._op = op_id
        saved = []
        try:
            for module, attr, name in CALL_SITES:
                try:
                    mod = importlib.import_module(module)
                except ImportError:  # sympy gone from the runtime
                    continue
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original))
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)
            self._op = None

    def take(self) -> List[list]:
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass

# span name -> fields reported for it
LAYER_FIELDS = {
    "lp.lp_solve": ("calls", "busy_s", "rows"),
    "lp.feasible": ("calls", "infeasible"),
    "tropical.prevariety": ("calls", "busy_s", "self_s", "cells"),
    "systems.symbolic_support": ("calls", "busy_s"),
    "systems.evaluate_residual": ("calls", "busy_s"),
    "linalg.solve_unique": ("calls", "busy_s"),
    "lifting.lift_newton": ("calls", "busy_s", "self_s"),
    "lifting.certify_residual_point": ("calls", "busy_s"),
    "systems.jacobian_at_zero": ("busy_s",),
    "bethe.bethe_report": ("busy_s",),
    "bethe.nondegeneracy_check": ("busy_s",),
    "bethe.gaudin_residual": ("busy_s",),
    "bethe.xxz_residual": ("busy_s",),
    "lifting.lift_ramified": ("calls", "busy_s", "self_s", "failed"),
    "sympy.solve": ("calls", "busy_s"),
    "infinite.enumerate_infinite_solutions": ("busy_s",),
    "cli.main": ("self_s",),
    # passed: numeric_check's own verdict; abstained: lifts the benchmark's
    # oracle could not judge (see check._judge)
    "numeric.numeric_check": ("calls", "busy_s", "passed", "abstained"),
}
RATIOS = ("tropical.prune_ratio", "lifting.ramified.kept_ratio")
EXTRA = ("trace.overhead_s",)


def per_layer_names() -> List[str]:
    names = [f"{site}.{f}" for site, fields in LAYER_FIELDS.items()
             for f in fields]
    return names + list(RATIOS) + list(EXTRA)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_metrics(op_spans: List[List[list]]) -> Dict[str, float]:
    """Aggregate the spans of each operation (a list per op) by layer.

    busy_s sums the spans not nested in a span of the same name; self_s
    sums each span's duration minus its direct wrapped children's.
    """
    fields = ("calls", "busy_s", "self_s", "rows", "infeasible", "cells",
              "failed", "kept", "passed", "abstained")
    totals = {site: dict.fromkeys(fields, 0) for site in LAYER_FIELDS}
    certify_in_ramified = 0
    for op in op_spans:
        child_time = [0.0] * len(op)
        for name, start, end, parent, _op, _info in op:
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, _op, info) in enumerate(op):
            t = totals[name]
            duration = end - start
            t["calls"] += 1
            t["self_s"] += duration - child_time[idx]
            ancestors = []
            p = parent
            while p is not None:
                ancestors.append(op[p][0])
                p = op[p][3]
            if name not in ancestors:
                t["busy_s"] += duration
            if name == "lifting.certify_residual_point" and \
                    "lifting.lift_ramified" in ancestors:
                certify_in_ramified += 1
            for key, value in (info or {}).items():
                t[key] += value
    out: Dict[str, float] = {}
    for site, fields in LAYER_FIELDS.items():
        for f in fields:
            out[f"{site}.{f}"] = totals[site][f]
    feas = totals["lp.feasible"]
    out["tropical.prune_ratio"] = (feas["infeasible"] / feas["calls"]
                                   if feas["calls"] else 0.0)
    kept = totals["lifting.lift_ramified"]["kept"]
    out["lifting.ramified.kept_ratio"] = (kept / certify_in_ramified
                                          if certify_in_ramified else 0.0)
    return out


def numeric_span(start: float, end: float, passed: bool,
                 abstained: bool) -> list:
    """A span for a numeric oracle call made by the benchmark itself."""
    return ["numeric.numeric_check", start, end, None, None,
            {"passed": int(passed), "abstained": int(abstained)}]
