"""Spans and work counts around the public functions of each thetalab layer.

The tracer wraps functions from outside the program: it replaces each
target in every loaded thetalab module that holds a reference to it (the
modules import each other's functions by name), and methods on their class.
A layer's self time is the time inside its spans minus the time inside
child spans of any layer.  Counts are taken at the same boundaries.

`algebra`, `jacobians` and `modular` get no spans: the benchmark plans do
not reach `jacobians` or `modular`, and `algebra` is under 1% of every
profile, so its time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import thetalab.cli
import thetalab.curves
import thetalab.homology
import thetalab.periods
import thetalab.quadrature
import thetalab.theta
import thetalab.thomae

# layers with spans and so a self time; `curves` is only counted
LAYERS = ("quadrature", "homology", "periods", "theta", "thomae", "cli")


def _nodes(args, kwargs) -> int:
    """Quadrature nodes of one leg_integrals call: order per distinct w power."""
    diffs = args[3] if len(args) > 3 else kwargs["diffs"]
    order = args[4] if len(args) > 4 else kwargs["order"]
    return int(order) * len({d.m for d in diffs})


# (owner, attribute, layer, span?, {count name: increment(args, kwargs, result)})
_ONE = lambda a, k, r: 1  # noqa: E731
TARGETS = [
    (thetalab.quadrature, "track_w", "quadrature", True,
     {"quadrature.track_w_calls": _ONE,
      "quadrature.track_w_points": lambda a, k, r: len(r)}),
    (thetalab.quadrature, "leg_integrals", "quadrature", True,
     {"quadrature.leg_calls": _ONE,
      "quadrature.quad_nodes": lambda a, k, r: _nodes(a, k)}),
    (thetalab.quadrature, "polyline_integrals", "quadrature", True, {}),
    (thetalab.quadrature, "infinity_leg_integrals", "quadrature", True,
     {"quadrature.quad_nodes": lambda a, k, r: int(a[4] if len(a) > 4 else k["order"])}),
    (thetalab.quadrature, "build_avoiding_path", "quadrature", True, {}),
    (thetalab.quadrature, "refine_path_for_quadrature", "quadrature", True, {}),
    # called once per quadrature node: counted only, a span would cost more
    # than the call
    (thetalab.curves.CurveSpec, "w_principal", "curves", False,
     {"curves.w_principal_calls": _ONE}),
    (thetalab.homology, "build_chain", "homology", True, {}),
    (thetalab.homology, "build_cycles", "homology", True, {}),
    (thetalab.homology, "build_cycle", "homology", True,
     {"homology.cycle_builds": _ONE}),
    (thetalab.homology, "intersection_matrix", "homology", True, {}),
    (thetalab.homology, "symplectic_transform", "homology", True, {}),
    (thetalab.periods, "build_periods", "periods", True,
     {"periods.build_calls": _ONE}),
    (thetalab.periods.PeriodData, "abel_jacobi_point", "periods", True,
     {"periods.aj_point_calls": _ONE}),
    (thetalab.periods.PeriodData, "abel_jacobi_divisor", "periods", True, {}),
    (thetalab.periods.PeriodData, "theta_scale", "periods", True,
     {"periods.theta_scale_calls": _ONE}),
    (thetalab.theta, "theta_eval", "theta", True, {"theta.eval_calls": _ONE}),
    (thetalab.theta, "theta_grad", "theta", True, {"theta.grad_calls": _ONE}),
    (thetalab.theta, "theta_norm_abs", "theta", True, {}),
    (thetalab.theta, "theta_halfint_table", "theta", True, {"theta.table_calls": _ONE}),
    (thetalab.theta, "truncation_radius", "theta", True, {}),
    (thetalab.theta.RiemannMatrix, "__init__", "theta", True,
     {"theta.matrix_builds": _ONE}),
    (thetalab.theta.RiemannMatrix, "lattice_points", "theta", True,
     {"theta.lattice_calls": _ONE,
      "theta.points_returned": lambda a, k, r: len(r)}),
    (thetalab.thomae, "enumerate_partitions_hyp", "thomae", True, {}),
    (thetalab.thomae, "enumerate_partitions_trig", "thomae", True, {}),
    (thetalab.thomae, "char_from_partition_hyp", "thomae", True, {}),
    (thetalab.thomae, "char_from_partition_trig", "thomae", True, {}),
    (thetalab.thomae, "verify_thomae_const_hyp", "thomae", True, {}),
    (thetalab.thomae, "verify_thomae_deriv_hyp", "thomae", True, {}),
    (thetalab.thomae, "verify_quotient_hyp", "thomae", True, {}),
    (thetalab.thomae, "verify_matrix_form_hyp", "thomae", True, {}),
    (thetalab.thomae, "alpha_ratio", "thomae", True, {}),
    (thetalab.thomae, "estimate_alpha", "thomae", True, {"thomae.alpha_estimates": _ONE}),
    (thetalab.thomae, "verify_thomae_deriv_trig_t1", "thomae", True, {}),
    (thetalab.thomae, "verify_thomae_deriv_trig_t2", "thomae", True, {}),
    (thetalab.thomae, "verify_quotient_trig", "thomae", True, {}),
    (thetalab.thomae, "derived_partitions_for_matrix", "thomae", True, {}),
    (thetalab.thomae, "verify_matrix_form_trig", "thomae", True, {}),
    (thetalab.thomae, "simple_zero_check", "thomae", True, {}),
    (thetalab.cli, "main", "cli", True, {}),
]

# inclusive span times reported under their own names
SPAN_TOTALS = {"build_periods": "periods.build_s",
               "abel_jacobi_point": "periods.aj_point_s",
               "theta_scale": "periods.theta_scale_s"}

# counted by the runner from the operation's output, not at a span: the
# report lines `thetalab verify` writes (a thomae function may call another,
# as verify_matrix_form_hyp does verify_thomae_deriv_hyp, so calls are not
# reports)
OUTPUT_COUNTS = ("thomae.reports",)

# every per-operation metric of a traced run; `periods.self_s` goes to the
# trace file only, the rest are the benchmark's per-layer metrics
METRICS = tuple(
    [f"{layer}.self_s" for layer in LAYERS]
    + sorted({name for t in TARGETS for name in t[4]} | set(OUTPUT_COUNTS))
    + sorted(SPAN_TOTALS.values()))
PER_LAYER = tuple(m for m in METRICS if m != "periods.self_s")


class Tracer:
    """Collects per-layer self time, selected span totals and work counts.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions."""

    def __init__(self):
        self._stack: list[list[float]] = []   # child time of each open span
        self._installed: list[tuple[object, str, object]] = []   # owner, name, original
        self.values: dict[str, float] = defaultdict(float)

    def reset(self):
        self.values.clear()

    def snapshot(self) -> dict[str, float]:
        """Every metric in METRICS, as collected since the last reset; the
        OUTPUT_COUNTS read 0 until the runner sets them."""
        return {name: float(self.values.get(name, 0.0)) for name in METRICS}

    def _wrap(self, fn, layer: str, span: bool, counts: dict, total: str | None):
        vals = self.values
        stack = self._stack
        self_key = f"{layer}.self_s"
        clock = time.perf_counter

        if not span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                for name, inc in counts.items():
                    vals[name] += inc(args, kwargs, out)
                return out
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                vals[self_key] += dt - frame[0]
                if total:
                    vals[total] += dt
                if stack:
                    stack[-1][0] += dt
            for name, inc in counts.items():
                vals[name] += inc(args, kwargs, out)
            return out
        return spanned

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if name == "thetalab" or name.startswith("thetalab.")]
        for owner, attr, layer, span, counts in TARGETS:
            original = owner.__dict__[attr]
            total = SPAN_TOTALS.get(attr)
            wrapper = self._wrap(original, layer, span, counts, total)
            if isinstance(owner, type):
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is original:
                        self._installed.append((mod, name, original))
                        setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()
        return False
