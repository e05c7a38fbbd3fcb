"""Batch front-end: periods, theta evaluation and verification plans.

Subcommands:

  thetalab periods <curve.json>        period data as JSON
  thetalab theta <input.json>          theta value + gradient, both bounded by tol
  thetalab verify <plan.json>          run a verification plan; JSONL reports

A verify task's tol is its own, else --tol (default 1e-6).  A task handler
(Plan) turns its task's parameters into partitions for a thomae verifier.

Complex numbers are [re, im] pairs everywhere.  Exit codes: 0 success / all
verifications passed, 1 verification failure, 2 parse failure (also a curve
spec with a bad degree or branch-point count, or a non-finite theta input),
unknown task id, a task for the other cover degree, an unknown task or plan
key or a bad task or plan parameter or --tol, 3 invariant failure (branch
points not distinct, non-positive-definite Im tau), theta failure
(truncation or point cap, or a lattice shift of 2**53 or more), sheet
tracking failure (a path step or quadrature leg onto or through a branch
point) or no non-special divisor found by sampling.
Runs are deterministic for a fixed plan and seed; wall-clock timings appear
only in the human summary, never in the JSONL stream.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .curves import BranchPointsNotDistinct, CurveSpec, CurveSpecError
from .periods import (K_VANISHING_CUT, QUAD_DRIFT_TARGET, QUAD_ORDER, PeriodData,
                      PeriodError, build_periods)
from .homology import HomologyError
from .quadrature import QuadratureError
from .theta import (_SYMMETRY_TOL, THETA_TOL, Characteristic, RiemannMatrix, ThetaError,
                    theta_grad)
from . import thomae
from .algebra import INF, c2j


def _mat2j(m) -> list:
    return [[c2j(x) for x in row] for row in np.asarray(m)]


def _j2c(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read JSON from {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


# ----------------------------------------------------------------------------
# periods


def cmd_periods(args) -> int:
    obj = _load_json(args.curve)
    try:
        curve = CurveSpec.from_json(obj)
    except CurveSpecError as exc:
        print(f"error: invalid curve spec: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BranchPointsNotDistinct) else 2
    try:
        pd = build_periods(curve)
    except (PeriodError, HomologyError, QuadratureError, ThetaError) as exc:
        print(f"error: period construction failed: {exc}", file=sys.stderr)
        return 3
    out = {
        "curve": curve.to_json(),
        "genus": curve.genus,
        "C": _mat2j(pd.C),
        "B_raw": _mat2j(pd.Braw),
        "tau": _mat2j(pd.tau.matrix),
        "aj_branch": {str(k): [c2j(x) for x in v] for k, v in sorted(pd.aj_branch.items())},
        "K": [c2j(x) for x in pd.K],
        "K_characteristic": {"eps": [str(x) for x in pd.K_char.eps],
                             "delta": [str(x) for x in pd.K_char.delta]},
        "quad_order": QUAD_ORDER,
        "invariants": {key: pd.diagnostics.get(key) for key in (
            "tau_asymmetry", "im_tau_min_eig", "quad_drift", "order_n_lattice_dist",
            "a1_direct_check")},
    }
    text = json.dumps(out, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# ----------------------------------------------------------------------------
# theta


def cmd_theta(args) -> int:
    obj = _load_json(args.input)
    try:
        tau_m = np.array([[_j2c(x) for x in row] for row in obj["tau"]], dtype=complex)
        if tau_m.ndim != 2 or tau_m.shape[0] != tau_m.shape[1]:
            raise ValueError(f"tau has shape {tau_m.shape}, not g x g")
        g = len(tau_m)
        eps = obj.get("eps", [0] * g)
        delta = obj.get("delta", [0] * g)
        zeta = [_j2c(x) for x in obj.get("zeta", [[0.0, 0.0]] * g)]
        char = Characteristic.of(eps, delta)
        for name, v in (("eps", char.eps), ("delta", char.delta), ("zeta", zeta)):
            if len(v) != g:
                raise ValueError(f"{name} has {len(v)} entries for a {g} x {g} tau")
        if not (np.isfinite(tau_m).all() and np.isfinite(zeta).all()):
            raise ValueError("tau and zeta entries must be finite")
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        print(f"error: malformed theta input: {exc}", file=sys.stderr)
        return 2
    tol = obj.get("tol", args.tol)
    if not _finite_positive(tol):
        print(f"error: tol must be a finite positive number, got {tol!r}", file=sys.stderr)
        return 2
    try:
        tau = RiemannMatrix(tau_m)
    except ValueError as exc:
        print(f"error: invalid Riemann matrix: {exc}", file=sys.stderr)
        return 3
    try:
        grad = theta_grad(char, np.array(zeta), tau, tol)
    except (ThetaError, ValueError) as exc:
        print(f"error: theta evaluation failed: {exc}", file=sys.stderr)
        return 3
    out = {
        "value": c2j(grad.value),
        "truncation_bound": grad.value_bound,
        "gradient": [c2j(x) for x in grad.values],
        "gradient_bound": grad.truncation_bound,
        "radius": grad.radius,
    }
    print(json.dumps(out, indent=2))
    return 0


# ----------------------------------------------------------------------------
# verify


class Plan:
    """The curve and period data of one plan, shared by its tasks.

    Each task handler takes (task entry, tol, seed), turns the task's
    parameters into partitions and gives its reports in order; the thomae
    verifiers read the theta constants from the plan's table."""

    def __init__(self, curve: CurveSpec, pd: PeriodData):
        self.curve = curve
        self.pd = pd

    def period_sanity(self, task, tol, seed):
        d = self.pd.diagnostics
        tau_scale = 1.0 + float(np.max(np.abs(self.pd.tau.matrix)))
        checks = {
            "tau_asymmetry": (d["tau_asymmetry"], _SYMMETRY_TOL),
            "quad_drift": (d["quad_drift"], QUAD_DRIFT_TARGET),
            "order_n_lattice_dist": (d["order_n_lattice_dist"], 1e-8 * tau_scale),
            "K_vanishing_residual": (d["K_vanishing_residual"], K_VANISHING_CUT),
        }
        passed = all(v <= t for v, t in checks.values()) and d["im_tau_min_eig"] > 0
        yield thomae.VerificationReport(
            identity="period_sanity", partition="", passed=passed,
            tolerances={k: t for k, (v, t) in checks.items()},
            details={k: v for k, (v, t) in checks.items()}
            | {"im_tau_min_eig": d["im_tau_min_eig"]})

    def thomae_const_hyp(self, task, tol, seed):
        parts = thomae.enumerate_partitions_hyp(self.curve.genus, 0)
        return thomae.verify_thomae_const_hyp(self.curve, self.pd, parts, tol)

    def thomae_deriv_hyp(self, task, tol, seed):
        include_inf = bool(task.get("include_infinity", False))
        parts = [p for p in thomae.enumerate_partitions_hyp(self.curve.genus, 1)
                 if include_inf or INF not in p.I]
        return thomae.verify_thomae_deriv_hyp(self.curve, self.pd, parts, tol)

    def quotient(self, task, tol, seed):
        verify = (thomae.verify_quotient_hyp if self.curve.n == 2
                  else thomae.verify_quotient_trig)
        ks = task.get("ks", list(range(1, self.curve.num_branch + 1)))
        for i, k in enumerate(ks):
            yield verify(self.curve, self.pd, int(k), seed=seed + 977 * i,
                         samples=int(task.get("samples", 3)), tol=tol)

    def matrix_form_hyp(self, task, tol, seed):
        parts = thomae.enumerate_partitions_hyp(self.curve.genus, 0)[:int(task.get("count", 1))]
        return thomae.verify_matrix_form_hyp(self.curve, self.pd, parts, tol)

    def alpha_trig(self, task, tol, seed):
        est = thomae.estimate_alpha([(self.curve, self.pd)], tol=tol)
        yield thomae.VerificationReport(
            identity="alpha_trig", partition="all-constant-kind",
            spread=est.spread, passed=all(t.ok for t in est.phases),
            tolerances={"tol": tol, "theta_tol": THETA_TOL},
            details={"alpha_modulus": est.modulus,
                     "alpha_closed_form": thomae.trig_alpha(self.curve.genus),
                     "phase_indices": [t.index for t in est.phases],
                     "worst_phase_residual": max(t.phase_residual for t in est.phases)})

    def deriv_trig_t1(self, task, tol, seed):
        parts = thomae.enumerate_partitions_trig(self.curve.q, "deriv1")
        return thomae.verify_thomae_deriv_trig_t1(self.curve, self.pd, parts, tol)

    def deriv_trig_t2(self, task, tol, seed):
        parts = [p for loc in task.get("infinity_in", [1, 0])
                 for p in thomae.enumerate_partitions_trig(self.curve.q, "deriv2",
                                                           infinity_in=loc)]
        return thomae.verify_thomae_deriv_trig_t2(self.curve, self.pd, parts, tol)

    def matrix_form_trig(self, task, tol, seed):
        q = self.curve.q
        parts = thomae.enumerate_partitions_trig(q, "constant")[:int(task.get("count", 1))]
        return thomae.verify_matrix_form_trig(self.curve, self.pd, parts, tol)

    def simple_zeros_trig(self, task, tol, seed):
        q = self.curve.q
        parts = (thomae.enumerate_partitions_trig(q, "deriv1")
                 + thomae.enumerate_partitions_trig(q, "deriv2", infinity_in=1)
                 + thomae.enumerate_partitions_trig(q, "constant"))
        return thomae.simple_zero_check(self.pd, parts)


# task id -> (cover degree it applies to, None for either; Plan handler;
# the task's keys besides TASK_KEYS)
TASKS = {
    "period_sanity": (None, Plan.period_sanity, ()),
    "thomae_const_hyp": (2, Plan.thomae_const_hyp, ()),
    "thomae_deriv_hyp": (2, Plan.thomae_deriv_hyp, ("include_infinity",)),
    "quotient_hyp": (2, Plan.quotient, ("ks", "samples")),
    "matrix_form_hyp": (2, Plan.matrix_form_hyp, ("count",)),
    "alpha_trig": (3, Plan.alpha_trig, ()),
    "deriv_trig_t1": (3, Plan.deriv_trig_t1, ()),
    "deriv_trig_t2": (3, Plan.deriv_trig_t2, ("infinity_in",)),
    "quotient_trig": (3, Plan.quotient, ("ks", "samples")),
    "matrix_form_trig": (3, Plan.matrix_form_trig, ("count",)),
    "simple_zeros_trig": (3, Plan.simple_zeros_trig, ()),
}
TASK_KEYS = ("id", "tol")
PLAN_KEYS = ("curve", "curve_file", "seed", "tasks")


def _int_in(lo, hi):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi


def _finite_positive(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v) and v > 0)


def _bad_parameter(places: list[tuple[str, dict, tuple]], n: int):
    """The error line for the first unknown key or bad parameter of a task,
    the plan or --tol, each place given with its known keys, or None; n is
    the number of branch points."""
    positive = (_int_in(1, math.inf), "a positive integer")
    checks = {
        "ks": (lambda v: isinstance(v, list) and all(map(_int_in(1, n), v)),
               f"a list of branch indices in 1..{n}"),
        "samples": positive, "count": positive,
        "seed": (_int_in(-math.inf, math.inf), "an integer"),
        "infinity_in": (lambda v: isinstance(v, list) and all(map(_int_in(0, 2), v)),
                        "a list of parts among 0, 1, 2"),
        "include_infinity": (lambda v: isinstance(v, bool), "true or false"),
        "tol": (_finite_positive, "a finite positive number"),
    }
    for where, params, keys in places:
        unknown = [key for key in params if key not in keys]
        if unknown:
            return f"error: {where}: unknown key {unknown[0]!r}"
        for key, (ok, what) in checks.items():
            if key in params and not ok(params[key]):
                return f"error: {where}: {key} must be {what}, got {params[key]!r}"
    return None


def cmd_verify(args) -> int:
    plan = _load_json(args.plan)
    try:
        if "curve_file" in plan:
            if not isinstance(plan["curve_file"], str):
                raise TypeError(f"curve_file must be a string, got {plan['curve_file']!r}")
            curve_obj = _load_json(plan["curve_file"])
        else:
            curve_obj = plan["curve"]
        curve = CurveSpec.from_json(curve_obj)
        tasks = plan["tasks"]
        if not isinstance(tasks, list) or not all(isinstance(t, dict) for t in tasks):
            raise KeyError("tasks")
    except (KeyError, TypeError, ValueError, CurveSpecError) as exc:
        print(f"error: invalid plan: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BranchPointsNotDistinct) else 2
    for t in tasks:
        if t.get("id") not in TASKS:
            print(f"error: unknown task id {t.get('id')!r}", file=sys.stderr)
            return 2
        degree = TASKS[t["id"]][0]
        if degree not in (None, curve.n):
            print(f"error: task {t['id']!r} needs a cover of degree {degree}, "
                  f"the curve has degree {curve.n}", file=sys.stderr)
            return 2
    bad = _bad_parameter([("plan", plan, PLAN_KEYS), ("--tol", {"tol": args.tol}, ("tol",))]
                         + [(f"task {t['id']!r}", t, TASK_KEYS + TASKS[t["id"]][2])
                            for t in tasks], curve.num_branch)
    if bad:
        print(bad, file=sys.stderr)
        return 2
    seed = int(args.seed if args.seed is not None else plan.get("seed", 0))

    t0 = time.time()
    try:
        pd = build_periods(curve)
    except (PeriodError, HomologyError, CurveSpecError, QuadratureError,
            ThetaError) as exc:
        print(f"error: period construction failed: {exc}", file=sys.stderr)
        return 3
    t_periods = time.time() - t0

    ctx = Plan(curve, pd)

    def run_task(ti: int, task: dict):
        t1 = time.time()
        handler = TASKS[task["id"]][1]
        out = list(handler(ctx, task, float(task.get("tol", args.tol)), seed + 104729 * ti))
        return out, time.time() - t1

    try:
        results = list(map(run_task, range(len(tasks)), tasks))
    except (ThetaError, PeriodError, HomologyError, QuadratureError) as exc:
        print(f"error: verification aborted: {exc}", file=sys.stderr)
        return 3
    reports = [rep for out, _ in results for rep in out]
    timings = [dt for _, dt in results]

    lines = [rep.jsonl() for rep in reports]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))

    # human summary
    n_pass = sum(1 for r in reports if r.passed)
    n_fail = len(reports) - n_pass
    print(f"{'identity':<22} {'partition':<42} {'|ratio|-1':>10} "
          f"{'root':>5} {'spread':>9} pass")
    for r in reports:
        mod = abs(np.mean(r.ratios)) - 1.0 if r.ratios else float("nan")
        root = r.tag.index if r.tag else "-"
        print(f"{r.identity:<22} {r.partition:<42} {mod:>10.2e} "
              f"{str(root):>5} {r.spread:>9.2e} {'OK' if r.passed else 'FAIL'}")
    print(f"\n{n_pass} passed, {n_fail} failed; periods {t_periods:.2f}s, "
          f"tasks {' '.join(f'{t:.2f}s' for t in timings)}")
    if not args.out:
        for line in lines:
            print(line)
    return 0 if n_fail == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="thetalab",
                                 description="period matrices, theta functions and "
                                             "Thomae-type identity verification")
    sub = ap.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("periods", help="build period data for a curve")
    p1.add_argument("curve", help="curve spec JSON file")
    p1.add_argument("--out", default=None)
    p1.set_defaults(func=cmd_periods)

    p2 = sub.add_parser("theta", help="evaluate theta and its gradient")
    p2.add_argument("input", help="JSON with tau, eps, delta, zeta")
    p2.add_argument("--tol", type=float, default=1e-10,
                    help="truncation bound of the value and of each gradient entry")
    p2.set_defaults(func=cmd_theta)

    p3 = sub.add_parser("verify", help="run a verification plan")
    p3.add_argument("plan", help="plan JSON file")
    p3.add_argument("--tol", type=float, default=1e-6,
                    help="tolerance of every task without its own tol")
    p3.add_argument("--seed", type=int, default=None)
    p3.add_argument("--out", default=None, help="JSONL output path")
    p3.set_defaults(func=cmd_verify)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
