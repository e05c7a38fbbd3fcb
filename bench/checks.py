"""Correctness checks on the outputs of benchmark operations.

Nothing here compares against stored output.  Verify reports are checked
against properties the method must have (every identity passes, each ratio
is a root of unity of its asserted order, report counts equal partition
counts from binomials, JSONL is identical across operations); theta values
are checked against a brute-force lattice sum computed here.

Every check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

# |r^k - 1| <= RATIO_SLACK * k * tol for a ratio r classified as a k-th root
# at tolerance tol: the program accepts modulus and angle errors up to tol on
# the mean ratio and a spread up to tol around it, so each single ratio lies
# within about 3 tol of the root.
RATIO_SLACK = 4.0

# brute-force sums keep every term within exp(-BOX_CUT) of the largest one
BOX_CUT = 45.0
# rounding slack of a lattice sum, relative to the sum of absolute terms
ROUNDING_SLACK = 1e-11


def multinomial(n: int, *parts: int) -> int:
    if any(p < 0 for p in parts) or sum(parts) != n:
        return 0
    out, rest = 1, n
    for p in parts:
        out *= math.comb(rest, p)
        rest -= p
    return out


def _trig_count(q: int, sizes: tuple[int, int, int], loc: int) -> int:
    """Partitions of the 3q-1 finite branch points with infinity in L_loc."""
    fin = list(sizes)
    fin[loc] -= 1
    return multinomial(3 * q - 1, *fin)


def expected_report_counts(plan: dict) -> dict[str, int]:
    """Report count per identity that the plan must produce, from binomials."""
    n = int(plan["curve"]["n"])
    N = len(plan["curve"]["lambdas"])
    counts: dict[str, int] = {}

    def add(identity, k):
        counts[identity] = counts.get(identity, 0) + k

    for task in plan["tasks"]:
        tid = task["id"]
        if tid == "period_sanity":
            add(tid, 1)
        elif n == 2:
            g = (N - 1) // 2
            if tid == "thomae_const_hyp":
                add(tid, math.comb(2 * g + 1, g))
            elif tid == "thomae_deriv_hyp":
                symbols = 2 * g + 2 if task.get("include_infinity") else 2 * g + 1
                add(tid, math.comb(symbols, g - 1))
            elif tid == "quotient_hyp":
                add(tid, len(task.get("ks", range(N))))
            elif tid == "matrix_form_hyp":
                add(tid, min(int(task.get("count", 1)), math.comb(2 * g + 1, g)))
            else:
                raise ValueError(f"task {tid} does not apply to n=2")
        else:
            q = (N + 1) // 3
            t1 = _trig_count(q, (q + 2, q - 1, q - 1), 0)
            if tid == "alpha_trig":
                add(tid, 1)
            elif tid == "deriv_trig_t1":
                add("thomae_deriv_trig_t1", t1)
            elif tid == "deriv_trig_t2":
                for loc in task.get("infinity_in", [1, 0]):
                    add("thomae_deriv_trig_t2", _trig_count(q, (q + 1, q + 1, q - 2), loc))
            elif tid == "quotient_trig":
                add(tid, len(task.get("ks", range(N))))
            elif tid == "matrix_form_trig":
                add(tid, min(int(task.get("count", 1)),
                             _trig_count(q, (q, q, q), 2)))
            elif tid == "simple_zeros_trig":
                add("simple_zero_trig", t1 + _trig_count(q, (q + 1, q + 1, q - 2), 1)
                    + _trig_count(q, (q, q, q), 2))
            else:
                raise ValueError(f"task {tid} does not apply to n=3")
    return counts


def check_verify_output(plan: dict, rc: int, jsonl: bytes,
                        reference: bytes | None) -> list[str]:
    """Checks on one `thetalab verify` run of `plan`.

    `reference` is the JSONL of an earlier run of the same plan, or None."""
    errors = []
    if rc != 0:
        errors.append(f"exit code {rc}, expected 0")
    if reference is not None and jsonl != reference:
        errors.append("JSONL differs from an earlier run of the same plan")
    try:
        reports = [json.loads(line) for line in jsonl.decode().splitlines()]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return errors + [f"unreadable JSONL: {exc}"]
    got: dict[str, int] = {}
    for i, rep in enumerate(reports):
        ident = rep.get("identity")
        got[ident] = got.get(ident, 0) + 1
        where = f"report {i} ({ident} {rep.get('partition')})"
        if rep.get("passed") is not True:
            errors.append(f"{where}: passed is {rep.get('passed')!r}")
        errors += [f"{where}: {e}" for e in check_root_ratios(rep)]
    want = expected_report_counts(plan)
    if got != want:
        errors.append(f"report counts {got} differ from partition counts {want}")
    return errors


def check_root_ratios(rep: dict) -> list[str]:
    """Each stored ratio raised to the asserted order must be close to 1, and
    the stored root index must be the one the ratios point at."""
    tag = rep.get("root_tag")
    if tag is None:
        return []
    order = int(tag["order"])
    tol = float(rep["tolerances"]["tol"])
    ratios = [complex(r[0], r[1]) for r in rep.get("ratios", [])]
    if not ratios:
        return ["root tag without ratios"]
    errors = []
    limit = RATIO_SLACK * order * tol
    for r in ratios:
        dev = abs(r ** order - 1.0)
        if not dev <= limit:
            errors.append(f"ratio {r:.6g} ** {order} misses 1 by {dev:.3e} > {limit:.1e}")
    mean = complex(np.mean(ratios))
    index = round(math.atan2(mean.imag, mean.real) * order / (2 * math.pi)) % order
    if index != int(tag["index"]):
        errors.append(f"root index {tag['index']} but the ratios give {index}")
    return errors


# ----------------------------------------------------------------------------
# theta


def _floats(v) -> np.ndarray:
    return np.array([float(Fraction(x)) for x in v])


def brute_theta(tau, eps, delta, zeta):
    """Plain box sum of theta[eps;delta](zeta, tau) and its gradient.

    Returns (value, gradient, sum |term|, per-component sum |grad term|).
    The box holds every m whose term is within exp(-BOX_CUT) of the largest
    term, from the diagonal of (Im tau)^-1; no range reduction, no
    ellipsoid enumeration, no tail bound."""
    tau = np.asarray(tau, dtype=complex)
    g = tau.shape[0]
    a = _floats(eps) / 2.0
    b = _floats(delta) / 2.0
    zeta = np.asarray(zeta, dtype=complex)
    yinv = np.linalg.inv(np.imag(tau))
    c = yinv @ np.imag(zeta)
    half = np.sqrt(BOX_CUT / np.pi * np.diag(yinv))
    lo = np.ceil(-c - a - half).astype(int)
    hi = np.floor(-c - a + half).astype(int)
    axes = [np.arange(l, h + 1) for l, h in zip(lo, hi)]
    if g > 1:
        rest = np.stack(np.meshgrid(*axes[1:], indexing="ij"), -1).reshape(-1, g - 1)
    else:
        rest = np.zeros((1, 0))
    value = 0j
    grad = np.zeros(g, dtype=complex)
    abs_sum = 0.0
    grad_abs = np.zeros(g)
    for m0 in axes[0]:
        n = np.column_stack([np.full(len(rest), m0), rest]) + a
        quad = np.einsum("ij,jk,ik->i", n, tau, n)
        terms = np.exp(1j * np.pi * quad + 2j * np.pi * (n @ (zeta + b)))
        value += terms.sum()
        grad += 2j * np.pi * (n.T @ terms)
        abs_sum += float(np.abs(terms).sum())
        grad_abs += 2 * np.pi * (np.abs(n).T @ np.abs(terms))
    return complex(value), grad, abs_sum, grad_abs


def check_theta_bounds(out, tol: float) -> list[str]:
    """Cheap checks that every theta output must pass."""
    errors = []
    if not (np.isfinite(out.value) and np.all(np.isfinite(out.gradient))):
        errors.append("non-finite theta value or gradient")
    if not out.value_bound <= tol:
        errors.append(f"value bound {out.value_bound:.3e} above tol {tol:.1e}")
    if not out.gradient_bound <= max(tol, 1e-8):
        errors.append(f"gradient bound {out.gradient_bound:.3e} above tol")
    if not (math.isfinite(out.radius) and out.radius > 0):
        errors.append(f"truncation radius {out.radius!r} not positive")
    return errors


def check_theta_oracle(inp, out) -> list[str]:
    """Value and gradient within their reported bounds of the box sum."""
    value, grad, abs_sum, grad_abs = brute_theta(inp.tau, inp.eps, inp.delta, inp.zeta)
    errors = []
    dv = abs(out.value - value)
    lim = out.value_bound + ROUNDING_SLACK * abs_sum
    if not dv <= lim:
        errors.append(f"theta value off the box sum by {dv:.3e} > {lim:.3e}")
    dg = np.abs(np.asarray(out.gradient) - grad)
    glim = out.gradient_bound + ROUNDING_SLACK * grad_abs
    if not np.all(dg <= glim):
        errors.append(f"theta gradient off the box sum by {dg.max():.3e}")
    return errors


def odd_half_characteristic(g: int, rng: np.random.Generator):
    """Random (eps, delta) in {0,1}^g with eps.delta odd."""
    eps = rng.integers(0, 2, size=g)
    delta = rng.integers(0, 2, size=g)
    j = int(rng.integers(0, g))
    eps[j] = 1
    if int(eps @ delta) % 2 == 0:
        delta[j] ^= 1
    return [int(x) for x in eps], [int(x) for x in delta]


def check_theta_identities(th, inp, out, tol: float, rng: np.random.Generator) -> list[str]:
    """Quasi-periodicity at the operation's argument, and vanishing of an odd
    half-integer characteristic at 0, through the program's own theta_eval.

    `th` is the thetalab.theta module."""
    tau_arr = np.asarray(inp.tau, dtype=complex)
    g = tau_arr.shape[0]
    tau = th.RiemannMatrix(tau_arr)
    char = th.Characteristic.of(inp.eps, inp.delta)
    errors = []

    n = rng.integers(-1, 2, size=g)
    if not n.any():
        n[0] = 1
    l = rng.integers(-1, 2, size=g)
    shifted = th.theta_eval(char, inp.zeta + tau_arr @ n + l, tau, tol)
    expo = (-n @ tau_arr @ n / 2.0 - n @ inp.zeta
            + (l @ _floats(inp.eps) - n @ _floats(inp.delta)) / 2.0)
    factor = complex(np.exp(2j * np.pi * expo))
    _, _, abs_sum, _ = brute_theta(tau_arr, inp.eps, inp.delta, inp.zeta)
    diff = abs(shifted.value - factor * out.value)
    lim = (shifted.truncation_bound + abs(factor) * out.value_bound
           + 1e-9 * abs(factor) * abs_sum)
    if not diff <= lim:
        errors.append(f"quasi-periodicity under n={n.tolist()} l={l.tolist()} "
                      f"misses by {diff:.3e} > {lim:.3e}")

    eps, delta = odd_half_characteristic(g, rng)
    zero = np.zeros(g, dtype=complex)
    val = th.theta_eval(th.Characteristic.of(eps, delta), zero, tau, tol)
    _, _, abs0, _ = brute_theta(tau_arr, eps, delta, zero)
    lim0 = val.truncation_bound + ROUNDING_SLACK * abs0
    if not abs(val.value) <= lim0:
        errors.append(f"odd characteristic [{eps};{delta}] gives |theta(0)| "
                      f"{abs(val.value):.3e} > {lim0:.3e}")
    return errors
