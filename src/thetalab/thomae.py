"""Thomae-type constant and derivative identities, verified numerically.

Hyperelliptic (w^2 = f, deg f = 2g+1):

  * constant identity: theta[e(I0)](0) against
    (det C / 2^g pi^g)^{1/2} Delta(I0)^{1/4} Delta(J0)^{1/4}, an 8th root of
    unity ratio, over partitions I0 u J0 with |I0| = g+1, infinity in I0;
  * derivative identity: grad theta[e(I1)](0) against the same shape with
    2^{g+2}, Delta(I1)^{1/4} Delta(J1)^{1/4} and sum_l C_{ls} (-1)^{g-l}
    sigma_{g-l}(I1), ratio an 8th root independent of s;
  * square theta quotient at generic arguments, a 4th root times
    prod(lambda_k - z(Q_r)) / sqrt(f'(lambda_k));
  * the g x g matrix form tying the derivative rows to D Sigma C with
    det Sigma = Delta(I0).

Trigonal (w^3 = f, deg f = 3q-1, g = 3q-2):

  * constant identity with the closed-form constant
    alpha = (2 pi)^{-g/2} 3^{-g/8} (trig_alpha) and a 144th root;
  * derivative identities for the two divisor types (144th roots), using
    rows l <= 2q-1 resp. l >= 2q of C;
  * cube theta quotient (12th root);
  * the matrix form with the two-block Sigma.

The closed form of alpha is observed, not derived: every constant-kind
ratio divided by it has modulus 1 to 2e-12 at q = 1, 2, 3, and every
constant and derivative ratio is a root of unity whose order divides 144.
So the trigonal identities are absolute, as the hyperelliptic ones are with
(det C / (2 pi)^g)^{1/2}.

Each verifier takes a task's partitions and returns one report (alpha_ratio:
one ratio) per partition, in order: _table_entries validates and builds each
characteristic once, then reads every theta constant from the plan's table
in one PeriodData.theta_constants call.

Derivative right-hand sides contract algebra.sigma_row with C through
algebra.sigma_contract; every derivative report, matrix-form rows included,
comes from one verifier, _verify_deriv, its gradient bounded by GRAD_TOL.
A task's matrix forms take all their rows from one _hyp_deriv_rows or
_trig_deriv_rows batch, read each row's gradient, root and right-hand side
from it (_verify_matrix_form) and add only their structural check.

All fractional powers take principal branches; every ambiguity group divides
the asserted root order, so classifications are branch-robust.  Ratios are
always classified, never either side alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .algebra import (INF, IndexSet, RootOfUnityTag, c2j, classify_root_of_unity,
                      pair_delta, principal_power, sigma_contract, sigma_row,
                      vandermonde_delta)
from .curves import CurveSpec
from .periods import PeriodData, PeriodError, _random_surface_points
# theta_eval is not called here; bench/test_checks.py reads it from this module
from .theta import (GRAD_TOL, THETA_TOL, Characteristic, invariant_abs,  # noqa: F401
                    theta_eval, theta_sums)

SAMPLE_TRIES = 5   # divisors _sample_nonspecial draws before it gives up
DET_SIGMA_TOL = 1e-9    # relative |det Sigma - Delta(I0)| of the hyperelliptic matrix form
ZERO_BLOCK_TOL = 1e-10  # relative zero blocks of the trigonal matrix form's Sigma
SIMPLE_ZERO_TOL = 1e-7  # |theta| below this times theta_scale is a zero
GRAD_FLOOR = 1e-4       # a simple zero's |grad theta| is above this times theta_scale


# ----------------------------------------------------------------------------
# Partitions


@dataclass(frozen=True)
class HypPartition:
    m: int
    I: IndexSet
    J: IndexSet

    def label(self) -> str:
        return f"m={self.m} I={self.I.label()}"

    def validate(self, g: int):
        if len(self.I) != g + 1 - 2 * self.m or len(self.J) != g + 1 + 2 * self.m:
            raise ValueError("partition cardinalities do not match the index m")
        if self.m == 0 and INF not in self.I:
            raise ValueError("m=0 requires infinity in I")


@dataclass(frozen=True)
class TrigPartition:
    kind: str                  # "constant" | "deriv1" | "deriv2"
    L0: IndexSet
    L1: IndexSet
    L2: IndexSet

    def label(self) -> str:
        return f"{self.kind} L0={self.L0.label()} L1={self.L1.label()} L2={self.L2.label()}"

    def validate(self, q: int):
        sizes = (len(self.L0), len(self.L1), len(self.L2))
        expect = {"constant": (q, q, q),
                  "deriv1": (q + 2, q - 1, q - 1),
                  "deriv2": (q + 1, q + 1, q - 2)}[self.kind]
        if sizes != expect:
            raise ValueError(f"{self.kind} partition has sizes {sizes}, expected {expect}")
        all_members = list(self.L0) + list(self.L1) + list(self.L2)
        if len(all_members) != 3 * q:
            raise ValueError("partition does not cover all branch symbols")


def enumerate_partitions_hyp(g: int, m: int) -> list[HypPartition]:
    """All (I_m, J_m) splits of {1..2g+1, inf}; for m=0 infinity sits in I."""
    if m < 0 or m > (g + 1) // 2:
        raise ValueError("index of speciality out of range")
    finite = list(range(1, 2 * g + 2))
    symbols = finite + [INF]
    out = []
    if m == 0:
        for comb in combinations(finite, g):
            I = IndexSet.of(list(comb) + [INF])
            J = IndexSet.of([s for s in symbols if s not in I])
            out.append(HypPartition(0, I, J))
    else:
        size = g + 1 - 2 * m
        for comb in combinations(symbols, size):
            I = IndexSet.of(comb)
            J = IndexSet.of([s for s in symbols if s not in I])
            out.append(HypPartition(m, I, J))
    return out


def enumerate_partitions_trig(q: int, kind: str, infinity_in: int = None) -> list[TrigPartition]:
    """Partitions (L0, L1, L2) of {1..3q-1, inf} by kind.

    Default infinity placement follows the theorems: L2 for constant, L0 for
    deriv1, L1 for deriv2; pass infinity_in = 0/1/2 to override (the
    non-theorem placements feed the experimental relocation checks).
    """
    finite = list(range(1, 3 * q))
    defaults = {"constant": 2, "deriv1": 0, "deriv2": 1}
    loc = defaults[kind] if infinity_in is None else infinity_in
    sizes = {"constant": [q, q, q], "deriv1": [q + 2, q - 1, q - 1],
             "deriv2": [q + 1, q + 1, q - 2]}[kind]
    fin_sizes = list(sizes)
    fin_sizes[loc] -= 1
    if fin_sizes[loc] < 0:
        return []
    out = []
    for c0 in combinations(finite, fin_sizes[0]):
        rest1 = [x for x in finite if x not in c0]
        for c1 in combinations(rest1, fin_sizes[1]):
            c2 = tuple(x for x in rest1 if x not in c1)
            if len(c2) != fin_sizes[2]:
                continue
            parts = [list(c0), list(c1), list(c2)]
            parts[loc] = parts[loc] + [INF]
            p = TrigPartition(kind, IndexSet.of(parts[0]), IndexSet.of(parts[1]),
                              IndexSet.of(parts[2]))
            p.validate(q)
            out.append(p)
    return out


def char_from_partition_hyp(p: HypPartition, periods: PeriodData) -> Characteristic:
    """Characteristic of sum_{i in I_m} u(P_i) + K, after validating p;
    integral by construction."""
    p.validate(periods.g)
    ch = periods.characteristic({i: 1 for i in p.I.finite})
    if not ch.is_integral():
        raise ValueError(f"partition characteristic not integral: {ch.label()}")
    return ch


def char_from_partition_trig(p: TrigPartition, periods: PeriodData) -> Characteristic:
    """Characteristic of sum_{L1} u + 2 sum_{L2} u + K (denominators 1,2,3,6),
    after validating p."""
    p.validate(periods.curve.q)
    return periods.characteristic({i: c for c, part in ((1, p.L1), (2, p.L2))
                                   for i in part.finite})


def _table_entries(periods: PeriodData, parts: Sequence, char, grad: bool):
    """(partition, characteristic, theta table entry) of each partition, in
    order: every char(p, periods) validated and built first, then every
    entry read by one PeriodData.theta_constants call."""
    chars = [char(p, periods) for p in parts]
    return zip(parts, chars, periods.theta_constants(chars, grad))


# ----------------------------------------------------------------------------
# Reports


@dataclass
class VerificationReport:
    identity: str
    partition: str
    passed: bool
    tolerances: dict
    s_range: list[int] = field(default_factory=list)
    lhs: list[complex] = field(default_factory=list)
    rhs_modulus: Optional[float] = None     # None (JSON null) without one RHS
    ratios: list[complex] = field(default_factory=list)
    tag: Optional[RootOfUnityTag] = None
    spread: float = 0.0
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        tag = None
        if self.tag is not None:
            tag = {"order": self.tag.order, "index": self.tag.index,
                   "phase_residual": self.tag.phase_residual,
                   "modulus_error": self.tag.modulus_error, "ok": self.tag.ok}
        return {"identity": self.identity, "partition": self.partition,
                "s_range": self.s_range, "lhs": [c2j(x) for x in self.lhs],
                "rhs_modulus": self.rhs_modulus,
                "ratios": [c2j(x) for x in self.ratios], "root_tag": tag,
                "spread": self.spread, "passed": bool(self.passed),
                "tolerances": self.tolerances, "details": self.details}

    def jsonl(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))


def _ratio_statistics(lhs: np.ndarray, rhs: np.ndarray, tol: float):
    """Per-component ratios where the RHS is nonzero; zero-RHS components get
    an absolute check instead.  Returns (ratios, mean, spread, zeros_ok)."""
    lhs = np.asarray(lhs, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    floor = 1e-8 * float(np.max(np.abs(rhs), initial=0.0))
    live = np.abs(rhs) > floor
    ratios = lhs[live] / rhs[live]
    if ratios.size == 0:
        return [], 0.0 + 0.0j, np.inf, False
    mean = complex(np.mean(ratios))
    spread = float(np.max(np.abs(ratios - mean)) / max(abs(mean), 1e-300))
    scale_lhs = float(np.max(np.abs(lhs), initial=0.0))
    zeros_ok = bool(np.all(np.abs(lhs[~live]) <= max(tol * scale_lhs, 1e-300)))
    return [complex(r) for r in ratios], mean, spread, zeros_ok


# ----------------------------------------------------------------------------
# Hyperelliptic identities


def _delta_quarter_pair(A: IndexSet, B: IndexSet, lam) -> complex:
    return (principal_power(vandermonde_delta(A, lam), 0.25)
            * principal_power(vandermonde_delta(B, lam), 0.25))


def verify_thomae_const_hyp(curve: CurveSpec, periods: PeriodData,
                            parts: Sequence[HypPartition],
                            tol: float = 1e-6) -> list[VerificationReport]:
    """The constant identity on each m=0 partition."""
    g = curve.genus
    if any(p.m != 0 for p in parts):
        raise ValueError("constant identity needs an m=0 partition")
    lam = curve.lam_map
    pref = principal_power(np.linalg.det(periods.C) / (2.0 ** g * np.pi ** g), 0.5)
    reports = []
    for p, ch, theta in _table_entries(periods, parts, char_from_partition_hyp, False):
        lhs = theta.value
        rhs = pref * _delta_quarter_pair(p.I, p.J, lam)
        ratio = lhs / rhs
        tag = classify_root_of_unity(ratio, 8, tol)
        reports.append(VerificationReport(
            identity="thomae_const_hyp", partition=p.label(), lhs=[lhs],
            rhs_modulus=abs(rhs), ratios=[ratio], tag=tag, passed=tag.ok,
            tolerances={"tol": tol, "theta_tol": THETA_TOL},
            details={"char": ch.label()}))
    return reports


def _hyp_deriv_rhs(curve: CurveSpec, periods: PeriodData, p: HypPartition) -> np.ndarray:
    """RHS vector of the derivative identity (s-indexed), principal branches.

    With infinity inside I1 the symmetric functions are taken one degree lower
    on the finite part (the relocation extension; flagged experimental)."""
    g = curve.genus
    lam = curve.lam_map
    pref = (principal_power(np.linalg.det(periods.C) / (2.0 ** (g + 2) * np.pi ** g), 0.5)
            * _delta_quarter_pair(p.I, p.J, lam))
    row = sigma_row([lam[i] for i in p.I.finite], range(1, g + 1), int(INF in p.I))
    return sigma_contract(pref, row, periods.C)


def _verify_deriv(identity: str, order: int, ch: Characteristic, grad: np.ndarray,
                  rhs: np.ndarray, experimental: bool, partition: str,
                  tol: float) -> VerificationReport:
    """grad theta[ch](0), summed at GRAD_TOL, against the RHS vector: one
    ratio per nonzero RHS entry, their mean classified as an order-th root
    of unity."""
    ratios, mean, spread, zeros_ok = _ratio_statistics(grad, rhs, tol)
    tag = classify_root_of_unity(mean, order, tol) if ratios else None
    passed = bool(ratios) and tag.ok and spread < tol and zeros_ok
    return VerificationReport(
        identity=identity, partition=partition, s_range=list(range(1, len(grad) + 1)),
        lhs=[complex(x) for x in grad], rhs_modulus=float(np.max(np.abs(rhs))),
        ratios=ratios, tag=tag, spread=spread, passed=passed,
        tolerances={"tol": tol, "grad_tol": GRAD_TOL},
        details={"char": ch.label(), "experimental": experimental,
                 "zeros_ok": zeros_ok})


def _hyp_deriv_rows(curve: CurveSpec, periods: PeriodData, parts: Sequence[HypPartition],
                    tol: float) -> list[tuple[VerificationReport, np.ndarray]]:
    """The derivative identity on each m=1 partition: its report and the RHS
    it compared."""
    if any(p.m != 1 for p in parts):
        raise ValueError("derivative identity needs an m=1 partition")
    rows = []
    for p, ch, theta in _table_entries(periods, parts, char_from_partition_hyp, True):
        rhs = _hyp_deriv_rhs(curve, periods, p)
        rows.append((_verify_deriv("thomae_deriv_hyp", 8, ch, theta.values, rhs,
                                   INF in p.I, p.label(), tol), rhs))
    return rows


def verify_thomae_deriv_hyp(curve: CurveSpec, periods: PeriodData,
                            parts: Sequence[HypPartition],
                            tol: float = 1e-6) -> list[VerificationReport]:
    return [rep for rep, _ in _hyp_deriv_rows(curve, periods, parts, tol)]


def _sample_nonspecial(periods: PeriodData, count: int, rng, sign: int,
                       ch: Characteristic):
    """Random surface points whose divisor argument sign (sum u(Q_r) + K)
    keeps theta away from 0: (points, argument, theta there, theta[ch]
    there, resamples), both values from one theta_sums call."""
    ch0 = Characteristic.zero(periods.g)
    scale = periods.theta_scale()
    tries = 0
    while True:
        pts = _random_surface_points(periods, count, rng)
        arg = sign * (periods.abel_jacobi_divisor(pts) + periods.K)
        val, val_ch = theta_sums([ch0, ch], arg, periods.tau)
        if invariant_abs(val.value, arg, periods.tau) > 1e-4 * scale:
            return pts, arg, val.value, val_ch.value, tries
        tries += 1
        if tries >= SAMPLE_TRIES:
            raise PeriodError("could not sample a non-special divisor")


# cover degree n -> (identity, root order, exponent of f'(lambda_k), sign of
# the theta argument) of the n-th power theta quotient
_QUOTIENT = {2: ("quotient_hyp", 4, 0.5, 1), 3: ("quotient_trig", 12, 1.0, -1)}


def _verify_quotient(curve: CurveSpec, periods: PeriodData, k: int, n: int,
                     seed: int, samples: int, tol: float) -> VerificationReport:
    """(theta[u(P_k)] / theta)^n at sign (sum u(Q_r) + K) over g random
    points Q_r against prod(lambda_k - z(Q_r)) / f'(lambda_k)^e, with sign
    and e from _QUOTIENT."""
    identity, order, fp_exp, sign = _QUOTIENT[n]
    g = curve.genus
    rng = np.random.default_rng(seed)
    ch_k = periods.characteristic({k: 1}, plus_K=False)
    lam_k = curve.lam(k)
    fp = curve.f_prime_at_branch(k)
    if fp_exp != 1.0:
        fp = principal_power(fp, fp_exp)
    ratios = []
    resamples = 0
    for _ in range(samples):
        pts, arg, den, num, tries = _sample_nonspecial(periods, g, rng, sign, ch_k)
        resamples += tries
        lhs = (num / den) ** n
        rhs = np.prod([lam_k - p.z for p in pts]) / fp
        ratios.append(lhs / rhs)
    mean = complex(np.mean(ratios))
    spread = float(np.max(np.abs(np.array(ratios) - mean)) / abs(mean))
    tag = classify_root_of_unity(mean, order, tol)
    passed = tag.ok and spread < tol
    return VerificationReport(
        identity=identity, partition=f"k={k}", ratios=[complex(r) for r in ratios],
        tag=tag, spread=spread, passed=passed,
        tolerances={"tol": tol, "theta_tol": THETA_TOL},
        details={"char": ch_k.label(), "samples": samples, "resamples": resamples})


def verify_quotient_hyp(curve: CurveSpec, periods: PeriodData, k: int,
                        seed: int = 0, samples: int = 3,
                        tol: float = 1e-6) -> VerificationReport:
    """Squared theta quotient at generic arguments vs the branch-value product."""
    return _verify_quotient(curve, periods, k, 2, seed, samples, tol)


def _verify_matrix_form(identity: str, partition: str,
                        rows: Sequence[tuple[VerificationReport, np.ndarray]],
                        tol: float, check: tuple[str, float],
                        bound: tuple[str, float]) -> VerificationReport:
    """A matrix form stacked from its derivative rows, each a (report, RHS)
    pair of _verify_deriv: every gradient row against its classified root
    times that RHS, entrywise, plus the form's structural check, an error
    named check[0] that must stay below the tolerance named bound[0]."""
    grads = np.array([rep.lhs for rep, _ in rows])
    predicted = np.array([rep.tag.value * rhs for rep, rhs in rows])
    ent_err = float(np.max(np.abs(grads - predicted)) / np.max(np.abs(grads)))
    passed = all(rep.passed for rep, _ in rows) and ent_err < tol and check[1] < bound[1]
    # the two errors in name order, as the reports have always listed them
    errors = dict(sorted([check, ("entrywise_rel_err", ent_err)]))
    return VerificationReport(
        identity=identity, partition=partition,
        s_range=list(range(1, len(rows) + 1)), spread=ent_err, passed=passed,
        tolerances={"tol": tol, bound[0]: bound[1]},
        details=errors | {"row_tags": [rep.tag.index for rep, _ in rows]})


def derived_partitions_hyp(I0: HypPartition) -> list[HypPartition]:
    """The m=1 partitions of the matrix form on I0: infinity and one finite
    member of I0 moved to J, for each of its g finite members in turn."""
    symbols = list(I0.I) + list(I0.J)
    out = []
    for xk in I0.I.finite:                      # g finite members, ascending
        I1 = I0.I.without(INF, xk)
        out.append(HypPartition(1, I1, IndexSet.of([s for s in symbols if s not in I1])))
    return out


def verify_matrix_form_hyp(curve: CurveSpec, periods: PeriodData,
                           parts: Sequence[HypPartition],
                           tol: float = 1e-6) -> list[VerificationReport]:
    """Matrix form of the derivative identity on each I0, over its g
    single-element deletions, plus det Sigma = Delta(I0)."""
    g = curve.genus
    for I0 in parts:
        I0.validate(g)
    lam = curve.lam_map
    derived = [derived_partitions_hyp(I0) for I0 in parts]
    rows = _hyp_deriv_rows(curve, periods, [p1 for d in derived for p1 in d], tol)
    reports = []
    for i, (I0, d) in enumerate(zip(parts, derived)):
        sigma = np.array([list(sigma_row([lam[x] for x in p1.I.finite], range(1, g + 1)).values())
                          for p1 in d], dtype=complex)
        delta_i0 = vandermonde_delta(I0.I, lam)
        det_err = abs(complex(np.linalg.det(sigma)) - delta_i0) / abs(delta_i0)
        reports.append(_verify_matrix_form(
            "matrix_form_hyp", I0.label(), rows[i * g:(i + 1) * g], tol,
            ("det_sigma_rel_err", det_err), ("det_tol", DET_SIGMA_TOL)))
    return reports


# ----------------------------------------------------------------------------
# Trigonal identities


def _delta_product_trig(p: TrigPartition, lam) -> complex:
    """Delta(L0)^{1/2} Delta(L1)^{1/2} Delta(L2)^{1/2} times the three pair
    products to the 1/6, principal branches, infinity skipped."""
    out = (principal_power(vandermonde_delta(p.L0, lam), 0.5)
           * principal_power(vandermonde_delta(p.L1, lam), 0.5)
           * principal_power(vandermonde_delta(p.L2, lam), 0.5))
    out *= principal_power(pair_delta(p.L0, p.L1, lam), 1.0 / 6.0)
    out *= principal_power(pair_delta(p.L1, p.L2, lam), 1.0 / 6.0)
    out *= principal_power(pair_delta(p.L2, p.L0, lam), 1.0 / 6.0)
    return out


# every order seen so far of a trigonal constant or derivative ratio
# divides this
TRIG_ROOT_ORDER = 144


def trig_alpha(g: int) -> float:
    """The trigonal Thomae constant |alpha| = (2 pi)^(-g/2) 3^(-g/8);
    observed, not derived (see the module docstring)."""
    return (2.0 * np.pi) ** (-g / 2.0) * 3.0 ** (-g / 8.0)


@dataclass
class AlphaEstimate:
    modulus: float                  # median |alpha_ratio|
    phases: list[RootOfUnityTag]    # alpha_ratio / trig_alpha as 144th roots
    spread: float
    per_partition: list[dict]


def alpha_ratio(curve: CurveSpec, periods: PeriodData,
                parts: Sequence[TrigPartition]) -> list[complex]:
    """Each partition's normalized theta constant over the full Delta
    expression; equals trig_alpha(g) times a 144th root of unity when the
    identity holds.

    The theta constant carries the normalization e(eps^t delta / 4).  For
    integral characteristics that factor is an 8th root of unity and invisible
    inside the hyperelliptic statements, but for third-integer
    characteristics it contributes 9th roots: without it the ratios of two
    partitions' constants are 36th (not 12th) roots of unity.  (Verified
    numerically via branch-free 12th powers of the plain ratios, whose
    relative phases are exact cube roots of unity.)
    """
    lam = curve.lam_map
    det_root = principal_power(np.linalg.det(periods.C), 0.5)
    ratios = []
    for p, ch, theta in _table_entries(periods, parts, char_from_partition_trig, False):
        ed = sum(e * d for e, d in zip(ch.eps, ch.delta))
        lhs = theta.value * np.exp(2j * np.pi * float(ed) / 4.0)
        ratios.append(lhs / (det_root * _delta_product_trig(p, lam)))
    return ratios


def estimate_alpha(curves: Sequence[tuple[CurveSpec, PeriodData]],
                   tol: float = 1e-6) -> AlphaEstimate:
    """alpha_ratio over all constant-kind partitions of all supplied curves,
    each classified against trig_alpha as a 144th root of unity."""
    moduli = []
    phases = []
    per_partition = []
    for ci, (curve, periods) in enumerate(curves):
        alpha = trig_alpha(curve.genus)
        parts = enumerate_partitions_trig(curve.q, "constant")
        for p, r in zip(parts, alpha_ratio(curve, periods, parts)):
            tag = classify_root_of_unity(r / alpha, TRIG_ROOT_ORDER, tol)
            phases.append(tag)
            moduli.append(abs(r))
            per_partition.append({"curve": ci, "partition": p.label(),
                                  "modulus": abs(r), "root_index": tag.index,
                                  "phase_ok": tag.ok})
    med = float(np.median(moduli))
    spread = float((max(moduli) - min(moduli)) / med)
    return AlphaEstimate(modulus=med, phases=phases, spread=spread,
                         per_partition=per_partition)


def _trig_deriv_rhs(curve: CurveSpec, periods: PeriodData, p: TrigPartition) -> np.ndarray:
    """RHS vector for the trigonal derivative identities, constant alpha/3,
    on rows l = 1..2q-1 of C with sigma over L1 u L2 (deriv1) or rows
    l = 2q..3q-2 with sigma over L2 (deriv2); infinity in the sigma set
    drops the degree by one.

    For deriv2 that halves the printed 2 alpha/3: near the double point the
    cube root of the branch-value product is t * t', whose symmetrized
    beta-derivative at the diagonal is -1/2 (phi_tt - phi_ts)/2 with
    phi_tt = 0 (sign absorbed into the 144th root).  Confirmed numerically:
    the plain ratio has modulus exactly 1/2 for every type-2 partition."""
    q = curve.q
    lam = curve.lam_map
    if p.kind == "deriv1":
        sig_set, rows = p.L1.finite + p.L2.finite, range(1, 2 * q)
        drop = int(INF in p.L1 or INF in p.L2)
    elif p.kind == "deriv2":
        sig_set, rows, drop = p.L2.finite, range(2 * q, 3 * q - 1), int(INF in p.L2)
    else:
        raise ValueError("derivative RHS needs a deriv-kind partition")
    row = sigma_row([lam[i] for i in sig_set], rows, drop)
    pref = (_delta_product_trig(p, lam) * principal_power(np.linalg.det(periods.C), 0.5)
            * trig_alpha(curve.genus) / 3.0)
    # the trigonal sign (-1)^deg is (-1)^drop times the row's (-1)^(top-l)
    return sigma_contract(-pref if drop else pref, row, periods.C)


def _trig_deriv_rows(curve: CurveSpec, periods: PeriodData, parts: Sequence[TrigPartition],
                     tol: float) -> list[tuple[VerificationReport, np.ndarray]]:
    """The type-1 or type-2 identity on each partition, by its kind: its
    report and the RHS it compared."""
    rhss = [_trig_deriv_rhs(curve, periods, p) for p in parts]   # raises on constant kind
    rows = []
    entries = _table_entries(periods, parts, char_from_partition_trig, True)
    for (p, ch, theta), rhs in zip(entries, rhss):
        # infinity in the sigma set is the experimental relocation
        experimental = INF in p.L2 or (p.kind == "deriv1" and INF in p.L1)
        identity = "thomae_deriv_trig_t1" if p.kind == "deriv1" else "thomae_deriv_trig_t2"
        rows.append((_verify_deriv(identity, TRIG_ROOT_ORDER, ch, theta.values, rhs,
                                   experimental, p.label(), tol), rhs))
    return rows


def verify_thomae_deriv_trig_t1(curve: CurveSpec, periods: PeriodData,
                                parts: Sequence[TrigPartition],
                                tol: float = 1e-5) -> list[VerificationReport]:
    if any(p.kind != "deriv1" for p in parts):
        raise ValueError("type-1 identity needs a deriv1 partition")
    return [rep for rep, _ in _trig_deriv_rows(curve, periods, parts, tol)]


def verify_thomae_deriv_trig_t2(curve: CurveSpec, periods: PeriodData,
                                parts: Sequence[TrigPartition],
                                tol: float = 1e-5) -> list[VerificationReport]:
    if any(p.kind != "deriv2" for p in parts):
        raise ValueError("type-2 identity needs a deriv2 partition")
    return [rep for rep, _ in _trig_deriv_rows(curve, periods, parts, tol)]


def verify_quotient_trig(curve: CurveSpec, periods: PeriodData, k: int,
                         seed: int = 0, samples: int = 3,
                         tol: float = 1e-6) -> VerificationReport:
    """Cubed theta quotient at -sum u(Q_r) - K vs the branch-value product."""
    return _verify_quotient(curve, periods, k, 3, seed, samples, tol)


def derived_partitions_for_matrix(p: TrigPartition, q: int) -> list[TrigPartition]:
    """The g partitions obtained from a constant-kind partition by the three
    single-branch-point degenerations (simple from L1, simple from L2,
    double from L2)."""
    if p.kind != "constant":
        raise ValueError("matrix form starts from a constant-kind partition")
    l1 = list(p.L1.finite)
    l2fin = list(p.L2.finite)
    out = []
    for i in l1:                                   # rows 1..q
        out.append(TrigPartition("deriv1",
                                 p.L0.union(IndexSet.of([i, INF])),
                                 p.L1.without(i),
                                 p.L2.without(INF)))
    for i in l2fin:                                # rows q+1..2q-1
        out.append(TrigPartition("deriv2",
                                 p.L0.union(IndexSet.of([INF])),
                                 p.L1.union(IndexSet.of([i])),
                                 p.L2.without(i, INF)))
    for i in l2fin:                                # rows 2q..3q-2
        out.append(TrigPartition("deriv2",
                                 p.L0.union(IndexSet.of([i])),
                                 p.L1.union(IndexSet.of([INF])),
                                 p.L2.without(i, INF)))
    return out


def verify_matrix_form_trig(curve: CurveSpec, periods: PeriodData,
                            parts: Sequence[TrigPartition],
                            tol: float = 1e-5) -> list[VerificationReport]:
    """Matrix identity Grad = (alpha/3) D Sigma C for the degenerations of
    each constant-kind partition, including the structural zero blocks of
    Sigma."""
    q = curve.q
    g = curve.genus
    derived = [derived_partitions_for_matrix(p, q) for p in parts]
    if any(len(d) != g for d in derived):
        raise ValueError("wrong number of derived partitions")
    all_rows = _trig_deriv_rows(curve, periods, [pk for d in derived for pk in d], tol)
    # Sigma reconstructed from the gradients with the classified per-row
    # phases: its zero blocks must come out exactly.  sqrt(det C)
    # accompanies the row theorems; the compact matrix statement drops it
    # from display but it is part of the identity
    const = trig_alpha(g) * principal_power(np.linalg.det(periods.C), 0.5) / 3.0
    zero_mask = np.zeros((g, g), dtype=bool)
    zero_mask[:q, 2 * q - 1:] = True
    zero_mask[q:, : 2 * q - 1] = True
    reports = []
    for i, (p, dk) in enumerate(zip(parts, derived)):
        rows = all_rows[i * g:(i + 1) * g]
        rowfac = (np.array([_delta_product_trig(pk, curve.lam_map) for pk in dk])
                  * np.array([rep.tag.value for rep, _ in rows]))
        grads = np.array([rep.lhs for rep, _ in rows])
        sigma_hat = np.diag(1.0 / rowfac) @ grads @ np.linalg.inv(periods.C) / const
        # at q = 1 (g = 1) Sigma has no zero blocks
        zero_err = float(np.max(np.abs(sigma_hat[zero_mask]), initial=0.0)
                         / np.max(np.abs(sigma_hat)))
        reports.append(_verify_matrix_form(
            "matrix_form_trig", p.label(), rows, tol,
            ("zero_block_err", zero_err), ("zero_tol", ZERO_BLOCK_TOL)))
    return reports


def simple_zero_check(periods: PeriodData,
                      parts: Sequence[TrigPartition]) -> list[VerificationReport]:
    """theta[e_Lambda] vanishes with nonzero gradient exactly for the
    deriv-kind partitions (simple zeros of theta); values and gradients are
    the plan's theta table entries at GRAD_TOL, the ones the derivative
    identities read."""
    scale = periods.theta_scale()
    reports = []
    for p, ch, d in _table_entries(periods, parts, char_from_partition_trig, True):
        val = abs(d.value)
        grad = float(np.linalg.norm(d.values))
        is_zero = val < SIMPLE_ZERO_TOL * scale
        grad_ok = grad > GRAD_FLOOR * scale
        expected_zero = p.kind in ("deriv1", "deriv2")
        passed = (is_zero == expected_zero) and (grad_ok if expected_zero else True)
        reports.append(VerificationReport(
            identity="simple_zero_trig", partition=p.label(), lhs=[complex(val)],
            passed=passed,
            tolerances={"zero_tol": SIMPLE_ZERO_TOL, "grad_floor": GRAD_FLOOR},
            details={"char": ch.label(), "theta_abs": val, "grad_norm": grad,
                     "scale": scale, "is_zero": bool(is_zero),
                     "grad_ok": bool(grad_ok), "expected_zero": expected_zero}))
    return reports
