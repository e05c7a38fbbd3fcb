"""Thomae-type constant and derivative identities, verified numerically.

Hyperelliptic (w^2 = f, deg f = 2g+1):

  * constant identity: theta[e(I0)](0) against
    (det C / 2^g pi^g)^{1/2} Delta(I0)^{1/4} Delta(J0)^{1/4}, an 8th root of
    unity ratio, over partitions I0 u J0 with |I0| = g+1, infinity in I0;
  * derivative identity: grad theta[e(I1)](0) against the same shape with
    2^{g+2}, Delta(I1)^{1/4} Delta(J1)^{1/4} and sum_l C_{ls} (-1)^{g-l}
    sigma_{g-l}(I1), ratio an 8th root independent of s;
  * the g x g matrix form tying the derivative rows to D Sigma C with
    det Sigma = Delta(I0).

Trigonal (w^3 = f, deg f = 3q-1, g = 3q-2):

  * constant identity with the closed-form constant
    alpha = (2 pi)^{-g/2} 3^{-g/8} (trig_alpha) and a 144th root;
  * derivative identities for the two divisor types (144th roots), using
    rows l <= 2q-1 resp. l >= 2q of C;
  * the matrix form with the two-block Sigma.

Every cover w^n = f (n >= 2, gcd(n, deg f) = 1): the n-th power theta
quotient (theta[u(P_k)] / theta)^n at -(sum_r u(Q_r) + K) over g generic
points Q_r, against prod_r (lambda_k - z(Q_r)) / f'(lambda_k)^((n-1)/2), a
root of unity of order lcm(4, 2n): 4 for quotient_hyp, 12 for quotient_trig.

The closed form of alpha is observed, not derived: every constant-kind
ratio divided by it has modulus 1 to 2e-12 at q = 1, 2, 3, and every
constant and derivative ratio is a root of unity whose order divides 144.
So the trigonal identities are absolute, as the hyperelliptic ones are with
(det C / (2 pi)^g)^{1/2}.

One Partition type serves both cover degrees: parts L_0..L_{n-1}, with
characteristic sum_j j sum_{k in L_j} u(P_k) + K.  Each verifier takes a
task's partitions and returns one report (alpha_ratio: one ratio) per
partition, in order: _table_entries validates and builds each characteristic
once, then reads every theta constant from the plan's table in one
PeriodData.theta_constants call.  Every derivative report, matrix-form rows
included, comes from one _deriv_rows batch: one _deriv_rhs (algebra.sigma_row
contracted with C by algebra.sigma_contract; only its constant depends on n)
and one verifier, _verify_deriv, its gradient bounded by GRAD_TOL.  A matrix
form reads its rows from that batch (_verify_matrix_form) and adds only its
structural check.

All fractional powers take principal branches; every ambiguity group divides
the asserted root order, so classifications are branch-robust.  Ratios are
always classified, never either side alone.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .algebra import (INF, IndexSet, RootOfUnityTag, c2j, classify_root_of_unity,
                      derivative_at_root, pair_delta, principal_power, sigma_contract,
                      sigma_row, vandermonde_delta)
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
TRIG_ROOT_ORDER = 144   # every order seen of a trigonal constant or derivative ratio divides it


# ----------------------------------------------------------------------------
# Partitions


def _check_covers(parts: Sequence[IndexSet], N: int):
    """Raise ValueError unless the parts are disjoint and cover {1..N, inf}."""
    members = [x for part in parts for x in part]
    if len(set(members)) != len(members):
        raise ValueError("partition parts overlap")
    if set(members) != set(range(1, N + 1)) | {INF}:
        raise ValueError(f"partition does not cover all branch symbols {{1..{N}, inf}}")


def _sizes(kind: str, N: int) -> tuple[int, ...]:
    """(|L_0|, .., |L_{n-1}|) of a kind's partitions of {1..N, inf}: (|J|, |I|)
    for the hyperelliptic kinds "m=0", "m=1", ... (N = 2g+1), and by kind for
    the trigonal ones (N = 3q-1)."""
    g, q = N // 2, (N + 1) // 3
    if kind.startswith("m="):
        return (g + 1 + 2 * int(kind[2:]), g + 1 - 2 * int(kind[2:]))
    return {"constant": (q, q, q), "deriv1": (q + 2, q - 1, q - 1),
            "deriv2": (q + 1, q + 1, q - 2)}[kind]


@dataclass(frozen=True)
class Partition:
    """A split of the branch symbols {1..N, inf} of w^n = f into parts
    L_0..L_{n-1}, with characteristic sum_j j sum_{k in L_j} u(P_k) + K:
    parts[j] holds the symbols that it counts j times.  Hyperelliptic
    partitions are (J, I), of kind "m=0", "m=1", ...; trigonal ones are
    (L0, L1, L2), of kind "constant", "deriv1" or "deriv2"."""

    kind: str
    parts: tuple[IndexSet, ...]

    def label(self) -> str:
        if len(self.parts) == 2:
            return f"{self.kind} I={self.parts[1].label()}"
        return " ".join([self.kind] + [f"L{j}={L.label()}" for j, L in enumerate(self.parts)])

    def validate(self, N: int):
        """Raise ValueError unless the parts split {1..N, inf} with the kind's
        sizes (and an m=0 partition has infinity in I)."""
        sizes, expect = tuple(map(len, self.parts)), _sizes(self.kind, N)
        if sizes != expect:
            raise ValueError(f"{self.kind} partition has sizes {sizes}, expected {expect}")
        if self.kind == "m=0" and INF not in self.parts[1]:
            raise ValueError("m=0 requires infinity in I")
        _check_covers(self.parts, N)


def _splits(pool: Sequence, sizes: Sequence[int]):
    """Every split of pool into parts of the given sizes, in order: each part
    a combination of what the earlier parts left."""
    if not sizes:
        yield ()
        return
    for head in combinations(pool, sizes[0]):
        rest = [x for x in pool if x not in head]
        for tail in _splits(rest, sizes[1:]):
            yield (head,) + tail


def enumerate_partitions_hyp(g: int, m: int) -> list[Partition]:
    """All (J, I) splits of {1..2g+1, inf} of index m, I chosen first; for
    m=0 infinity sits in I."""
    if m < 0 or m > (g + 1) // 2:
        raise ValueError("index of speciality out of range")
    kind = f"m={m}"
    finite = list(range(1, 2 * g + 2))
    J_size, I_size = _sizes(kind, 2 * g + 1)
    if m == 0:
        splits = ((I + (INF,), J) for I, J in _splits(finite, (I_size - 1, J_size)))
    else:
        splits = _splits(finite + [INF], (I_size, J_size))
    return [Partition(kind, (IndexSet.of(J), IndexSet.of(I))) for I, J in splits]


def enumerate_partitions_trig(q: int, kind: str, infinity_in: int = None) -> list[Partition]:
    """Partitions (L0, L1, L2) of {1..3q-1, inf} by kind, L0 then L1 chosen first.

    Default infinity placement follows the theorems: L2 for constant, L0 for
    deriv1, L1 for deriv2; pass infinity_in = 0/1/2 to override (the
    non-theorem placements feed the experimental relocation checks).
    """
    loc = {"constant": 2, "deriv1": 0, "deriv2": 1}[kind] if infinity_in is None else infinity_in
    sizes = list(_sizes(kind, 3 * q - 1))
    sizes[loc] -= 1                       # the finite members of each part
    if min(sizes) < 0:
        return []
    return [Partition(kind, tuple(IndexSet.of(part + ((INF,) if j == loc else ()))
                                  for j, part in enumerate(split)))
            for split in _splits(list(range(1, 3 * q)), sizes)]


def char_from_partition(p: Partition, periods: PeriodData) -> Characteristic:
    """Characteristic of sum_j j sum_{k in L_j} u(P_k) + K (entries in
    1/n), after validating p."""
    p.validate(periods.curve.num_branch)
    return periods.characteristic({k: j for j, L in enumerate(p.parts) for k in L.finite})


def char_from_partition_hyp(p: Partition, periods: PeriodData) -> Characteristic:
    """char_from_partition of a hyperelliptic partition, sum_{i in I} u(P_i)
    + K: integral by construction, and checked to be."""
    ch = char_from_partition(p, periods)
    if not ch.is_integral():
        raise ValueError(f"partition characteristic not integral: {ch.label()}")
    return ch


# the trigonal characteristic, in thirds, needs no check on top
char_from_partition_trig = char_from_partition


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
# Delta products and derivative identities, for every cover degree


# cover degree -> (power of each Delta(L_j), of each pair product Delta(L_j, L_{j+1}))
_DELTA_POWERS = {2: (0.25, None), 3: (0.5, 1.0 / 6.0)}


def _delta_product(p: Partition, lam) -> complex:
    """prod_j Delta(L_j)^a times, where the cover degree has a pair power b,
    the pair products Delta(L0, L1)^b Delta(L1, L2)^b Delta(L2, L0)^b:
    Delta(J)^{1/4} Delta(I)^{1/4} at n = 2, Delta(L_j)^{1/2} and pair
    products to the 1/6 at n = 3.  Principal branches, infinity skipped."""
    n = len(p.parts)
    own, pair = _DELTA_POWERS[n]
    factors = [principal_power(vandermonde_delta(part, lam), own) for part in p.parts]
    if pair:
        factors += [principal_power(pair_delta(p.parts[j], p.parts[(j + 1) % n], lam), pair)
                    for j in range(n)]
    return reduce(operator.mul, factors)


# derivative kind -> (first part s of its sigma set parts[s:], identity, root order)
_DERIVS = {"m=1": (1, "thomae_deriv_hyp", 8),
           "deriv1": (1, "thomae_deriv_trig_t1", TRIG_ROOT_ORDER),
           "deriv2": (2, "thomae_deriv_trig_t2", TRIG_ROOT_ORDER)}


def _deriv_rhs(curve: CurveSpec, periods: PeriodData, p: Partition) -> np.ndarray:
    """RHS vector of a derivative identity (s-indexed), principal branches:
    constant * Delta product * sum_l (-1)^(top-l) sigma_{top-l}(parts[s:])
    C[l, :] over the rows l of C whose differential is z^a dz / w^(n-s).
    Infinity in parts[s:] drops the degree by one (the relocation extension).

    The constant is (det C / 2^(g+2) pi^g)^{1/2} at n = 2 and alpha/3
    (det C)^{1/2} at n = 3.  For deriv2 that halves the printed 2 alpha/3:
    near the double point the cube root of the branch-value product is
    t * t', whose symmetrized beta-derivative at the diagonal is -1/2
    (phi_tt - phi_ts)/2 with phi_tt = 0 (sign absorbed into the 144th root);
    the plain ratio has modulus exactly 1/2 for every type-2 partition."""
    if p.kind not in _DERIVS:
        raise ValueError("derivative RHS needs a derivative-kind partition")
    s = _DERIVS[p.kind][0]
    n, g, lam = curve.n, curve.genus, curve.lam_map
    drop = int(any(INF in part for part in p.parts[s:]))
    rows = [l for l, d in enumerate(curve.differentials(), 1) if d.m == n - s]
    row = sigma_row([lam[k] for part in p.parts[s:] for k in part.finite], rows, drop)
    if n == 2:
        pref = (principal_power(np.linalg.det(periods.C) / (2.0 ** (g + 2) * np.pi ** g), 0.5)
                * _delta_product(p, lam))
    else:
        pref = (_delta_product(p, lam) * principal_power(np.linalg.det(periods.C), 0.5)
                * trig_alpha(g) / 3.0)
        # the trigonal sign (-1)^deg is (-1)^drop times the row's (-1)^(top-l)
        pref = -pref if drop else pref
    return sigma_contract(pref, row, periods.C)


def _verify_deriv(p: Partition, ch: Characteristic, grad: np.ndarray, rhs: np.ndarray,
                  tol: float) -> VerificationReport:
    """grad theta[ch](0) of a derivative-kind partition, summed at GRAD_TOL,
    against its RHS vector: one ratio per nonzero RHS entry, their mean
    classified as a root of unity of the kind's order; infinity in the sigma
    parts flags the report experimental."""
    s, identity, order = _DERIVS[p.kind]
    ratios, mean, spread, zeros_ok = _ratio_statistics(grad, rhs, tol)
    tag = classify_root_of_unity(mean, order, tol) if ratios else None
    passed = bool(ratios) and tag.ok and spread < tol and zeros_ok
    return VerificationReport(
        identity=identity, partition=p.label(), s_range=list(range(1, len(grad) + 1)),
        lhs=[complex(x) for x in grad], rhs_modulus=float(np.max(np.abs(rhs))),
        ratios=ratios, tag=tag, spread=spread, passed=passed,
        tolerances={"tol": tol, "grad_tol": GRAD_TOL},
        details={"char": ch.label(),
                 "experimental": any(INF in part for part in p.parts[s:]),
                 "zeros_ok": zeros_ok})


def _deriv_rows(curve: CurveSpec, periods: PeriodData, parts: Sequence[Partition],
                tol: float) -> list[tuple[VerificationReport, np.ndarray]]:
    """The derivative identity of each partition's kind: its report and the
    RHS it compared."""
    rhss = [_deriv_rhs(curve, periods, p) for p in parts]   # raises on other kinds
    char = char_from_partition_hyp if curve.n == 2 else char_from_partition_trig
    entries = _table_entries(periods, parts, char, True)
    return [(_verify_deriv(p, ch, theta.values, rhs, tol), rhs)
            for (p, ch, theta), rhs in zip(entries, rhss)]


def _deriv_reports(curve: CurveSpec, periods: PeriodData, parts: Sequence[Partition],
                   kind: str, tol: float) -> list[VerificationReport]:
    """The derivative reports of partitions that are all of one kind."""
    if any(p.kind != kind for p in parts):
        raise ValueError(f"{_DERIVS[kind][1]} needs {kind} partitions")
    return [rep for rep, _ in _deriv_rows(curve, periods, parts, tol)]


# ----------------------------------------------------------------------------
# Hyperelliptic identities


def verify_thomae_const_hyp(curve: CurveSpec, periods: PeriodData,
                            parts: Sequence[Partition],
                            tol: float = 1e-6) -> list[VerificationReport]:
    """The constant identity on each m=0 partition."""
    g = curve.genus
    if any(p.kind != "m=0" for p in parts):
        raise ValueError("constant identity needs an m=0 partition")
    lam = curve.lam_map
    pref = principal_power(np.linalg.det(periods.C) / (2.0 ** g * np.pi ** g), 0.5)
    reports = []
    for p, ch, theta in _table_entries(periods, parts, char_from_partition_hyp, False):
        lhs = theta.value
        rhs = pref * _delta_product(p, lam)
        ratio = lhs / rhs
        tag = classify_root_of_unity(ratio, 8, tol)
        reports.append(VerificationReport(
            identity="thomae_const_hyp", partition=p.label(), lhs=[lhs],
            rhs_modulus=abs(rhs), ratios=[ratio], tag=tag, passed=tag.ok,
            tolerances={"tol": tol, "theta_tol": THETA_TOL},
            details={"char": ch.label()}))
    return reports


def verify_thomae_deriv_hyp(curve: CurveSpec, periods: PeriodData,
                            parts: Sequence[Partition],
                            tol: float = 1e-6) -> list[VerificationReport]:
    return _deriv_reports(curve, periods, parts, "m=1", tol)


def _sample_nonspecial(periods: PeriodData, count: int, rng, ch: Characteristic):
    """Random surface points whose divisor argument -(sum u(Q_r) + K) keeps
    theta away from 0: (points, argument, theta there, theta[ch]
    there, resamples), both values from one theta_sums call."""
    ch0 = Characteristic.zero(periods.g)
    scale = periods.theta_scale()
    tries = 0
    while True:
        pts = _random_surface_points(periods, count, rng)
        arg = -(periods.abel_jacobi_divisor(pts) + periods.K)
        val, val_ch = theta_sums([ch0, ch], arg, periods.tau)
        if invariant_abs(val.value, arg, periods.tau) > 1e-4 * scale:
            return pts, arg, val.value, val_ch.value, tries
        tries += 1
        if tries >= SAMPLE_TRIES:
            raise PeriodError("could not sample a non-special divisor")


def _verify_quotient(curve: CurveSpec, periods: PeriodData, k: int, identity: str,
                     seed: int, samples: int, tol: float) -> VerificationReport:
    """(theta[u(P_k)] / theta)^n at -(sum u(Q_r) + K) over g random points
    Q_r against prod(lambda_k - z(Q_r)) / f'(lambda_k)^((n-1)/2), classified
    as a root of unity of order lcm(4, 2n)."""
    n, g = curve.n, curve.genus
    rng = np.random.default_rng(seed)
    ch_k = periods.characteristic({k: 1}, plus_K=False)
    lam_k = curve.lam(k)
    fp = derivative_at_root(curve.lambdas, k - 1)
    # f'(lambda_k)^((n-1)/2): a fractional power only for even n, so odd n
    # divides by a plain product
    fp = fp ** ((n - 1) // 2) * (principal_power(fp, 0.5) if n % 2 == 0 else 1)
    ratios = []
    resamples = 0
    for _ in range(samples):
        pts, arg, den, num, tries = _sample_nonspecial(periods, g, rng, ch_k)
        resamples += tries
        lhs = (num / den) ** n
        rhs = np.prod([lam_k - p.z for p in pts]) / fp
        ratios.append(lhs / rhs)
    mean = complex(np.mean(ratios))
    spread = float(np.max(np.abs(np.array(ratios) - mean)) / abs(mean))
    tag = classify_root_of_unity(mean, math.lcm(4, 2 * n), tol)
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
    return _verify_quotient(curve, periods, k, "quotient_hyp", seed, samples, tol)


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


def derived_partitions_hyp(I0: Partition) -> list[Partition]:
    """The m=1 partitions of the matrix form on I0: infinity and one finite
    member of I0 moved to J, for each of its g finite members in turn."""
    J, I = I0.parts
    symbols = list(I) + list(J)
    out = []
    for xk in I.finite:                         # g finite members, ascending
        I1 = I.without(INF, xk)
        out.append(Partition("m=1", (IndexSet.of([s for s in symbols if s not in I1]), I1)))
    return out


def verify_matrix_form_hyp(curve: CurveSpec, periods: PeriodData,
                           parts: Sequence[Partition],
                           tol: float = 1e-6) -> list[VerificationReport]:
    """Matrix form of the derivative identity on each I0, over its g
    single-element deletions, plus det Sigma = Delta(I0)."""
    g = curve.genus
    for I0 in parts:
        I0.validate(curve.num_branch)
    lam = curve.lam_map
    derived = [derived_partitions_hyp(I0) for I0 in parts]
    distinct = list(dict.fromkeys(p1 for d in derived for p1 in d))   # forms share rows
    rows = dict(zip(distinct, _deriv_rows(curve, periods, distinct, tol)))
    reports = []
    for I0, d in zip(parts, derived):
        sigma = np.array([list(sigma_row([lam[x] for x in p1.parts[1].finite],
                                         range(1, g + 1)).values())
                          for p1 in d], dtype=complex)
        delta_i0 = vandermonde_delta(I0.parts[1], lam)
        det_err = abs(complex(np.linalg.det(sigma)) - delta_i0) / abs(delta_i0)
        reports.append(_verify_matrix_form(
            "matrix_form_hyp", I0.label(), [rows[p1] for p1 in d], tol,
            ("det_sigma_rel_err", det_err), ("det_tol", DET_SIGMA_TOL)))
    return reports


# ----------------------------------------------------------------------------
# Trigonal identities


def trig_alpha(g: int) -> float:
    """The trigonal Thomae constant |alpha| = (2 pi)^(-g/2) 3^(-g/8);
    observed, not derived (see the module docstring)."""
    return (2.0 * np.pi) ** (-g / 2.0) * 3.0 ** (-g / 8.0)


@dataclass
class AlphaEstimate:
    modulus: float                  # median |alpha_ratio|
    phases: list[RootOfUnityTag]    # alpha_ratio / trig_alpha as 144th roots
    spread: float


def alpha_ratio(curve: CurveSpec, periods: PeriodData,
                parts: Sequence[Partition]) -> list[complex]:
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
        ratios.append(lhs / (det_root * _delta_product(p, lam)))
    return ratios


def estimate_alpha(curves: Sequence[tuple[CurveSpec, PeriodData]],
                   tol: float = 1e-6) -> AlphaEstimate:
    """alpha_ratio over all constant-kind partitions of all supplied curves,
    each classified against trig_alpha as a 144th root of unity."""
    moduli = []
    phases = []
    for curve, periods in curves:
        alpha = trig_alpha(curve.genus)
        parts = enumerate_partitions_trig(curve.q, "constant")
        for r in alpha_ratio(curve, periods, parts):
            phases.append(classify_root_of_unity(r / alpha, TRIG_ROOT_ORDER, tol))
            moduli.append(abs(r))
    med = float(np.median(moduli))
    spread = float((max(moduli) - min(moduli)) / med)
    return AlphaEstimate(modulus=med, phases=phases, spread=spread)


def verify_thomae_deriv_trig_t1(curve: CurveSpec, periods: PeriodData,
                                parts: Sequence[Partition],
                                tol: float = 1e-5) -> list[VerificationReport]:
    return _deriv_reports(curve, periods, parts, "deriv1", tol)


def verify_thomae_deriv_trig_t2(curve: CurveSpec, periods: PeriodData,
                                parts: Sequence[Partition],
                                tol: float = 1e-5) -> list[VerificationReport]:
    return _deriv_reports(curve, periods, parts, "deriv2", tol)


def verify_quotient_trig(curve: CurveSpec, periods: PeriodData, k: int,
                         seed: int = 0, samples: int = 3,
                         tol: float = 1e-6) -> VerificationReport:
    """Cubed theta quotient at generic arguments vs the branch-value product."""
    return _verify_quotient(curve, periods, k, "quotient_trig", seed, samples, tol)


def derived_partitions_for_matrix(p: Partition, q: int) -> list[Partition]:
    """The g partitions obtained from a constant-kind partition by the three
    single-branch-point degenerations (simple from L1, simple from L2,
    double from L2)."""
    if p.kind != "constant":
        raise ValueError("matrix form starts from a constant-kind partition")
    L0, L1, L2 = p.parts
    out = []
    for i in L1.finite:                            # rows 1..q
        out.append(Partition("deriv1", (L0.union(IndexSet.of([i, INF])), L1.without(i),
                                        L2.without(INF))))
    for i in L2.finite:                            # rows q+1..2q-1
        out.append(Partition("deriv2", (L0.union(IndexSet.of([INF])),
                                        L1.union(IndexSet.of([i])), L2.without(i, INF))))
    for i in L2.finite:                            # rows 2q..3q-2
        out.append(Partition("deriv2", (L0.union(IndexSet.of([i])),
                                        L1.union(IndexSet.of([INF])), L2.without(i, INF))))
    return out


def verify_matrix_form_trig(curve: CurveSpec, periods: PeriodData,
                            parts: Sequence[Partition],
                            tol: float = 1e-5) -> list[VerificationReport]:
    """Matrix identity Grad = (alpha/3) D Sigma C for the degenerations of
    each constant-kind partition, including the structural zero blocks of
    Sigma."""
    q = curve.q
    g = curve.genus
    derived = [derived_partitions_for_matrix(p, q) for p in parts]
    if any(len(d) != g for d in derived):
        raise ValueError("wrong number of derived partitions")
    distinct = list(dict.fromkeys(pk for d in derived for pk in d))   # forms share rows
    all_rows = dict(zip(distinct, _deriv_rows(curve, periods, distinct, tol)))
    # Sigma reconstructed from the gradients with the classified per-row
    # phases: its zero blocks must come out exactly.  sqrt(det C)
    # accompanies the row theorems; the compact matrix statement drops it
    # from display but it is part of the identity
    const = trig_alpha(g) * principal_power(np.linalg.det(periods.C), 0.5) / 3.0
    zero_mask = np.zeros((g, g), dtype=bool)
    zero_mask[:q, 2 * q - 1:] = True
    zero_mask[q:, : 2 * q - 1] = True
    reports = []
    for p, dk in zip(parts, derived):
        rows = [all_rows[pk] for pk in dk]
        rowfac = (np.array([_delta_product(pk, curve.lam_map) for pk in dk])
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
                      parts: Sequence[Partition]) -> list[VerificationReport]:
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
