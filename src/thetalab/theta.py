"""Riemann theta functions with rational characteristics, certified truncation.

Conventions.  With e(x) = exp(2*pi*i*x), the characteristic theta function is

    theta[eps; delta](zeta, tau)
        = sum_{m in Z^g} e( (m+eps/2)^t (tau/2) (m+eps/2) + (m+eps/2)^t (zeta+delta/2) )

for tau in the Siegel upper half-space.  Identities implemented here:

    periodicity:  theta[eps;delta](zeta + tau n + l)
                      = e(-n^t tau n/2 - n^t zeta + (l^t eps - n^t delta)/2)
                      * theta[eps;delta](zeta)
                  (range reduction of the argument)
    char shift:   theta[eps+2n; delta+2l] = e(eps^t l / 2) theta[eps;delta]
                  (reduce_characteristic; the exponent is reduced mod 1 in
                  integers, so entries of any size give the exact phase)

The transchar shift and the parity of integral characteristics are checked
by the tests against these sums (tests/oracles.py), not used here.

Evaluation sums over the lattice points inside the ellipsoid
||U (m + xi)|| <= R, xi = eps/2 + Y^{-1} Im(zeta + delta/2), where U is upper
triangular with U^t U = pi * Im tau.  The radius R comes in closed form from
a Rankin bound: for 0 < s < 1 and every offset xi,

    sum_{||U(m+xi)|| > R} exp(-||U(m+xi)||^2)
        <= exp(-(1-s) R^2) sum_m exp(-s ||U(m+xi)||^2)
        <= exp(-(1-s) R^2) P(s),    P(s) = prod_i (1 + sqrt(pi/s) / U_ii).

Proof of the last step: only row 0 of U holds m_0, and a sum over k of
exp(-a (k+c)^2) is at most its largest term plus its integral, 1 + sqrt(pi/a);
summing out m_0, m_1, ... in turn gives one factor per diagonal entry.  A
gradient evaluation returns the value as well, summed once at the larger of
the value and gradient radii, so both bounds are below tol.

Every sum goes through one kernel, theta_sums: many characteristics at
many arguments.  Each argument is first range-reduced by integer lattice
shifts (tracking the periodicity prefactor) to keep exponents bounded; a
prefactor beyond the float range raises ThetaError.  The shift, the
amplitude of the terms and the modulus of the prefactor do not depend on
the characteristic, so every sum at one argument has one radius, and those
with one reduced eps share one centre; the centres of all the arguments go
through one enumeration per block, each at its own argument's radius (the
evaluation scheme of Deconinck, Heil, Bobenko, van Hoeij and Schmies, Math.
Comp. 73, 2004).  theta_eval, theta_grad and theta_norm_abs are its
one-characteristic, one-argument case.  Nothing is cached per matrix but
log P on a fixed grid of s.  The points come from a breadth-first
Fincke-Pohst enumeration (Math. Comp. 44, 1985) of one or several centres,
one numpy pass per coordinate, with the point cap checked on each level's
candidates before they are allocated.

A characteristic is stored exactly, as integers over one denominator in
lowest terms (Characteristic.units over Characteristic.den; entries in
(1/n)Z on a curve w^n = f), so that n-th-period bookkeeping never drifts and
equal entries give equal values with equal hashes.  This module is the only
one that reads its entries as Fractions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class ThetaError(Exception):
    pass


_RADIUS_CAP = 80.0
_POINT_CAP = 8_000_000
_SYMMETRY_TOL = 1e-8      # largest |tau - tau^t| entry a Riemann matrix may have
THETA_TOL = 1e-10         # truncation bound of every theta value
GRAD_TOL = 1e-9           # truncation bound of every theta constant's gradient
# the s of the Rankin bound (module docstring) that every radius is minimized over
_S_GRID = np.geomspace(1e-3, 0.49, 64)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# estimated lattice points of one theta_sums enumeration; the centres
# of a block share its arrays, so this bounds what a block holds
_BLOCK_POINTS = 8192


def _efun(x: complex) -> complex:
    """e(x) = exp(2 pi i x)."""
    return complex(np.exp(2j * np.pi * x))


# ----------------------------------------------------------------------------
# Characteristics


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of one characteristic entry."""
    if isinstance(x, (bool, np.bool_)):
        # a bool is an int to Python, but not a characteristic entry
        raise TypeError(f"characteristic entries must be rational, got {type(x)}")
    if isinstance(x, (int, np.integer)):
        return int(x), 1
    if isinstance(x, float):
        x = Fraction(x).limit_denominator(10 ** 6)
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"characteristic entries must be rational, got {type(x)}")


@dataclass(frozen=True)
class Characteristic:
    """Pair of rational g-vectors (eps, delta) encoding tau*eps/2 + delta/2,
    stored as integers over one denominator in lowest terms: units holds
    den * eps, then den * delta (any 2g integers, made a tuple here)."""

    units: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        if self.den < 1 or len(self.units) % 2:
            raise ValueError("a characteristic needs 2g units and a positive denominator")
        d = math.gcd(self.den, *self.units)
        object.__setattr__(self, "units", tuple(int(x) // d for x in self.units))
        object.__setattr__(self, "den", int(self.den) // d)

    @classmethod
    def of(cls, eps: Iterable, delta: Iterable) -> "Characteristic":
        e = [_ratio(x) for x in eps]
        d = [_ratio(x) for x in delta]
        if len(e) != len(d):
            raise ValueError("eps and delta must have equal length")
        den = math.lcm(*(q for _, q in e + d))
        return cls(tuple(p * (den // q) for p, q in e + d), den)

    @classmethod
    def zero(cls, g: int) -> "Characteristic":
        return cls((0,) * (2 * g))

    @property
    def g(self) -> int:
        return len(self.units) // 2

    @property
    def eps(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.units[:self.g])

    @property
    def delta(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.units[self.g:])

    def is_integral(self) -> bool:
        return self.den == 1

    def eps_float(self) -> np.ndarray:
        return np.array([x / self.den for x in self.units[:self.g]])

    def delta_float(self) -> np.ndarray:
        return np.array([x / self.den for x in self.units[self.g:]])

    def label(self) -> str:
        def fmt(v):
            return ",".join(str(x) for x in v)
        return f"[{fmt(self.eps)}; {fmt(self.delta)}]"


def reduce_characteristic(char: Characteristic) -> tuple[Characteristic, complex]:
    """Reduce entries into [0, 2); theta(original) = phase * theta(reduced).

    With delta = delta' + 2l the char shift gives the phase e(eps'^t l / 2),
    eps' the reduced eps; its exponent is reduced mod 1 in integers before it
    becomes a float, so entries of any size give the exact phase.
    """
    two = 2 * char.den
    g = char.g
    red = [x % two for x in char.units]
    expo = sum(e * (x // two) for e, x in zip(red[:g], char.units[g:]))
    return Characteristic(tuple(red), char.den), _efun((expo % two) / two)


# ----------------------------------------------------------------------------
# Riemann matrices and lattice enumeration


class RiemannMatrix:
    """g x g symmetric complex matrix with positive definite imaginary part."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("tau must be a square matrix")
        asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
        if asym > _SYMMETRY_TOL:
            raise ValueError(f"tau asymmetry {asym:.3e} exceeds {_SYMMETRY_TOL:.1e}")
        y = np.imag(m)
        y = (y + y.T) / 2.0
        eigs = np.linalg.eigvalsh(y)
        if eigs[0] <= 0:
            raise ValueError(f"Im tau is not positive definite (min eig {eigs[0]:.3e})")
        self.matrix = (m + m.T) / 2.0
        self.g = m.shape[0]
        self.Y = y
        self.Yinv = np.linalg.inv(y)
        # upper-triangular U with U^t U = pi * Y
        self.U = np.linalg.cholesky(np.pi * y).T
        self.Uinv_norm = float(np.linalg.norm(np.linalg.inv(self.U), 2))
        # log P(s) of the Rankin bound on _S_GRID
        self.log_p = np.log1p(np.sqrt(np.pi / _S_GRID)[:, None] / np.diag(self.U)).sum(axis=1)

    def lattice_points(self, centers: np.ndarray, radii) -> np.ndarray:
        """Rows (m_0, ..., m_{g-1}, j): every integer m with
        ||U (m + centers[j])|| <= radii[j], for each row j of centers (or for
        one centre given as a g-vector, j = 0), grouped by j in ascending
        order; one radius serves every centre; nothing is kept."""
        return _enumerate_ellipsoid(self.U, np.reshape(centers, (-1, self.g)), radii)


def _enumerate_ellipsoid(U: np.ndarray, centers: np.ndarray, radii) -> np.ndarray:
    """Rows (m_0, ..., m_{g-1}, j): every integer m with
    ||U (m + centers[j])|| <= radii[j] for some row j (one radius may serve
    every centre), and that j, U upper triangular.

    Fincke-Pohst enumeration, breadth-first: one array pass per coordinate,
    from m_{g-1} down to m_0, over the ellipsoids of all centres at once.  A
    frontier node holds its chosen coordinates and its centre's j, the partial
    linear form (the rows still needed) and the remaining squared norm; its
    children are the k in [lo, hi] with budget - (u (k + off))^2 >= -1e-12,
    and each level's rows are a fresh array, k first, filled in place from
    the parents' rows.  Children are expanded in parent order with k
    ascending, so the rows come out grouped by centre in ascending order,
    each group in lexicographic order on (m_{g-1}, ..., m_0) and computed
    with the same arithmetic as for its centre at its radius alone.
    ThetaError is raised as soon as any level has more than _POINT_CAP
    candidates, before they are allocated; with an uneven diagonal of U an
    intermediate level can hold several times as many candidates as there
    are points.
    """
    g = U.shape[0]
    # columns m_{level+1} .. m_{g-1} and the owner j
    chosen = np.arange(len(centers))[:, None]
    partial = np.zeros((len(centers), g))
    radii = np.asarray(radii, dtype=float)
    budget = np.empty(len(centers))
    budget[:] = radii * radii
    for level in range(g - 1, -1, -1):
        u = U[level, level]
        center = centers[chosen[:, -1], level]
        off = center + partial[:, level] / u
        half = np.sqrt(budget) / abs(u)
        lo = np.ceil(-off - half - 1e-12).astype(np.int64)
        hi = np.floor(-off + half + 1e-12).astype(np.int64)
        counts = np.maximum(hi - lo + 1, 0)
        total = int(counts.sum())
        if total > _POINT_CAP:
            raise ThetaError("lattice enumeration exceeded point cap")
        parent = np.repeat(np.arange(counts.size), counts)
        k = np.arange(total) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        t = u * (k + off[parent])
        rem = budget[parent] - t * t
        keep = rem >= -1e-12
        parent, k = parent[keep], k[keep]
        rows = np.empty((len(k), chosen.shape[1] + 1), dtype=chosen.dtype)
        rows[:, 0] = k
        chosen.take(parent, axis=0, out=rows[:, 1:])
        chosen = rows
        if level:
            partial = partial[parent, :level] + U[:level, level] * (k + center[parent])[:, None]
            budget = np.maximum(rem[keep], 0.0)
    return chosen


# ----------------------------------------------------------------------------
# Truncation radius


def _radius(tau: RiemannMatrix, tol: float, weight: float,
            grad: tuple[float, float] | None = None) -> tuple[float, float]:
    """(R, bound): a radius R and the bound <= tol it certifies on the tail

        sum_{||v|| > R} weight * f(||v||) * exp(-||v||^2),   v = U (m + xi),

    uniformly in xi, with f = 1, or f(r) = A r + B for grad = (A, B).  By the
    Rankin bound of the module docstring the tail is at most
    weight * exp(-(1-s) R^2) P(s); with the gradient weight,
    r exp(-s r^2) <= (2 e s)^(-1/2) leaves
    weight * (A (2 e s)^(-1/2) + B) exp(-(1-2s) R^2) P(s).  R is the least
    over _S_GRID of the closed-form solution for the bound at tol e^(-1e-9),
    a margin far above the rounding of the exponent, so the bound at R is
    below tol in floating point too.
    """
    if grad is None:
        w, k = np.full(_S_GRID.shape, weight), 1.0
    else:
        w, k = weight * (grad[0] / np.sqrt(2 * math.e * _S_GRID) + grad[1]), 2.0
    expo = 1.0 - k * _S_GRID
    r2 = (tau.log_p + np.log(w) - math.log(tol) + 1e-9) / expo
    i = int(np.argmin(r2))
    R = math.sqrt(max(float(r2[i]), 0.0))
    if not R <= _RADIUS_CAP:
        raise ThetaError(f"truncation radius exceeds cap {_RADIUS_CAP} for tol {tol}")
    return R, float(w[i] * math.exp(tau.log_p[i] - expo[i] * R * R))


def truncation_radius(tau: RiemannMatrix, tol: float) -> float:
    """Radius R such that the omitted tail of the theta series beyond
    ||U(m + offset)|| > R is below tol for any offset, at unit amplitude:
    an evaluation whose reduced argument has Y^{-1} Im zeta' = c multiplies
    every term by exp(pi c^t Y c) and so needs a larger R, and a gradient
    sums at a larger R still (ThetaGradient.radius)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _radius(tau, tol, 1.0)[0]


# ----------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class ThetaValue:
    value: complex
    truncation_bound: float


@dataclass(frozen=True)
class ThetaGradient:
    """The gradient and the value summed over the same lattice points, those
    with ||U (m + xi)|| <= radius."""
    values: np.ndarray
    truncation_bound: float
    value: complex
    value_bound: float
    radius: float


def _range_reduce(zeta: np.ndarray, tau: RiemannMatrix):
    """Shift zeta by lattice vectors: (zeta', n0, l0, expo) with
    zeta = zeta' + tau n0 + l0 and, for every characteristic,

        theta[eps;delta](zeta) = e(expo + (l0.eps - n0.delta)/2) theta[eps;delta](zeta').

    A shift of 2**53 or more, no longer an exact integer, raises, and so
    does a prefactor beyond the float range, before exp overflows."""
    n0 = np.round(tau.Yinv @ np.imag(zeta))
    l0 = np.round(np.real(zeta) - np.real(tau.matrix) @ n0)
    if not (np.abs(np.concatenate([n0, l0])) < 2.0 ** 53).all():
        raise ThetaError(f"argument {zeta} needs a lattice shift of 2**53 or more")
    n0, l0 = n0.astype(np.int64), l0.astype(np.int64)
    zr = zeta - tau.matrix @ n0 - l0
    expo = -n0 @ tau.matrix @ n0 / 2.0 - n0 @ zr
    log_pref = -2.0 * np.pi * expo.imag
    if log_pref > _LOG_FLOAT_MAX:
        raise ThetaError(f"theta at argument {zeta} is beyond the float range: "
                         f"its lattice prefactor is exp({log_pref:.6g})")
    return zr, n0, l0, expo


def theta_sums(chars: Sequence[Characteristic], zeta, tau: RiemannMatrix,
               tol: float = THETA_TOL, grad: bool = False) -> list:
    """theta[char](zeta, tau) of each characteristic at each argument: for
    one argument (a g-vector) a list with a ThetaValue per characteristic,
    or with grad a ThetaGradient each, and for many (the rows of an A x g
    array) one such list per argument; every bound is below tol.

    At each argument the range reduction, the amplitude of the terms and
    the modulus exp(-2 pi Im expo) of the prefactors do not depend on the
    characteristic, so one set-up, and so one radius R, serves every sum
    there.  Each sum keeps its reduction phase, its prefactor
    e(expo + (l0.eps - n0.delta)/2) and its bounds |prefactor| * tail.  At
    one argument those whose reduced eps agree share the centre
    eps/2 + Y^-1 Im zeta', its points and their quadratic form.  The centres
    of every argument, in turn, go in blocks of an estimated _BLOCK_POINTS
    points or fewer (V_g R^g / prod diag U per centre, V_g the volume of the
    unit g-ball; a larger centre is a block alone); each block is one
    tau.lattice_points call, every centre at its own argument's radius,
    summed before the next block is enumerated.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    many = np.ndim(zeta) == 2
    zetas = np.asarray(zeta, dtype=complex).reshape(-1 if many else 1, tau.g)
    args = [_argument_setup(z, tau, tol, grad) for z in zetas]
    # each class is keyed by its reduced eps in lowest terms: (units, den)
    classes: dict[tuple[tuple[int, ...], int], list] = {}
    for i, ch in enumerate(chars):
        red, phase = reduce_characteristic(ch)
        units = red.units[:tau.g]
        d = math.gcd(red.den, *units)
        key = (tuple(x // d for x in units), red.den // d)
        classes.setdefault(key, []).append((i, red.delta_float(), phase))
    eps = np.array([[x / den for x in units] for units, den in classes]).reshape(-1, tau.g)
    half = eps / 2.0
    members = list(classes.values())
    ball = math.pi ** (tau.g / 2) / math.gamma(tau.g / 2 + 1)
    volume = ball / math.prod(tau.U.diagonal().tolist())
    out = [[None] * len(chars) for _ in args]

    def sum_block(block):
        # one multi-centre enumeration; its arrays go when this returns,
        # before the next block is enumerated
        rows = tau.lattice_points(np.array([half[j] + args[a].c for a, j in block]),
                                  [args[a].R for a, _ in block])
        ends = rows[:, -1].searchsorted(np.arange(1, len(block) + 1)).tolist()
        # each centre's rows become its n = m + eps/2 in place, so that one
        # array of points is held while the block is summed
        points = rows[:, :-1].astype(float)
        del rows
        lo = 0
        for (a, j), hi in zip(block, ends):
            zr, n0, l0, expo, _, R, tail, tail_grad = args[a]
            n = points[lo:hi]
            n += half[j]
            lo = hi
            quad = np.einsum("ij,ij->i", n @ tau.matrix, n)   # n^t tau n, shared by the class
            l0_eps = l0 @ eps[j]
            for i, delta, phase in members[j]:
                # exponent: i*pi n^t tau n + 2*pi*i n^t (zr + delta/2)
                terms = np.exp(1j * np.pi * quad + 2j * np.pi * (n @ (zr + delta / 2.0)))
                val_red = terms.sum()
                pref = _efun(expo + (l0_eps - n0 @ delta) / 2.0)
                value = complex(phase * pref * val_red)
                bound = float(abs(pref) * tail)
                if not grad:
                    out[a][i] = ThetaValue(value, bound)
                    continue
                grad_red = 2j * np.pi * (n.T @ terms)
                values = phase * pref * (grad_red - 2j * np.pi * n0 * val_red)
                out[a][i] = ThetaGradient(np.asarray(values, dtype=complex),
                                          float(abs(pref) * tail_grad), value, bound, R)

    block, estimate = [], 0.0
    for a, setup in enumerate(args):
        per_centre = volume * setup.R ** tau.g
        for j in range(len(members)):
            if block and estimate + per_centre > _BLOCK_POINTS:
                sum_block(block)
                block, estimate = [], 0.0
            block.append((a, j))
            estimate += per_centre
    if block:
        sum_block(block)
    return out if many else out[0]


class _Argument(NamedTuple):
    """theta_sums' set-up at one argument: its range reduction
    (_range_reduce), the offset c = Y^-1 Im zr of its centres, its radius
    and the tail bounds there (tail_grad None without grad)."""
    zr: np.ndarray
    n0: np.ndarray
    l0: np.ndarray
    expo: complex
    c: np.ndarray
    R: float
    tail: float
    tail_grad: float | None


def _argument_setup(zeta: np.ndarray, tau: RiemannMatrix, tol: float,
                    grad: bool) -> _Argument:
    zr, n0, l0, expo = _range_reduce(zeta, tau)
    tol_red = tol / max(1.0, math.exp(-2.0 * np.pi * expo.imag))
    c = tau.Yinv @ np.imag(zr)
    amp = math.exp(np.pi * c @ tau.Y @ c)
    # each term is amp * exp(-||v||^2), v = U(m + xi); the gradient weighs it
    # by 2 pi |n - n0| <= 2 pi (||U^{-1}|| ||v|| + |c| + |n0|), as n = U^{-1} v - c.
    # A gradient sums at the larger radius, so both of its bounds hold.
    R, tail = _radius(tau, tol_red, amp)
    tail_grad = None
    if grad:
        R_grad, tail_grad = _radius(tau, tol_red, 2 * np.pi * amp,
                                    (tau.Uinv_norm,
                                     float(np.linalg.norm(c)) + float(np.linalg.norm(n0))))
        R = max(R, R_grad)
    return _Argument(zr, n0, l0, expo, c, R, tail, tail_grad)


def theta_eval(char: Characteristic, zeta, tau: RiemannMatrix,
               tol: float = THETA_TOL) -> ThetaValue:
    """theta[char](zeta, tau) with omitted-tail bound below tol."""
    return theta_sums([char], zeta, tau, tol)[0]


def theta_grad(char: Characteristic, zeta, tau: RiemannMatrix,
               tol: float = THETA_TOL) -> ThetaGradient:
    """Componentwise d/d zeta_s of theta[char] at zeta, term-differentiated,
    and theta[char](zeta) itself, from one lattice sum; both bounds are below
    tol."""
    return theta_sums([char], zeta, tau, tol, grad=True)[0]


def theta_norm_abs(char: Characteristic, zeta, tau: RiemannMatrix,
                   tol: float = THETA_TOL) -> float:
    """Lattice-invariant magnitude |theta(zeta)| exp(-pi Im(zeta)^t Y^-1 Im(zeta)).

    Invariant under zeta -> zeta + tau n + l, so it is the meaningful O(1)
    quantity for vanishing tests at arguments far from the fundamental cell
    (raw |theta| grows like the inverse of that exponential).
    """
    zeta = np.asarray(zeta, dtype=complex).reshape(tau.g)
    return invariant_abs(theta_eval(char, zeta, tau, tol).value, zeta, tau)


def invariant_abs(value: complex, zeta: np.ndarray, tau: RiemannMatrix) -> float:
    """The lattice-invariant magnitude of theta_norm_abs for a theta value
    already evaluated at zeta."""
    y = np.imag(zeta)
    return float(abs(value) * math.exp(-np.pi * y @ tau.Yinv @ y))


def theta_halfint_table(zeta, tau: RiemannMatrix, tol: float = 1e-8) -> np.ndarray:
    """All 4^g values theta[eps;delta](zeta) for integral eps, delta in {0,1}^g.

    Output indexed [eps_code, delta_code] with bit j of the code giving the
    j-th coordinate.  One lattice enumeration and term evaluation per
    eps-class; the delta dependence factorizes as i^(eps.delta) times a
    parity-class Walsh transform, since exp(pi i (m+eps/2)^t delta) depends
    on m only through m mod 2.

    Combined with transchar this yields all half-period translates of theta
    at once: the lattice-invariant magnitude of theta(zeta + tau eps/2 +
    delta/2) equals |theta[eps;delta](zeta)| exp(-pi Im(zeta)^t Y^-1
    Im(zeta)), which is what vanishing searches over half-periods need.
    """
    g = tau.g
    zeta = np.asarray(zeta, dtype=complex).reshape(g)
    zr, n0, l0, expo = _range_reduce(zeta, tau)
    pref = _efun(expo)
    c = tau.Yinv @ np.imag(zr)
    amp = math.exp(np.pi * c @ tau.Y @ c)
    scale = max(1.0, abs(pref))
    tol_red = tol / scale

    R = _radius(tau, tol_red, amp)[0]

    two = 2 ** g
    bits = np.arange(g)
    codes = np.arange(two)
    dvecs = ((codes[:, None] >> bits) & 1)            # delta code -> 0/1 vector
    # walsh[d, p] = (-1)^{popcount(d & p)}
    walsh = 1.0 - 2.0 * (((((codes[:, None] & codes[None, :])[..., None] >> bits) & 1)
                          .sum(-1)) % 2)
    out = np.zeros((two, two), dtype=complex)
    for ecode in range(two):
        evec = (ecode >> bits) & 1
        a = evec / 2.0
        pts = tau.lattice_points(a + c, R)[:, :-1]
        n = pts + a
        tn = n @ tau.matrix
        quad = np.einsum("ij,ij->i", tn, n)
        lin = n @ zr
        terms = np.exp(1j * np.pi * quad + 2j * np.pi * lin)
        pcodes = (pts % 2) @ (1 << bits)
        P = (np.bincount(pcodes, weights=terms.real, minlength=two)
             + 1j * np.bincount(pcodes, weights=terms.imag, minlength=two))
        theta_red = walsh @ P                     # indexed by delta code
        dphase = np.exp(2j * np.pi * (dvecs @ evec) / 4.0)       # i^{eps.delta}
        row_pref = np.exp(2j * np.pi * ((l0 @ evec) - dvecs @ n0) / 2.0)
        out[ecode] = pref * row_pref * dphase * theta_red
    return out
