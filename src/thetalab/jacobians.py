"""Derivatives of Jacobi-inversion coordinates with respect to theta arguments.

Two settings:

* generic hyperelliptic configuration: g points Q_r with distinct z-values,
  none a branch point; the matrix of derivatives d z(Q_r) / d zeta_s is
  A^{-1} C with A_{lr} = z(Q_r)^{l-1} / w(Q_r), and has a closed form through
  deleted elementary symmetric functions;

* trigonal branch-anchored configuration: 2q-1 distinct branch anchors with
  the first q-1 doubled; the symmetrized local coordinates are
  alpha_r = t_r + t_{r+2q-1} (r <= q-1), alpha_r = t_r (q <= r <= 2q-1), and
  beta_r = (t_r - t_{r+2q-1})^2 / 2, with t_r^3 = z - lambda.  The Jacobian
  splits into two Vandermonde-type blocks tied to the two families of
  differentials; the mixed blocks vanish identically.

Fractional powers of f'(lambda) use principal branches; the identities hold
with any fixed consistent choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import derivative_at_root, principal_power, sigma_contract, sigma_row
from .curves import CurveSpec
from .periods import PeriodData, SurfacePoint, branch_leg_integrals
from .quadrature import polyline_integrals, track_w


# ----------------------------------------------------------------------------
# Hyperelliptic: generic points


def aj_jacobian_hyper(curve: CurveSpec, periods: PeriodData,
                      points: Sequence[SurfacePoint]) -> np.ndarray:
    """d z(Q_r) / d zeta_s as A^{-1} C for g generic points."""
    g = curve.genus
    if len(points) != g:
        raise ValueError(f"need exactly g={g} points")
    zs = [p.z for p in points]
    for i in range(g):
        for j in range(i + 1, g):
            if abs(zs[i] - zs[j]) < 1e-12:
                raise ValueError("coincident z-values make the system singular")
    A = np.array([[p.z ** l / p.w for p in points] for l in range(g)], dtype=complex)
    return np.linalg.solve(A, periods.C)


def aj_jacobian_hyper_closed(curve: CurveSpec, periods: PeriodData,
                             points: Sequence[SurfacePoint]) -> np.ndarray:
    """Same matrix through the deleted-symmetric-function formula."""
    g = curve.genus
    zs = [p.z for p in points]
    out = np.zeros((g, g), dtype=complex)
    for r, p in enumerate(points):
        out[r] = sigma_contract(p.w / derivative_at_root(zs, r),
                                sigma_row(zs[:r] + zs[r + 1:], range(1, g + 1)), periods.C)
    return out


def jacobi_inversion_newton(curve: CurveSpec, periods: PeriodData,
                            points: Sequence[SurfacePoint], target: np.ndarray,
                            tol: float = 1e-12, max_iter: int = 12,
                            quad_order: int = 24):
    """Solve sum_r u(Q_r) = target by Newton steps starting from the given
    configuration, moving each point in z with tracked w."""
    g = curve.genus
    pts = [SurfacePoint(p.z, p.w) for p in points]
    diffs = curve.differentials()
    zeta = sum(periods.abel_jacobi_point(p) for p in pts)
    for _ in range(max_iter):
        res = zeta - np.asarray(target)
        if np.max(np.abs(res)) < tol:
            return pts, zeta
        A = np.array([[p.z ** l / p.w for p in pts] for l in range(g)], dtype=complex)
        step = np.linalg.solve(A, periods.C) @ (-res)
        for r, p in enumerate(pts):
            z_new = p.z + step[r]
            leg = polyline_integrals(curve, [p.z, z_new], diffs, quad_order,
                                     sing_start=False, sing_end=False,
                                     w_anchor=p.w, anchor_index=0)
            zeta = zeta + np.linalg.solve(periods.C, leg)
            pts[r] = SurfacePoint(z_new, track_w(curve, [p.z, z_new], p.w)[-1])
    raise RuntimeError("Jacobi inversion Newton did not converge")


# ----------------------------------------------------------------------------
# Trigonal: branch-anchored configuration


@dataclass(frozen=True)
class TrigConfiguration:
    """2q-1 distinct branch indices; the first q-1 anchors carry double
    points (coordinates alpha_r, beta_r), the rest single points."""

    anchors: tuple[int, ...]

    def doubled(self, q: int) -> tuple[int, ...]:
        return self.anchors[: q - 1]

    def validate(self, curve: CurveSpec):
        q = curve.q
        if len(self.anchors) != 2 * q - 1:
            raise ValueError(f"need 2q-1={2*q-1} anchors")
        if len(set(self.anchors)) != len(self.anchors):
            raise ValueError("anchors must be distinct branch indices")
        for a in self.anchors:
            if not 1 <= a <= curve.num_branch:
                raise ValueError(f"anchor {a} out of range")


def trig_forward_block_matrix(curve: CurveSpec, config: TrigConfiguration) -> np.ndarray:
    """M with M[l-1, c] = d y_l / d coordinate_c at the branch configuration,
    where y_l = sum_r integral of the l-th monomial differential.

    Block diagonal: rows l <= 2q-1 pair with the alpha coordinates through a
    Vandermonde scaled by 3 / f'(lambda)^{2/3}; rows l >= 2q pair with the
    beta coordinates through a Vandermonde scaled by (3/2) / f'(lambda)^{1/3}.
    """
    config.validate(curve)
    q = curve.q
    g = curve.genus
    M = np.zeros((g, g), dtype=complex)
    for r, a in enumerate(config.anchors):
        lam = curve.lam(a)
        fp = curve.f_prime_at_branch(a)
        c = 3.0 / principal_power(fp, 2.0 / 3.0)
        for l in range(1, 2 * q):
            M[l - 1, r] = c * lam ** (l - 1)
    for r, a in enumerate(config.doubled(q)):
        lam = curve.lam(a)
        fp = curve.f_prime_at_branch(a)
        c = 1.5 / principal_power(fp, 1.0 / 3.0)
        for l in range(2 * q, 3 * q - 1):
            M[l - 1, 2 * q - 1 + r] = c * lam ** (l - 2 * q)
    return M


def aj_jacobian_trig(curve: CurveSpec, periods: PeriodData,
                     config: TrigConfiguration) -> tuple[np.ndarray, np.ndarray]:
    """(d alpha_r / d zeta_s, d beta_r / d zeta_s) as blocks of M^{-1} C."""
    M = trig_forward_block_matrix(curve, config)
    full = np.linalg.solve(M, periods.C)
    q = curve.q
    return full[: 2 * q - 1, :], full[2 * q - 1:, :]


def aj_jacobian_trig_closed(curve: CurveSpec, periods: PeriodData,
                            config: TrigConfiguration) -> tuple[np.ndarray, np.ndarray]:
    """The same blocks through the closed-form symmetric-function expressions:
    row r is c f'(lambda_r)^e / (3 F'(lambda_r)) times the sigma row of the
    other anchors of its block, (c, e) = (1, 2/3) for alpha, (2, 1/3) for beta."""
    config.validate(curve)
    q = curve.q
    blocks = []
    for anchors, c, e, rows in ((config.anchors, 1.0, 2.0 / 3.0, range(1, 2 * q)),
                                (config.doubled(q), 2.0, 1.0 / 3.0, range(2 * q, 3 * q - 1))):
        zs = [curve.lam(a) for a in anchors]
        block = np.zeros((len(zs), curve.genus), dtype=complex)
        for r, a in enumerate(anchors):
            coeff = (c * principal_power(curve.f_prime_at_branch(a), e)
                     / (3.0 * derivative_at_root(zs, r)))
            block[r] = sigma_contract(coeff, sigma_row(zs[:r] + zs[r + 1:], rows), periods.C)
        blocks.append(block)
    return blocks[0], blocks[1]


def trig_point_on_local_branch(curve: CurveSpec, anchor: int, t: complex) -> SurfacePoint:
    """Surface point with z = lambda + t^3 on the sheet where w ~ t f'^{1/3}."""
    lam = curve.lam(anchor)
    fp = curve.f_prime_at_branch(anchor)
    z = lam + t ** 3
    target = t * principal_power(fp, 1.0 / 3.0)
    cands = curve.w_values(z)
    w = cands[int(np.argmin(np.abs(cands - target)))]
    return SurfacePoint(z, w)


def trig_forward_fd(curve: CurveSpec, config: TrigConfiguration,
                    h: float = 1e-3, order: int = 48) -> np.ndarray:
    """Finite-difference d y_l / d coordinate_c through the local coordinates,
    Richardson-extrapolated; the exact matrix is trig_forward_block_matrix."""

    def y_of_t(anchor: int, t: float) -> np.ndarray:
        if t == 0.0:
            return np.zeros(curve.genus, dtype=complex)
        pt = trig_point_on_local_branch(curve, anchor, t)
        return branch_leg_integrals(curve, anchor, pt, order)

    q = curve.q
    g = curve.genus

    def fd_matrix(step: float) -> np.ndarray:
        M = np.zeros((g, g), dtype=complex)
        for r, a in enumerate(config.anchors):
            dy = (y_of_t(a, step) - y_of_t(a, -step)) / (2.0 * step)
            M[:, r] = dy
        for r, a in enumerate(config.doubled(q)):
            # beta_r = (t - s)^2/2 with the pair at t = s = 0:
            # d y / d beta = (y_tt - y_ts)/2 and the mixed term vanishes
            # because y splits as a sum over the two points
            d2 = (y_of_t(a, step) - 2.0 * y_of_t(a, 0.0) + y_of_t(a, -step)) / step ** 2
            M[:, 2 * q - 1 + r] = d2 / 2.0
        return M

    m1 = fd_matrix(h)
    m2 = fd_matrix(h / 2.0)
    return (4.0 * m2 - m1) / 3.0


# ----------------------------------------------------------------------------
# Symmetric-coordinate derivative conversion


def sym_coord_derivatives(phi: Callable[[complex, complex], complex],
                          t: complex, s: complex,
                          h: float = 1e-4) -> tuple[complex, complex]:
    """(d phi/d alpha, d phi/d beta) for symmetric phi(t, s) = phi(s, t) with
    alpha = t + s and beta = (t - s)^2 / 2.

    Away from the diagonal the first derivatives suffice; on t = s the beta
    derivative is the limit (phi_tt - phi_ts) / 2, taken by second differences.
    """
    def dt(f, a, b):
        return (f(a + h, b) - f(a - h, b)) / (2.0 * h)

    def ds(f, a, b):
        return (f(a, b + h) - f(a, b - h)) / (2.0 * h)

    pt = dt(phi, t, s)
    ps = ds(phi, t, s)
    d_alpha = (pt + ps) / 2.0
    if abs(t - s) > 1e-8:
        d_beta = (pt - ps) / (2.0 * (t - s))
    else:
        ptt = (phi(t + h, s) - 2.0 * phi(t, s) + phi(t - h, s)) / h ** 2
        pts = (phi(t + h, s + h) - phi(t + h, s - h)
               - phi(t - h, s + h) + phi(t - h, s - h)) / (4.0 * h ** 2)
        d_beta = (ptt - pts) / 2.0
    return d_alpha, d_beta
