"""Period matrices, Abel-Jacobi maps and Riemann constants.

Conventions match the theta module: C_{lj} is the a_j-period of the l-th
monomial differential (so C is the transition matrix from the dual basis v_s,
normalized by a-periods, to the monomial basis), tau_{sj} is the b_j-period
of v_s, and the Jacobian lattice is Z^g + tau Z^g.  The Abel-Jacobi base
point is the single point over infinity.

The branch images follow from Abel's theorem: div(z - lambda_k) = n P_k -
n P_inf and div(w) = sum_k P_k - N P_inf, so n u(P_k) and sum_k u(P_k) are
lattice vectors, and as gcd(n, N) = 1 the chain-edge sums d_k fix
u(P_k) = d_k - (N^-1 mod n) sum_j d_j.  Each is snapped once to an exact
characteristic (branch_char) with entries in (1/n)Z, and with K's integer
entries PeriodData.characteristic sums every characteristic in units of 1/n.

The Riemann constant K for that base point is the theta characteristic of
the spin bundle O((g-1) P_inf), whose square is the divisor (2g-2) P_inf of
dz/w^(n-1).  Its characteristic is [q(a_1..a_g); q(b_1..b_g)] for D.
Johnson's quadratic form q of that spin structure on H_1(X, Z/2), which the
intersection form of the dumbbell cycles fixes (homology.spin_form); no
half-period is searched.  One Riemann vanishing test on K_CHECK_DIVISORS
seeded generic divisors checks the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .curves import CurveSpec, Differential
from .homology import (Chain, CyclePolyline, build_chain, build_cycles,
                       intersection_matrix, spin_form, symplectic_transform)
from .quadrature import path_integrals, polyline_legs, refine_path_for_quadrature
from .theta import (_SYMMETRY_TOL, GRAD_TOL, THETA_TOL, Characteristic, RiemannMatrix,
                    invariant_abs, theta_sums)


class PeriodError(RuntimeError):
    pass


SNAP_TOL = 1e-7          # largest coordinate change a snap may make
QUAD_ORDER = 128         # Gauss-Legendre order of every period and Abel-Jacobi leg
QUAD_DRIFT_TARGET = 1e-9  # largest relative period change from order QUAD_ORDER // 2
DIRECT_NODES = 40        # Gauss-Legendre nodes per refined leg, a-period re-check
DIRECT_REL_TOL = 1e-10   # agreement the re-check asks of the a_1-periods
K_CHECK_DIVISORS = 3     # seeded generic divisors the Riemann-constant check tests
K_CHECK_SEED = 20240915  # seed of those divisors
K_VANISHING_CUT = 1e-7   # the K check fails at theta(u(D) + K) / theta_scale >= this
THETA_SCALE_SEED = 1234  # seeded arguments of PeriodData.theta_scale
THETA_SCALE_SAMPLES = 12


@dataclass
class SurfacePoint:
    z: complex
    w: complex


@dataclass
class PeriodData:
    curve: CurveSpec
    chain: Chain
    C: np.ndarray                  # g x g, rows = differentials, cols = a-cycles
    Braw: np.ndarray               # g x g, rows = differentials, cols = b-cycles
    tau: RiemannMatrix
    branch_char: dict[int, Characteristic]   # u(P_k), exact
    aj_branch: dict[int, np.ndarray]         # char_to_vector(branch_char[k])
    K: np.ndarray
    K_char: Characteristic
    diagnostics: dict = field(default_factory=dict)
    _theta_scale: float | None = field(default=None, init=False, repr=False)
    _units: dict | None = field(default=None, init=False, repr=False)  # see characteristic
    _entries: tuple = field(init=False, repr=False)     # i/n for i < 2n, see _char_of_units
    _theta_table: dict = field(default_factory=dict, init=False, repr=False)  # see theta_constants

    def __post_init__(self):
        self._entries = tuple(Fraction(i, self.curve.n) for i in range(2 * self.curve.n))

    # -- lattice helpers --------------------------------------------------

    @property
    def g(self) -> int:
        return self.curve.genus

    def lattice_coords(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Real (eps, delta) with v = tau eps/2 + delta/2 exactly."""
        v = np.asarray(v, dtype=complex).reshape(self.g)
        eps = 2.0 * self.tau.Yinv @ np.imag(v)
        delta = 2.0 * (np.real(v) - np.real(self.tau.matrix) @ (eps / 2.0))
        return eps, delta

    def lattice_distance(self, v: np.ndarray) -> float:
        """Distance (sup norm) from v to the nearest lattice vector."""
        eps, delta = self.lattice_coords(v)
        de = eps / 2.0 - np.round(eps / 2.0)
        dd = delta / 2.0 - np.round(delta / 2.0)
        resid = self.tau.matrix @ de + dd
        return float(np.max(np.abs(resid))) if self.g else 0.0

    def lattice_reduce(self, v: np.ndarray) -> tuple[Characteristic, float]:
        """Characteristic of v modulo the lattice, its coordinates rounded to
        the nearest multiples of 1/n, and the residual (max deviation before
        reduction); a residual above SNAP_TOL raises."""
        n = self.curve.n
        x = np.concatenate(self.lattice_coords(v)) * n
        residual = float(np.max(np.abs(x - np.round(x)), initial=0.0)) / n
        if residual > SNAP_TOL:
            raise PeriodError(
                f"characteristic snap residual {residual:.3e} exceeds {SNAP_TOL:.1e}")
        return self._char_of_units(np.round(x).astype(np.int64)), residual

    def characteristic(self, counts: Mapping[int, int],
                       plus_K: bool = True) -> Characteristic:
        """Characteristic of sum_k counts[k] u(P_k), plus K unless plus_K is
        False, summed exactly in units of 1/n; the units of branch_char and
        K_char are read on the first call."""
        if self._units is None:
            self._units = {k: np.array([int(x * self.curve.n) for x in ch.eps + ch.delta])
                           for k, ch in dict(self.branch_char, K=self.K_char).items()}
        total = self._units["K"] * int(plus_K)
        for k, c in counts.items():
            total = total + c * self._units[k]
        return self._char_of_units(total)

    def _char_of_units(self, units: np.ndarray) -> Characteristic:
        """Entries units / n mod 2, eps first."""
        entries = [self._entries[x] for x in (units % len(self._entries)).tolist()]
        return Characteristic(tuple(entries[:self.g]), tuple(entries[self.g:]))

    def char_to_vector(self, char: Characteristic) -> np.ndarray:
        return self.tau.matrix @ (char.eps_float() / 2.0) + char.delta_float() / 2.0

    # -- Abel-Jacobi ------------------------------------------------------

    def _point_images(self, points: Sequence[SurfacePoint]) -> list[np.ndarray]:
        """u_{P_inf}(point) for generic surface points (z, w), at QUAD_ORDER:
        u(P_k) plus the integral from the nearest branch point lambda_k, so no
        other branch point lies on the leg (it would be nearer); the legs of
        every point in one branch_leg_integrals call."""
        lams = np.asarray(self.curve.lambdas)
        ks = [1 + int(np.argmin(np.abs(lams - p.z))) for p in points]
        legs = branch_leg_integrals(self.curve, ks, points, QUAD_ORDER)
        return [self.aj_branch[k] + np.linalg.solve(self.C, leg) for k, leg in zip(ks, legs)]

    def abel_jacobi_point(self, point: SurfacePoint) -> np.ndarray:
        """u_{P_inf}(point) for one generic surface point (_point_images)."""
        return self._point_images([point])[0]

    def abel_jacobi_divisors(self, groups: Sequence[Sequence[SurfacePoint]]
                             ) -> list[np.ndarray]:
        """For each group of points, the sum of their images in the cell of
        to_cell, so that it does not depend on the routes the images were
        integrated along; the images of every group from one
        _point_images call."""
        images = iter(self._point_images([p for group in groups for p in group]))
        return [self.to_cell(sum((next(images) for _ in group),
                                 np.zeros(self.g, dtype=complex))) for group in groups]

    def abel_jacobi_divisor(self, points: Sequence[SurfacePoint]) -> np.ndarray:
        """abel_jacobi_divisors of one group."""
        return self.abel_jacobi_divisors([points])[0]

    def to_cell(self, v: np.ndarray) -> np.ndarray:
        """v moved by a lattice vector into the cell |eps/2|, |delta/2| <= 1/2."""
        eps, delta = self.lattice_coords(v)
        return v - (self.tau.matrix @ np.round(eps / 2.0) + np.round(delta / 2.0))

    def theta_constants(self, chars: Sequence[Characteristic], grad: bool) -> list:
        """theta[char](0) at THETA_TOL, or with grad its gradient and value at
        GRAD_TOL, for each char from the plan's one theta table: an entry per
        (char, grad), the missing ones summed together by one theta_sums call."""
        table = self._theta_table
        missing = list(dict.fromkeys(ch for ch in chars if (ch, grad) not in table))
        if missing:
            zero = np.zeros(self.g, dtype=complex)
            for ch, res in zip(missing, theta_sums(missing, zero, self.tau,
                                                   GRAD_TOL if grad else THETA_TOL, grad)):
                table[ch, grad] = res
        return [table[ch, grad] for ch in chars]

    def theta_scale(self) -> float:
        """max theta magnitude over seeded random arguments X + tau X'.

        Uses the lattice-invariant magnitude (theta_norm_abs); vanishing
        thresholds elsewhere compare against this scale.  Computed once, by
        one theta_sums call over all the arguments."""
        if self._theta_scale is None:
            rng = np.random.default_rng(THETA_SCALE_SEED)
            zetas = []
            for _ in range(THETA_SCALE_SAMPLES):
                x = rng.random(self.g)
                xp = rng.random(self.g)
                zetas.append(x + self.tau.matrix @ xp)
            self._theta_scale = _max_invariant_abs(zetas, self.tau)
        return self._theta_scale


# ----------------------------------------------------------------------------
# Construction


def branch_leg_integrals(curve: CurveSpec, ks: Sequence[int],
                         points: Sequence[SurfacePoint], order: int) -> np.ndarray:
    """Integrals of the monomial basis from the branch point lambda_{ks[i]}
    to points[i] along the segment between them, split where another branch
    point comes near; singular at the start, anchored at the point's w.  One
    row per point; the legs of every point go through one leg_integrals
    call."""
    paths = []
    for k, point in zip(ks, points):
        others = [lam for i, lam in enumerate(curve.lambdas) if i + 1 != k]
        path = refine_path_for_quadrature([curve.lam(k), point.z], others)
        paths.append(polyline_legs(curve, path, sing_start=True, sing_end=False,
                                   w_anchor=point.w, anchor_index=len(path) - 1))
    return path_integrals(curve, paths, curve.differentials(), order)


def _edge_raw_integrals(curve: CurveSpec, chain: Chain,
                        diffs: Sequence[Differential], order: int) -> np.ndarray:
    """E[i, l] = integral of differential l along chain edge i on the branch
    anchored to the principal value at the edge's interior anchor vertex;
    the legs of every edge in one leg_integrals call."""
    paths = []
    for edge in chain.edges:
        path = edge.path
        anchor = len(path) // 2
        if anchor in (0, len(path) - 1):
            raise PeriodError("edge path lacks an interior anchor vertex")
        paths.append(polyline_legs(curve, path, sing_start=True, sing_end=True,
                                   w_anchor=curve.w_principal(path[anchor]),
                                   anchor_index=anchor))
    return path_integrals(curve, paths, diffs, order)


def _cycle_periods(curve: CurveSpec, cycles: list[CyclePolyline],
                   E: np.ndarray, diffs: Sequence[Differential]) -> np.ndarray:
    """Each cycle's periods from its edge's E row: the strands' sheets
    j_out, j_back give the factor rho^(-j_out m) - rho^(-j_back m)."""
    rho = np.exp(2j * np.pi / curve.n)
    Pi = np.zeros((len(cycles), len(diffs)), dtype=complex)
    for ci, c in enumerate(cycles):
        for li, d in enumerate(diffs):
            Pi[ci, li] = (rho ** (-c.j_out * d.m) - rho ** (-c.j_back * d.m)) * E[c.edge_index, li]
    return Pi


def _direct_cycle_integrals(curve: CurveSpec, cycles: Sequence[CyclePolyline],
                            diffs: Sequence[Differential]) -> np.ndarray:
    """Periods by Gauss-Legendre along each cycle polyline itself, anchored
    at its start's sheet value, one row per cycle from one leg_integrals
    call.  Used to re-verify the closed-form edge assembly.

    The polyline hugs the branch points at distance ~radius, and on a curve
    with one close pair its strand legs start within a radius of a branch
    point; refine_path_for_quadrature splits those legs, so DIRECT_NODES
    per leg reach rounding level there too."""
    paths = [polyline_legs(curve, refine_path_for_quadrature(cycle.points, curve.lambdas),
                           sing_start=False, sing_end=False, w_anchor=cycle.w[0],
                           anchor_index=0) for cycle in cycles]
    return path_integrals(curve, paths, diffs, DIRECT_NODES)


def build_periods(curve: CurveSpec) -> PeriodData:
    """Construct the full analytic package for a curve.

    Every leg takes QUAD_ORDER nodes, and the periods must move by less
    than QUAD_DRIFT_TARGET from order QUAD_ORDER // 2.  The branch images
    u(P_k) are the running sums of C^{-1} E over the chain edges, shifted
    by Abel's theorem (see the module docstring), checked to be n-torsion
    and snapped once to exact characteristics.  K comes from the
    intersection matrix M and the symplectic transform S.

    Raises PeriodError / HomologyError on invariant failures (these indicate
    ill-conditioned input or a construction bug, never a soft warning).
    """
    g = curve.genus
    diffs = curve.differentials()

    chain = build_chain(curve)
    cycles = build_cycles(curve, chain)
    M = intersection_matrix(curve, cycles)
    S = symplectic_transform(M)

    Pi_half = _cycle_periods(curve, cycles,
                             _edge_raw_integrals(curve, chain, diffs, QUAD_ORDER // 2), diffs)
    E = _edge_raw_integrals(curve, chain, diffs, QUAD_ORDER)
    Pi = _cycle_periods(curve, cycles, E, diffs)
    scaleP = float(np.max(np.abs(Pi)))
    drift = float(np.max(np.abs(Pi - Pi_half) / np.maximum(np.abs(Pi), 1e-3 * scaleP)))
    if drift >= QUAD_DRIFT_TARGET:
        raise PeriodError(
            f"quadrature did not converge: drift {drift:.3e} at order {QUAD_ORDER}")

    A = S[:g] @ Pi          # A[j, l] = a_j-period of differential l
    B = S[g:] @ Pi
    C = A.T
    tau_m = np.linalg.solve(C, B.T)
    asym = float(np.max(np.abs(tau_m - tau_m.T)))
    eigs = np.linalg.eigvalsh((np.imag(tau_m) + np.imag(tau_m).T) / 2.0)
    # the cycles' orientation (counterclockwise arc at the edge start, the
    # crossing sign of the strands) matches the complex structure, so by
    # Riemann's bilinear relations Im tau > 0
    if eigs[0] <= 0:
        raise PeriodError("Im tau is indefinite: homology reduction bug")
    if asym > _SYMMETRY_TOL:
        raise PeriodError(f"tau asymmetry {asym:.3e} exceeds {_SYMMETRY_TOL:.1e}")
    tau = RiemannMatrix(tau_m)

    # on every chain edge i: a -> b, u(P_b) - u(P_a) - C^{-1} E_i is a
    # lattice vector, and Abel's theorem fixes the common shift
    d = np.concatenate([np.zeros((1, g)), np.cumsum(np.linalg.solve(C, E.T).T, axis=0)])
    u = d - pow(curve.num_branch, -1, curve.n) * d.sum(axis=0)

    data = PeriodData(curve=curve, chain=chain, C=C, Braw=B.T, tau=tau,
                      branch_char={}, aj_branch={}, K=np.zeros(g, dtype=complex),
                      K_char=Characteristic.zero(g))

    # order-n property of branch images, then one snap each
    tau_scale = 1.0 + float(np.max(np.abs(tau_m)))
    max_dist = max(data.lattice_distance(curve.n * v) for v in u)
    if max_dist > 1e-8 * tau_scale:
        raise PeriodError(
            f"n * u(P_k) misses the lattice by {max_dist:.3e}: homology/AJ bug")
    for k, v in sorted(zip(chain.order, u)):
        data.branch_char[k] = data.lattice_reduce(v)[0]
        data.aj_branch[k] = data.char_to_vector(data.branch_char[k])
    data.diagnostics["order_n_lattice_dist"] = max_dist
    data.diagnostics["tau_asymmetry"] = asym
    data.diagnostics["im_tau_min_eig"] = float(eigs[0])
    data.diagnostics["quad_drift"] = drift
    data.diagnostics["intersection_matrix"] = M.tolist()

    _verify_a_normalization(curve, cycles, S, A, diffs, data)
    _attach_riemann_constant(data, M, S)
    return data


def _verify_a_normalization(curve, cycles, S, A, diffs, data):
    """Re-verify one a-period row by direct integration along the polylines."""
    used = [(coeff, cyc) for coeff, cyc in zip(S[0], cycles) if coeff]
    direct = np.zeros(len(diffs), dtype=complex)
    for (coeff, _), row in zip(used, _direct_cycle_integrals(
            curve, [cyc for _, cyc in used], diffs)):
        direct += coeff * row
    scale = float(np.max(np.abs(A[0])))
    err = float(np.max(np.abs(direct - A[0])))
    data.diagnostics["a1_direct_check"] = err / max(scale, 1e-300)
    if err > DIRECT_REL_TOL * max(scale, 1e-300):
        raise PeriodError(
            f"direct a_1-period check failed: {err:.3e} vs scale {scale:.3e}")


# ----------------------------------------------------------------------------
# Riemann constant


def _attach_riemann_constant(data: PeriodData, M: np.ndarray, S: np.ndarray):
    """K from Johnson's form on the symplectic basis (homology.spin_form):
    K = tau q(a)/2 + q(b)/2 with a_i = S[i] and b_i = S[g+i] as classes of
    the dumbbells, then checked by Riemann's vanishing theorem."""
    g = data.g
    q = [spin_form(M, row) for row in S]
    data.K_char = Characteristic.of(q[:g], q[g:])
    data.K = data.char_to_vector(data.K_char)
    data.diagnostics["K_vanishing_residual"] = _riemann_vanishing_residual(data)


def _riemann_vanishing_residual(data: PeriodData) -> float:
    """max |theta(u(D) + K)| / theta_scale over K_CHECK_DIVISORS seeded
    generic divisors D of degree g-1 (for g = 1 the empty divisor); theta
    vanishes there exactly when K is the Riemann constant, so a residual
    of K_VANISHING_CUT or more raises."""
    g = data.g
    rng = np.random.default_rng(K_CHECK_SEED)
    scale = data.theta_scale()
    divisors = [_random_surface_points(data, g - 1, rng)
                for _ in range(K_CHECK_DIVISORS if g > 1 else 1)]
    worst = _max_invariant_abs([u + data.K for u in data.abel_jacobi_divisors(divisors)],
                               data.tau)
    if worst >= K_VANISHING_CUT * scale:
        raise PeriodError(f"theta(u(D) + K) = {worst / scale:.3e} of its scale on a "
                          f"generic divisor: K = {data.K_char.label()} is not the "
                          "Riemann constant")
    return worst / scale


def _max_invariant_abs(zetas: Sequence[np.ndarray], tau: RiemannMatrix) -> float:
    """The largest lattice-invariant |theta(zeta)| (theta_norm_abs) over the
    arguments, from one theta_sums call."""
    best = 0.0
    for zeta, (val,) in zip(zetas, theta_sums([Characteristic.zero(tau.g)], zetas, tau)):
        best = max(best, invariant_abs(val.value, zeta, tau))
    return best


def _random_surface_points(data: PeriodData, count: int, rng) -> list[SurfacePoint]:
    curve = data.curve
    scale = max(abs(x) for x in curve.lambdas) + 1.0
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-1.5, 1.5) * scale, rng.uniform(-1.5, 1.5) * scale)
        if min(abs(z - lam) for lam in curve.lambdas) < 0.25 * data.chain.gap:
            continue
        sheet = int(rng.integers(0, curve.n))
        w = curve.w_principal(z) * np.exp(2j * np.pi * sheet / curve.n)
        pts.append(SurfacePoint(z, w))
    return pts
