"""Independent reference computations used to pin expected values.

These deliberately avoid the library's evaluation paths: the theta oracle is
a plain full-box lattice sum, the elliptic j target comes from the
branch-point cross-ratio, sheet tracking is checked against the scalar
depth-first step rule, lattice enumeration against the depth-first
Fincke-Pohst recursion, the infinity leg against its node-by-node
continuation, the branch images from the chain-edge sums and Abel's
theorem against one route from infinity per branch point, the Riemann constant from the
intersection form against the half-period search and the hyperelliptic
parity census that once found it, the exact partition characteristics
against the float sums snapped once per partition that they replaced, and
the Thomae derivative right-hand sides and closed-form Jacobians against
the contraction loops each once wrote out.  The truncation radius is
checked against the packing bound it replaced, its product bound against
Poisson summation, theta itself against a 30-digit mpmath sum, and the
symplectic reduction against the entry-by-entry triple sums it once
recomputed.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

from thetalab.algebra import (INF, all_elementary_symmetric, derivative_at_root,
                              principal_power)
from thetalab.homology import HomologyError
from thetalab.quadrature import (build_avoiding_path, infinity_leg_integrals,
                                 polyline_integrals, refine_path_for_quadrature)
from thetalab.periods import QUAD_ORDER, _random_surface_points
from thetalab.theta import (Characteristic, ThetaError, parity, theta_halfint_table,
                            theta_norm_abs)
from thetalab.thomae import _delta_product_trig, _delta_quarter_pair

_POINT_CAP = 8_000_000


def naive_theta(eps, delta, zeta, tau, box: int = 12) -> complex:
    """Full-box lattice sum over [-box, box]^g, term by term."""
    g = len(eps)
    a = np.array(eps, dtype=float) / 2.0
    b = np.array(delta, dtype=float) / 2.0
    zeta = np.asarray(zeta, dtype=complex)
    grids = np.meshgrid(*[np.arange(-box, box + 1)] * g, indexing="ij")
    m = np.stack([gg.ravel() for gg in grids], axis=1)
    n = m + a
    quad = np.einsum("ij,jk,ik->i", n, np.asarray(tau, dtype=complex), n)
    lin = n @ (zeta + b)
    return complex(np.exp(1j * np.pi * quad + 2j * np.pi * lin).sum())


def naive_theta_grad(eps, delta, zeta, tau, box: int = 12) -> np.ndarray:
    g = len(eps)
    a = np.array(eps, dtype=float) / 2.0
    b = np.array(delta, dtype=float) / 2.0
    zeta = np.asarray(zeta, dtype=complex)
    grids = np.meshgrid(*[np.arange(-box, box + 1)] * g, indexing="ij")
    m = np.stack([gg.ravel() for gg in grids], axis=1)
    n = m + a
    quad = np.einsum("ij,jk,ik->i", n, np.asarray(tau, dtype=complex), n)
    lin = n @ (zeta + b)
    terms = np.exp(1j * np.pi * quad + 2j * np.pi * lin)
    return 2j * np.pi * (n.T @ terms)


# frozen before the main build: sum over |m| <= 12 of exp(-pi m^2)
THETA_AT_I = 1.0864348112133082


def cross_ratio_j(e1: complex, e2: complex, e3: complex) -> complex:
    """j-invariant of y^2 = (x-e1)(x-e2)(x-e3) via the modular lambda."""
    lam = (e3 - e1) / (e2 - e1)
    return 256.0 * (lam * lam - lam + 1.0) ** 3 / (lam * lam * (lam - 1.0) ** 2)


def seg_distance(a: complex, b: complex, p: complex) -> float:
    ab = b - a
    t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / abs(ab) ** 2
    return abs(a + min(1.0, max(0.0, t)) * ab - p)


def scalar_track(zs, start, lams, n, principal, max_depth: int = 52) -> np.ndarray:
    """Sheet tracking with the scalar depth-first step rule, frozen from the
    recursion thetalab used before its array tracker: continue the branch
    of (prod (z - lam))^{1/n} that is `start` at zs[0], taking a step only
    when |dz| <= 0.3 n d / len(lams) for the distance d from the segment to
    every lam, bisecting otherwise; principal(z) is the principal value."""
    rots = np.exp(2j * np.pi * np.arange(n) / n)

    def step(z0, w0, z1, depth):
        if z1 == z0:
            return w0
        dmin = min(seg_distance(z0, z1, lam) for lam in lams)
        if dmin > 0.0 and abs(z1 - z0) <= 0.3 * n * dmin / len(lams):
            cands = principal(z1) * rots
            d = np.abs(cands - w0)
            d_sorted = np.sort(d)
            if d_sorted[0] > 0.5 * d_sorted[1]:
                raise RuntimeError(f"lost separation near {z1}")
            return cands[int(np.argmin(d))]
        if depth <= 0:
            raise RuntimeError(f"cannot resolve the step {z0} -> {z1}")
        zm = (z0 + z1) / 2.0
        return step(zm, step(z0, w0, zm, depth - 1), z1, depth - 1)

    out = np.empty(len(zs), dtype=complex)
    out[0] = start
    for i in range(1, len(zs)):
        out[i] = step(zs[i - 1], out[i - 1], zs[i], max_depth)
    return out


def infinity_leg_by_continuation(curve, z_far, w_far, diffs, order) -> np.ndarray:
    """The integrals of thetalab's infinity leg as it computed them before
    legs took their sheets by formula: h(sigma) continued from h(1) = w_far
    down through the Gauss-Legendre nodes by the exact per-step argument
    sums, on scalar principal roots of prod(z_far - lambda sigma^n)."""
    n, N = curve.n, curve.num_branch
    x, wts = np.polynomial.legendre.leggauss(order)
    sig = 0.5 * (x + 1.0)
    at = np.concatenate([[1.0], sig[::-1]])
    factors = z_far - at[:, None] ** n * np.asarray(curve.lambdas, dtype=complex)
    base = np.array([principal_power(math.prod([z_far - lam * s ** n for lam in curve.lambdas],
                                               start=1.0 + 0.0j), 1.0 / n) for s in at])
    turn = np.angle(factors[1:] / factors[:-1]).sum(axis=1)
    arg = np.angle(base)
    shift = np.rint((arg[:-1] - arg[1:] + turn / n) * (n / (2 * np.pi))).astype(np.int64)
    cands = base[:, None] * np.exp(2j * np.pi * np.arange(n) / n)
    j = (np.argmin(np.abs(cands[0] - w_far)) + np.concatenate([[0], np.cumsum(shift)])) % n
    h = cands[np.arange(len(at)), j][:0:-1]
    return np.array([-n * z_far ** (d.a + 1) * np.sum(
        0.5 * wts * sig ** (d.m * N - n * (d.a + 1) - 1) * h ** (-d.m)) for d in diffs])


def rotated_far_anchor(curve, order):
    """(z_far, w_far, integrals of the monomial basis from P_inf to
    (z_far, w_far)) at the far point thetalab took every branch point's
    route from before it summed the chain edges: 5 max |lambda| + 5, turned
    0.2345 rad off the real axis, on the principal sheet."""
    z_far = (5.0 * max(abs(x) for x in curve.lambdas) + 5.0) * np.exp(0.2345j)
    w_far = curve.w_principal(z_far)
    return z_far, w_far, infinity_leg_integrals(curve, z_far, w_far,
                                                curve.differentials(), max(order, 96))


def branch_images_by_routes(periods) -> dict:
    """u(P_k) of every branch point along its own route, frozen from
    thetalab's build_periods before it summed the chain edges: the infinity
    leg to the rotated z_far, then a polyline from z_far to lambda_k that
    bends around the other branch points, both at QUAD_ORDER."""
    curve, order = periods.curve, QUAD_ORDER
    z_far, w_far, inf_leg = rotated_far_anchor(curve, order)
    out = {}
    for k in range(1, curve.num_branch + 1):
        obstacles = [lam for i, lam in enumerate(curve.lambdas) if i + 1 != k]
        path = build_avoiding_path(z_far, curve.lam(k), obstacles, 0.25 * periods.chain.gap)
        path = refine_path_for_quadrature(path, obstacles)
        res = polyline_integrals(curve, path, curve.differentials(), order,
                                 sing_start=False, sing_end=True,
                                 w_anchor=w_far, anchor_index=0)
        out[k] = np.linalg.solve(periods.C, inf_leg + res)
    return out


def char_by_snap(periods, images, counts, plus_K=True) -> Characteristic:
    """The characteristic of sum_k counts[k] images[k], plus K unless plus_K
    is False, as thetalab took every partition's before it summed exact
    characteristics: the float vectors summed and the total snapped by
    lattice_reduce."""
    v = periods.K.copy() if plus_K else np.zeros(periods.g, dtype=complex)
    for k, c in counts.items():
        v = v + c * images[k]
    return periods.lattice_reduce(v)[0]


def _branch_supported_divisors(data, count: int, rng) -> list:
    """Abel-Jacobi images of degree g-1 divisors supported on branch points
    (multiplicities <= n-1), each in the cell of to_cell."""
    g = data.g
    out = []
    keys = list(data.aj_branch)
    while len(out) < count:
        mult = {k: 0 for k in keys}
        deg = 0
        while deg < g - 1:
            k = keys[int(rng.integers(0, len(keys)))]
            if mult[k] < data.curve.n - 1:
                mult[k] += 1
                deg += 1
        out.append(data.to_cell(sum(m * data.aj_branch[k] for k, m in mult.items())))
    return out


def searched_riemann_constant(data) -> Characteristic:
    """The Riemann constant's characteristic by the exhaustive half-period
    search thetalab ran on trigonal curves before it read K off the
    intersection form: K is one of the 4^g half-periods (2K = 0, the
    canonical divisor being (2g-2) P_inf); a theta_halfint_table screen over
    two branch-supported divisors and one generic divisor prunes them, and
    exactly one survivor may vanish on 20 generic divisors."""
    g = data.g
    theta_tol = 1e-10
    rng = np.random.default_rng(20240915)
    n_div = 20 if g > 1 else 1
    divisors = [data.abel_jacobi_divisor(_random_surface_points(data, g - 1, rng))
                for _ in range(n_div)]
    scale = data.theta_scale()
    ch0 = Characteristic.zero(g)

    def invariant_table(u, tol):
        y = np.imag(np.asarray(u, dtype=complex))
        fac = math.exp(-np.pi * y @ data.tau.Yinv @ y)
        return np.abs(theta_halfint_table(u, data.tau, tol)) * fac

    screen = (_branch_supported_divisors(data, 2, rng) if g > 1 else []) + divisors[:1]
    alive = np.ones((2 ** g, 2 ** g), dtype=bool)
    for u in screen:
        alive &= invariant_table(u, max(theta_tol, 1e-4 * scale)) < 1e-3 * scale
    bits = np.arange(g)
    final = []
    for ecode, dcode in zip(*np.nonzero(alive)):
        ch = Characteristic.of(((int(ecode) >> bits) & 1).tolist(),
                               ((int(dcode) >> bits) & 1).tolist())
        vec = data.char_to_vector(ch)
        if max(theta_norm_abs(ch0, u + vec, data.tau, theta_tol)
               for u in divisors) < 1e-7 * scale:
            final.append(ch)
    if len(final) != 1:
        raise AssertionError(f"the half-period search found {len(final)} candidates")
    return final[0]


def census_riemann_constant(data) -> Characteristic:
    """The hyperelliptic Riemann constant as thetalab once took it: the sum
    of the g odd half-periods among the branch images u(P_k)."""
    g = data.g
    eps, delta = [Fraction(0)] * g, [Fraction(0)] * g
    odd = 0
    for k in sorted(data.aj_branch):
        ch, _ = data.lattice_reduce(data.aj_branch[k])
        if parity(ch) == 1:
            odd += 1
            eps = [a + b for a, b in zip(eps, ch.eps)]
            delta = [a + b for a, b in zip(delta, ch.delta)]
    if odd != g:
        raise AssertionError(f"branch-point parity census: {odd} odd, expected {g}")
    return Characteristic.of([e % 2 for e in eps], [d % 2 for d in delta])


def recursive_enumerate(U: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """All integer m with ||U (m + center)|| <= radius, U upper triangular.

    Fincke-Pohst style recursion from the last coordinate down, frozen from
    the depth-first enumerator thetalab used before its breadth-first one.
    """
    g = U.shape[0]
    out: list[np.ndarray] = []
    m = np.zeros(g, dtype=np.int64)
    count = 0

    def rec(level: int, partial: np.ndarray, budget: float):
        nonlocal count
        # partial: contributions of levels > level to each row's linear form
        u = U[level, level]
        off = center[level] + partial[level] / u
        half = math.sqrt(max(budget, 0.0)) / abs(u)
        lo = math.ceil(-off - half - 1e-12)
        hi = math.floor(-off + half + 1e-12)
        if hi < lo:
            return
        if level == 0:
            ks = np.arange(lo, hi + 1, dtype=np.int64)
            t = u * (ks + off)
            keep = ks[budget - t * t >= -1e-12]
            if keep.size:
                block = np.tile(m, (keep.size, 1))
                block[:, 0] = keep
                out.append(block)
                count += keep.size
                if count > _POINT_CAP:
                    raise ThetaError("lattice enumeration exceeded point cap")
            return
        for k in range(lo, hi + 1):
            t = u * (k + off)
            rem = budget - t * t
            if rem < -1e-12:
                continue
            m[level] = k
            newpart = partial + U[:, level] * (k + center[level])
            rec(level - 1, newpart, max(rem, 0.0))
        m[level] = 0

    if g == 0:
        return np.zeros((1, 0), dtype=np.int64)
    rec(g - 1, np.zeros(g), radius * radius)
    if not out:
        return np.zeros((0, g), dtype=np.int64)
    return np.concatenate(out, axis=0)


# ----------------------------------------------------------------------------
# Truncation radii and lattice sums


def _packing_tail(g: int, rho: float, R: float, extra_power: int = 0) -> float:
    """Bound on sum over ||U(m+xi)|| > R of ||U(m+xi)||^extra_power * exp(-||..||^2),
    uniform in xi, from packing balls of radius rho/2 around the lattice points
    (rho the shortest lattice vector), frozen from thetalab's packing bound
    with its incomplete gamma from mpmath."""
    a = max(R - rho, 0.0)
    half = rho / 2.0
    total = 0.0
    for i in range(extra_power + 1):
        ci = math.comb(extra_power, i) * (2 * half) ** (extra_power - i)
        for j in range(g):
            cj = math.comb(g - 1, j) * half ** (g - 1 - j)
            # integral_a^inf u^k exp(-u^2) du = Gamma((k+1)/2, a^2) / 2, k = i + j
            total += ci * cj * 0.5 * float(mpmath.gammainc((i + j + 1) / 2.0, a * a))
    return g * (2.0 / rho) ** g * total


def shortest_vector(U: np.ndarray) -> float:
    """The least ||U m|| over nonzero integer m."""
    g = U.shape[0]
    bound = min(float(np.linalg.norm(U[:, j])) for j in range(g))
    norms = np.linalg.norm(recursive_enumerate(U, np.zeros(g), bound + 1e-9) @ U.T, axis=1)
    nz = norms[norms > 1e-12]
    return float(nz.min()) if nz.size else bound


def packing_radius(U: np.ndarray, tol: float, weight: float = 1.0, grad=None) -> float:
    """The radius of thetalab's packing bound: the first R in rho + 1,
    rho + 1.25, ... with weight * tail(R) <= tol, where tail bounds the sum
    over ||v|| > R of f(||v||) exp(-||v||^2), f = 1 or f(r) = A r + B for
    grad = (A, B)."""
    g = U.shape[0]
    rho = shortest_vector(U)

    def tail(R):
        t0 = _packing_tail(g, rho, R)
        if grad is None:
            return weight * t0
        return weight * (grad[0] * _packing_tail(g, rho, R, 1) + grad[1] * t0)

    R = rho + 1.0
    while not tail(R) <= tol:
        R += 0.25
        if R > 80.0:
            raise ThetaError("packing radius exceeds 80")
    return R


def gaussian_lattice_sum(U: np.ndarray, xi: np.ndarray, s, cut: float = 40.0) -> np.ndarray:
    """sum over all m in Z^g of exp(-s ||U (m + xi)||^2) for each s of an
    array, by Poisson summation:
    (pi/s)^(g/2) / det U * sum_k exp(-pi^2 ||U^-t k||^2 / s) cos(2 pi k.xi),
    without the dual terms below exp(-cut) at the largest s."""
    g = len(xi)
    s = np.asarray(s, dtype=float)
    V = np.linalg.cholesky(np.linalg.inv(U.T @ U)).T     # ||V k|| = ||U^-t k||
    k = recursive_enumerate(V, np.zeros(g), math.sqrt(cut * s.max()) / math.pi)
    d2 = np.sum((k @ V.T) ** 2, axis=1)
    dual = np.exp(-math.pi ** 2 * d2 / s[..., None]) @ np.cos(2 * math.pi * (k @ xi))
    return (math.pi / s) ** (g / 2) / np.prod(np.diag(U)) * dual


def mp_theta(eps, delta, zeta, tau, dps: int = 30, cut: float = 60.0):
    """theta[eps;delta](zeta, tau) and its gradient summed term by term in
    mpmath at dps digits, over the box of m holding every term within
    exp(-cut) of the largest; also the sums of |term| and, per component,
    of |gradient term|.  Returns (value, gradient, abs_sum, grad_abs_sum)."""
    tau = np.asarray(tau, dtype=complex)
    g = tau.shape[0]
    a = np.asarray(eps, dtype=float) / 2.0
    zeta = np.asarray(zeta, dtype=complex)
    yinv = np.linalg.inv(np.imag(tau))
    c = yinv @ np.imag(zeta)
    half = np.sqrt(cut / math.pi * np.diag(yinv))
    axes = [range(math.ceil(-ci - ai - h), math.floor(-ci - ai + h) + 1)
            for ci, ai, h in zip(c, a, half)]
    with mpmath.workdps(dps):
        t = [[mpmath.mpc(x) for x in row] for row in tau]
        z = [mpmath.mpc(x) + mpmath.mpf(int(d)) / 2 for x, d in zip(zeta, delta)]
        value = mpmath.mpc(0)
        grad = [mpmath.mpc(0)] * g
        abs_sum = mpmath.mpf(0)
        grad_abs = [mpmath.mpf(0)] * g
        for m in itertools.product(*axes):
            n = [mpmath.mpf(mi) + mpmath.mpf(int(e)) / 2 for mi, e in zip(m, eps)]
            quad = mpmath.fsum(n[i] * t[i][j] * n[j] for i in range(g) for j in range(g))
            term = mpmath.expjpi(quad + 2 * mpmath.fsum(ni * zi for ni, zi in zip(n, z)))
            value += term
            abs_sum += abs(term)
            for j in range(g):
                grad[j] += 2j * mpmath.pi * n[j] * term
                grad_abs[j] += 2 * mpmath.pi * abs(n[j] * term)
        return (complex(value), np.array([complex(x) for x in grad]),
                float(abs_sum), np.array([float(x) for x in grad_abs]))


# ----------------------------------------------------------------------------
# Signed sigma-row contractions, frozen from the loops thetalab wrote out per
# identity before they shared algebra.sigma_row / algebra.sigma_contract.
# Each reads only `.C` of the periods.


def hyp_deriv_rhs(curve, periods, p) -> np.ndarray:
    g = curve.genus
    lam = curve.lam_map
    vals = [lam[i] for i in p.I.finite]
    sig = all_elementary_symmetric(vals)
    pref = (principal_power(np.linalg.det(periods.C) / (2.0 ** (g + 2) * np.pi ** g), 0.5)
            * _delta_quarter_pair(p.I, p.J, lam))
    out = np.zeros(g, dtype=complex)
    for s in range(g):
        acc = 0.0 + 0.0j
        for l in range(1, g + 1):
            deg = g - l - (1 if INF in p.I else 0)
            if deg < 0 or deg >= len(sig):
                continue
            acc += (-1) ** (g - l) * sig[deg] * periods.C[l - 1, s]
        out[s] = pref * acc
    return out


def trig_deriv_rhs(curve, periods, p, alpha: float) -> np.ndarray:
    q = curve.q
    g = curve.genus
    lam = curve.lam_map
    pref = _delta_product_trig(p, lam) * principal_power(np.linalg.det(periods.C), 0.5)
    if p.kind == "deriv1":
        sig_set = list(p.L1.finite) + list(p.L2.finite)
        has_inf = INF in p.L1 or INF in p.L2
        lrange = range(1, 2 * q)
        degree = lambda l: 2 * q - 1 - l - (1 if has_inf else 0)  # noqa: E731
        pref = pref * alpha / 3.0
    elif p.kind == "deriv2":
        sig_set = list(p.L2.finite)
        has_inf = INF in p.L2
        lrange = range(2 * q, 3 * q - 1)
        degree = lambda l: 3 * q - 2 - l - (1 if has_inf else 0)  # noqa: E731
        pref = pref * alpha / 3.0
    else:
        raise ValueError("derivative RHS needs a deriv-kind partition")
    sig = all_elementary_symmetric([lam[i] for i in sig_set])
    out = np.zeros(g, dtype=complex)
    for s in range(g):
        acc = 0.0 + 0.0j
        for l in lrange:
            deg = degree(l)
            if deg < 0 or deg >= len(sig):
                continue
            acc += (-1) ** deg * sig[deg] * periods.C[l - 1, s]
        out[s] = pref * acc
    return out


def aj_jacobian_hyper_closed(curve, periods, points) -> np.ndarray:
    g = curve.genus
    zs = [p.z for p in points]
    out = np.zeros((g, g), dtype=complex)
    for r, p in enumerate(points):
        others = [z for i, z in enumerate(zs) if i != r]
        sig = all_elementary_symmetric(others)
        denom = derivative_at_root(zs, r)
        coeff = p.w / denom
        for s in range(g):
            acc = 0.0 + 0.0j
            for l in range(1, g + 1):
                acc += (-1) ** (g - l) * sig[g - l] * periods.C[l - 1, s]
            out[r, s] = coeff * acc
    return out


def aj_jacobian_trig_closed(curve, periods, config) -> tuple[np.ndarray, np.ndarray]:
    config.validate(curve)
    q = curve.q
    g = curve.genus
    zs_plus = [curve.lam(a) for a in config.anchors]
    zs_minus = [curve.lam(a) for a in config.doubled(q)]
    d_alpha = np.zeros((2 * q - 1, g), dtype=complex)
    d_beta = np.zeros((q - 1, g), dtype=complex)
    for r, a in enumerate(config.anchors):
        fp = curve.f_prime_at_branch(a)
        others = [z for i, z in enumerate(zs_plus) if i != r]
        sig = all_elementary_symmetric(others)
        fplus_der = derivative_at_root(zs_plus, r)
        coeff = principal_power(fp, 2.0 / 3.0) / (3.0 * fplus_der)
        for s in range(g):
            acc = 0.0 + 0.0j
            for l in range(1, 2 * q):
                acc += (-1) ** (2 * q - 1 - l) * sig[2 * q - 1 - l] * periods.C[l - 1, s]
            d_alpha[r, s] = coeff * acc
    for r, a in enumerate(config.doubled(q)):
        fp = curve.f_prime_at_branch(a)
        others = [z for i, z in enumerate(zs_minus) if i != r]
        sig = all_elementary_symmetric(others)
        fminus_der = derivative_at_root(zs_minus, r)
        coeff = 2.0 * principal_power(fp, 1.0 / 3.0) / (3.0 * fminus_der)
        for s in range(g):
            acc = 0.0 + 0.0j
            for l in range(2 * q, 3 * q - 1):
                acc += (-1) ** (3 * q - 2 - l) * sig[3 * q - 2 - l] * periods.C[l - 1, s]
            d_beta[r, s] = coeff * acc
    return d_alpha, d_beta


# ----------------------------------------------------------------------------
# Symplectic reduction, frozen from homology.symplectic_transform as it was
# before it kept S M S^t in step with S: every entry is a fresh triple sum
# over Python integers.


def symplectic_transform_by_sums(M: np.ndarray) -> np.ndarray:
    """Unimodular S with S M S^t = [[0, I], [-I, 0]] for skew integer M."""
    M0 = [[int(x) for x in row] for row in M]
    m = len(M0)
    if m % 2:
        raise HomologyError("odd rank skew form")
    S = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def cur(i, j):
        return sum(S[i][a] * M0[a][b] * S[j][b] for a in range(m) for b in range(m))

    remaining = list(range(m))
    pairs = []
    while remaining:
        best = None
        for i in remaining:
            for j in remaining:
                v = cur(i, j)
                if v != 0 and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            raise HomologyError("degenerate intersection form")
        i, j, v = best
        clean = True
        for k in list(remaining):
            if k in (i, j):
                continue
            vkj = cur(k, j)
            if vkj % v != 0:
                qk = vkj // v
                S[k] = [S[k][t] - qk * S[i][t] for t in range(m)]
                clean = False
            vik = cur(i, k)
            if vik % v != 0:
                qk = vik // v
                S[k] = [S[k][t] - qk * S[j][t] for t in range(m)]
                clean = False
        if not clean:
            continue
        for k in list(remaining):
            if k in (i, j):
                continue
            vkj = cur(k, j)
            if vkj:
                qk = vkj // v
                S[k] = [S[k][t] - qk * S[i][t] for t in range(m)]
            vik = cur(i, k)
            if vik:
                qk = vik // v
                S[k] = [S[k][t] - qk * S[j][t] for t in range(m)]
        v = cur(i, j)
        if abs(v) != 1:
            raise HomologyError(f"intersection form not unimodular (pivot {v})")
        if v < 0:
            i, j = j, i
        pairs.append((i, j))
        remaining = [k for k in remaining if k not in (i, j)]
    return np.array([S[i] for i, _ in pairs] + [S[j] for _, j in pairs], dtype=np.int64)
