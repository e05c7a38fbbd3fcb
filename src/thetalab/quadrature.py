"""Path integrals of z^a dz / w^m on superelliptic curves.

Every path is a polyline whose legs either end at a branch point (integrable
endpoint singularity of exponent -m/n, handled by Gauss-Jacobi nodes with the
matching weight) or stay away from all branch points (Gauss-Legendre).  The
sheet of w along a path is fixed by an anchor value at one non-singular point
and transported by nearest-root tracking with adaptive step refinement; no
principal-value calls happen inside the integrators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .algebra import principal_power
from .curves import CurveSpec, Differential


class QuadratureError(RuntimeError):
    pass


@lru_cache(maxsize=256)
def _gj_nodes(order: int, alpha: float, beta: float):
    if alpha == 0.0 and beta == 0.0:
        x, w = roots_legendre(order)
    else:
        x, w = roots_jacobi(order, alpha, beta)
    return x, w


# ----------------------------------------------------------------------------
# Sheet tracking


def track_w(curve: CurveSpec, zs: Sequence[complex], w_start: complex,
            max_depth: int = 52) -> np.ndarray:
    """Continue w = f^{1/n} along the points zs, starting from w_start at zs[0].

    A step is only taken when it is provably unambiguous: along a segment at
    distance d from every branch point, |d log w| <= (N/n) |dz| / d, so steps
    with |dz| <= 0.3 (n/N) d cannot rotate the branch anywhere near the root
    spacing 2 pi / n.  Longer steps are bisected; endpoint-only heuristics are
    unsound (the true branch can rotate by pi across a long step and land
    near the wrong root).
    """
    n = curve.n
    rots = np.exp(2j * np.pi * np.arange(n) / n)
    out = np.empty(len(zs), dtype=complex)
    out[0] = w_start
    for i in range(1, len(zs)):
        out[i] = _step(curve, zs[i - 1], out[i - 1], zs[i], rots, max_depth)
    return out


def _step(curve, z0, w0, z1, rots, depth):
    if z1 == z0:
        return w0
    dmin = min(_seg_distance(z0, z1, lam)[0] for lam in curve.lambdas)
    n = curve.n
    N = curve.num_branch
    if dmin > 0.0 and abs(z1 - z0) <= 0.3 * n * dmin / N:
        cands = curve.w_principal(z1) * rots
        d = np.abs(cands - w0)
        j = int(np.argmin(d))
        d_sorted = np.sort(d)
        if len(d) > 1 and d_sorted[0] > 0.5 * d_sorted[1]:
            raise QuadratureError(
                f"sheet tracking lost separation near {z1} (step too coarse)")
        return cands[j]
    if depth <= 0:
        raise QuadratureError(
            f"sheet tracking cannot resolve the step {z0} -> {z1}")
    zm = (z0 + z1) / 2.0
    wm = _step(curve, z0, w0, zm, rots, depth - 1)
    return _step(curve, zm, wm, z1, rots, depth - 1)


# ----------------------------------------------------------------------------
# Single legs


def _branch_index_at(curve: CurveSpec, z: complex) -> int:
    """1-based branch index whose lambda equals z (within rounding)."""
    scale = max(1.0, max(abs(x) for x in curve.lambdas))
    for i, lam in enumerate(curve.lambdas):
        if abs(z - lam) <= 1e-12 * scale:
            return i + 1
    raise QuadratureError(f"singular endpoint {z} is not a branch point")


def _smooth_part_candidates(curve: CurveSpec, z: complex, exclude: tuple[int, ...],
                            rots: np.ndarray) -> np.ndarray:
    prod = 1.0 + 0.0j
    for i, lam in enumerate(curve.lambdas):
        if (i + 1) not in exclude:
            prod *= z - lam
    return principal_power(prod, 1.0 / curve.n) * rots


def _track_smooth(curve: CurveSpec, exclude: tuple[int, ...],
                  zs: Sequence[complex], psi_start: complex,
                  max_depth: int = 52) -> np.ndarray:
    """Continue psi = (prod_{i not in exclude} (z - lambda_i))^{1/n} along zs.

    Same provable step rule as track_w, now relative to the non-excluded
    branch points only (the excluded linear factors are handled exactly by
    the caller's parameterization)."""
    n = curve.n
    rots = np.exp(2j * np.pi * np.arange(n) / n)
    lams = [lam for i, lam in enumerate(curve.lambdas) if (i + 1) not in exclude]
    Nsm = max(1, len(lams))
    out = np.empty(len(zs), dtype=complex)
    out[0] = psi_start

    def step(z0, p0, z1, depth):
        if z1 == z0:
            return p0
        dmin = min(_seg_distance(z0, z1, lam)[0] for lam in lams) if lams else np.inf
        if dmin > 0.0 and abs(z1 - z0) <= 0.3 * n * dmin / Nsm:
            cands = _smooth_part_candidates(curve, z1, exclude, rots)
            j = int(np.argmin(np.abs(cands - p0)))
            return cands[j]
        if depth <= 0:
            raise QuadratureError("smooth-part tracking cannot resolve a step")
        zm = (z0 + z1) / 2.0
        return step(zm, step(z0, p0, zm, depth - 1), z1, depth - 1)

    for i in range(1, len(zs)):
        out[i] = step(zs[i - 1], out[i - 1], zs[i], max_depth)
    return out


def leg_integrals(curve: CurveSpec, z0: complex, z1: complex,
                  diffs: Sequence[Differential], order: int,
                  sing0: bool, sing1: bool,
                  w_anchor: complex, anchor_at_end: bool) -> np.ndarray:
    """Integrals of z^a dz / w^m from z0 to z1 along the straight segment.

    sing0/sing1 flag branch-point endpoints; the anchor value is w at the
    non-singular end selected by anchor_at_end (False: z0, True: z1).

    The singular linear factors are never formed by subtraction: with
    z = mid + x hv they are (1 +- x) hv exactly, and only the smooth part
    psi^n = prod over the other branch points is tracked numerically.  This
    keeps full relative accuracy on legs much shorter than |lambda|.
    """
    n = curve.n
    hv = (z1 - z0) / 2.0
    mid = (z0 + z1) / 2.0
    out = np.empty(len(diffs), dtype=complex)
    if sing0 and sing1:
        raise QuadratureError("split both-singular legs at an interior anchor")
    exclude = []
    if sing0:
        exclude.append(_branch_index_at(curve, z0))
    if sing1:
        exclude.append(_branch_index_at(curve, z1))
    exclude = tuple(exclude)
    ms = sorted({d.m for d in diffs})
    for m in ms:
        alpha = -m / n if sing1 else 0.0
        beta = -m / n if sing0 else 0.0
        x, wts = _gj_nodes(order, alpha, beta)
        zs = mid + x * hv
        # singular factors in the leg parameter, (1 +- x) hv, exact by construction
        k_fac = 1.0 + 0.0j
        if sing0:
            k_fac *= principal_power(hv, 1.0 / n)
        if sing1:
            k_fac *= principal_power(-hv, 1.0 / n)
        anchor_x = 1.0 if anchor_at_end else -1.0
        if exclude:
            # anchor psi from w at the (non-singular) anchor end
            afrac = 1.0
            if sing0:
                afrac *= (1.0 + anchor_x)
            if sing1:
                afrac *= (1.0 - anchor_x)
            psi_anchor = w_anchor / (afrac ** (1.0 / n) * k_fac)
            if anchor_at_end:
                chain = np.concatenate([[z1], zs[::-1]])
                psi = _track_smooth(curve, exclude, chain, psi_anchor)[1:][::-1]
            else:
                chain = np.concatenate([[z0], zs])
                psi = _track_smooth(curve, exclude, chain, psi_anchor)[1:]
        else:
            if anchor_at_end:
                chain = np.concatenate([[z1], zs[::-1]])
                psi = track_w(curve, chain, w_anchor)[1:][::-1]
            else:
                chain = np.concatenate([[z0], zs])
                psi = track_w(curve, chain, w_anchor)[1:]
        smooth = psi ** (-m)
        kpow = k_fac ** (-m)
        # the Gauss-Jacobi weight absorbs frac^{-m/n}on its own
        for idx, d in enumerate(diffs):
            if d.m != m:
                continue
            vals = np.power(zs, d.a) if d.a else np.ones_like(zs)
            out[idx] = hv * kpow * np.sum(wts * vals * smooth)
    return out


# ----------------------------------------------------------------------------
# Polyline paths


@dataclass
class PathIntegralResult:
    values: np.ndarray            # one integral per differential
    w_start: complex              # branch value at the first non-singular vertex
    w_end: complex                # branch value at the last non-singular vertex


def polyline_integrals(curve: CurveSpec, points: Sequence[complex],
                       diffs: Sequence[Differential], order: int,
                       sing_start: bool, sing_end: bool,
                       w_anchor: complex, anchor_index: int) -> PathIntegralResult:
    """Integrate along the polyline points[0] -> points[-1].

    Only the first or last vertex may be a branch point.  w_anchor is the
    sheet value at points[anchor_index], which must not be a singular end.
    """
    pts = [complex(p) for p in points]
    M = len(pts) - 1
    if M < 1:
        raise ValueError("polyline needs at least two points")
    if sing_start and anchor_index == 0:
        raise ValueError("anchor cannot sit on a singular endpoint")
    if sing_end and anchor_index == M:
        raise ValueError("anchor cannot sit on a singular endpoint")
    # propagate the anchor to every non-singular vertex
    wv: dict[int, complex] = {anchor_index: complex(w_anchor)}
    lo = 1 if sing_start else 0
    hi = M - 1 if sing_end else M
    for i in range(anchor_index + 1, hi + 1):
        wv[i] = track_w(curve, [pts[i - 1], pts[i]], wv[i - 1])[-1]
    for i in range(anchor_index - 1, lo - 1, -1):
        wv[i] = track_w(curve, [pts[i + 1], pts[i]], wv[i + 1])[-1]
    total = np.zeros(len(diffs), dtype=complex)
    for leg in range(M):
        s0 = sing_start and leg == 0
        s1 = sing_end and leg == M - 1
        if s0:
            total += leg_integrals(curve, pts[leg], pts[leg + 1], diffs, order,
                                   True, False, wv[leg + 1], True)
        else:
            total += leg_integrals(curve, pts[leg], pts[leg + 1], diffs, order,
                                   False, s1, wv[leg], False)
    return PathIntegralResult(total, wv[lo], wv[hi])


def infinity_leg_integrals(curve: CurveSpec, z_far: complex, w_far: complex,
                           diffs: Sequence[Differential], order: int) -> np.ndarray:
    """Integrals from the branch point over infinity to z_far along the
    outward ray {z_far / sigma^n}, in the regular local parameter at infinity.

    Requires |z_far| > max |lambda| so the ray stays clear of branch points.
    Overflow-safe: with z = z_far sigma^{-n} one has w = sigma^{-N} h(sigma)
    where h(sigma)^n = prod(z_far - lambda_i sigma^n) stays O(1).
    """
    N = curve.num_branch
    n = curve.n
    if abs(z_far) <= max(abs(x) for x in curve.lambdas):
        raise ValueError("z_far must lie outside the branch-point disk")
    x, wts = roots_legendre(order)
    sig = 0.5 * (x + 1.0)        # nodes on (0,1)
    wts = 0.5 * wts
    # continue h from sigma=1 (h=w_far) down through the nodes
    rots = np.exp(2j * np.pi * np.arange(n) / n)

    def h_candidates(s: float) -> np.ndarray:
        prod = 1.0 + 0.0j
        for lam in curve.lambdas:
            prod *= z_far - lam * s ** n
        base = principal_power(prod, 1.0 / n)
        return base * rots

    sigmas = np.concatenate([[1.0], sig[::-1]])
    hvals = np.empty(len(sigmas), dtype=complex)
    hvals[0] = w_far
    for i in range(1, len(sigmas)):
        cands = h_candidates(sigmas[i])
        j = int(np.argmin(np.abs(cands - hvals[i - 1])))
        hvals[i] = cands[j]
    h_at_nodes = hvals[1:][::-1]

    out = np.empty(len(diffs), dtype=complex)
    for idx, d in enumerate(diffs):
        e = d.m * N - n * (d.a + 1) - 1
        if e < 0:
            raise ValueError(f"differential {d} is not holomorphic at infinity")
        out[idx] = -n * z_far ** (d.a + 1) * np.sum(
            wts * sig ** e * h_at_nodes ** (-d.m))
    return out


# ----------------------------------------------------------------------------
# Obstacle-avoiding polylines


def build_avoiding_path(z0: complex, z1: complex, obstacles: Sequence[complex],
                        clearance: float, max_rounds: int = 6) -> list[complex]:
    """Polyline from z0 to z1 that keeps interior obstacles at distance
    >= clearance/2 by bending away from them.  Endpoints may coincide with
    obstacles (they are ignored)."""
    pts = [complex(z0), complex(z1)]
    obs = [complex(o) for o in obstacles
           if abs(o - z0) > 1e-14 and abs(o - z1) > 1e-14]
    for _ in range(max_rounds):
        worst = None
        for a_i in range(len(pts) - 1):
            a, b = pts[a_i], pts[a_i + 1]
            for o in obs:
                d, t = _seg_distance(a, b, o)
                if d < clearance * 0.5 and 0.02 < t < 0.98:
                    if worst is None or d < worst[0]:
                        worst = (d, a_i, t, o)
        if worst is None:
            return pts
        _, a_i, t, o = worst
        a, b = pts[a_i], pts[a_i + 1]
        foot = a + t * (b - a)
        away = foot - o
        if abs(away) < 1e-12:
            away = 1j * (b - a) / abs(b - a)
        else:
            away = away / abs(away)
        pts.insert(a_i + 1, o + away * clearance)
    return pts


def _seg_distance(a: complex, b: complex, p: complex) -> tuple[float, float]:
    """(distance from p to segment ab, clamped parameter t)."""
    ab = b - a
    L2 = abs(ab) ** 2
    if L2 == 0.0:
        return abs(p - a), 0.0
    t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(a + t * ab - p), t


def refine_path_for_quadrature(path: Sequence[complex], obstacles: Sequence[complex],
                               ratio: float = 0.3, max_depth: int = 24) -> list[complex]:
    """Split legs until every obstacle is at distance >= ratio * leg length.

    Gauss rules converge at a rate set by the nearest singularity relative to
    the leg size; halving long legs that pass moderately close to other branch
    points keeps the composite error at spectral accuracy.  Obstacles closer
    than 1e-12 to a leg endpoint (i.e. the leg's own branch point) are ignored
    for that leg."""
    out = [complex(path[0])]
    for i in range(len(path) - 1):
        _refine_leg(complex(path[i]), complex(path[i + 1]), obstacles, ratio,
                    max_depth, out)
    return out


def _refine_leg(a, b, obstacles, ratio, depth, out):
    L = abs(b - a)
    if depth > 0 and L > 0:
        for o in obstacles:
            if abs(o - a) < 1e-12 or abs(o - b) < 1e-12:
                continue
            d, _ = _seg_distance(a, b, o)
            if d < ratio * L:
                mid = (a + b) / 2.0
                _refine_leg(a, mid, obstacles, ratio, depth - 1, out)
                _refine_leg(mid, b, obstacles, ratio, depth - 1, out)
                return
    out.append(b)
