"""Path integrals of z^a dz / w^m on superelliptic curves.

Every path is a polyline whose legs either end at a branch point or stay away
from all branch points, and every leg takes one Gauss-Legendre rule.  At a
singular end the substitution 1 +- x = 2 t^n turns (1 +- x)^{-m/n} dx into
2^{1-m/n} n t^{n-1-m} dt, a polynomial for m < n, so the rule runs in t and
its nodes x do not depend on m.  The sheet of w along a path is fixed by an
anchor value at one non-singular point and continued exactly from vertex to
vertex: a linear factor that moves straight without passing 0 turns by the
argument of its end-to-start ratio, so the sheets are a running sum of
root-of-unity shifts (track_w).  On a leg no node is tracked: w is one
constant, fixed at the leg's anchor end, times a product of principal roots
none of which meets its branch cut on the leg (after Molin & Neurohr, Math.
Comp. 88, 2019); the infinity leg takes the same form.  A leg through a
branch point raises QuadratureError.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import principal_power
from .curves import CurveSpec, Differential


class QuadratureError(RuntimeError):
    pass


@lru_cache(maxsize=256)
def _leg_rule(order: int, n: int, side: int):
    """Nodes x on [-1, 1] and, for m = 0..n-1, the weights that integrate
    f(x) (1 - side x)^{-m/n} dx: side -1 or +1 puts the singular end at
    x = side, side 0 has none.  With 1 - side x = 2 t^n the weight of the
    Gauss-Legendre node t is 2^{-m/n} n t^{n-1-m} times its own."""
    y, w = np.polynomial.legendre.leggauss(order)
    if side == 0:
        return y, (w,) * n
    t = (y + 1.0) / 2.0
    return side * (1.0 - 2.0 * t ** n), tuple(
        2.0 ** (-m / n) * n * t ** (n - 1 - m) * w for m in range(n))


# ----------------------------------------------------------------------------
# Sheet tracking


def track_w(curve: CurveSpec, zs: Sequence[complex], w_start: complex) -> np.ndarray:
    """Continue w = f^{1/n} along the straight steps between the points zs,
    starting from w_start at zs[0].

    A factor z - lambda moving straight from p to q without passing 0 turns
    by exactly Arg(q/p), so w turns by the sum of the turns over n, and the
    shift between the principal values of consecutive points is the integer
    (arg P_i - arg P_{i+1} + sum_k turn_k / n) n / (2 pi): the sheets are a
    running sum mod n, with no step test.  A non-finite point, a zero factor
    or a turn within 1e-8 of +-pi (a step onto or through a branch point)
    raises.
    """
    n = curve.n
    zs = np.asarray(zs, dtype=complex)
    factors = zs[:, None] - np.asarray(curve.lambdas, dtype=complex)
    bad = ~np.isfinite(zs)
    if bad.any():
        raise QuadratureError(f"sheet tracking through the non-finite point {zs[bad][0]}")
    bad = (factors == 0).any(axis=1)
    if bad.any():
        raise QuadratureError(f"sheet tracking onto a branch point at {zs[bad][0]}")
    turn = np.angle(factors[1:] / factors[:-1])
    bad = ~(np.abs(turn) <= np.pi - 1e-8).all(axis=1)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise QuadratureError(
            f"sheet tracking through a branch point on the step {zs[i]} -> {zs[i + 1]}")
    base = curve.w_principal(zs)
    rots = np.exp(2j * np.pi * np.arange(n) / n)
    # the result is indexed from this product, not formed as base * rots[j]:
    # numpy's contiguous complex multiply can round differently from the
    # point-by-roots product that the sheet values have always been
    cands = base[:, None] * rots
    arg = np.angle(base)
    shift = np.rint((arg[:-1] - arg[1:] + turn.sum(axis=1) / n) * (n / (2 * np.pi)))
    j = (_nearest_sheet(w_start, base[0], n, zs[0])
         + np.concatenate([[0], np.cumsum(shift.astype(np.int64))])) % n
    out = cands[np.arange(len(zs)), j]
    out[np.logical_and.accumulate(zs == zs[0])] = w_start   # leading zero-length steps
    return out


def _nearest_sheet(start: complex, base: complex, n: int, where) -> int:
    """The j for which base exp(2 pi i j / n) is nearest to start, where base
    is one n-th root of w^n at the start point; raises unless start is
    separated from the other sheets (at most half as far from the nearest
    root as from the next)."""
    d = np.abs(base * np.exp(2j * np.pi * np.arange(n) / n) - start)
    d_sorted = np.sort(d)
    if not d_sorted[0] <= 0.5 * d_sorted[1]:
        raise QuadratureError(f"sheet tracking lost separation near {where} (start value)")
    return int(np.argmin(d))


# ----------------------------------------------------------------------------
# Single legs


def _branch_index_at(curve: CurveSpec, z: complex) -> int:
    """1-based branch index whose lambda equals z (within rounding)."""
    scale = max(1.0, max(abs(x) for x in curve.lambdas))
    for i, lam in enumerate(curve.lambdas):
        if abs(z - lam) <= 1e-12 * scale:
            return i + 1
    raise QuadratureError(f"singular endpoint {z} is not a branch point")


def leg_integrals(curve: CurveSpec, z0: complex, z1: complex,
                  diffs: Sequence[Differential], order: int,
                  sing0: bool, sing1: bool,
                  w_anchor: complex, anchor_at_end: bool) -> np.ndarray:
    """Integrals of z^a dz / w^m from z0 to z1 along the straight segment.

    sing0/sing1 flag branch-point endpoints; the anchor value is w at the
    non-singular end selected by anchor_at_end (False: z0, True: z1).

    With z = mid + x hv each factor z - lambda_k is hv (x - x_k).  The
    singular one is (1 +- x) hv exactly and goes into the weights of
    _leg_rule, which keeps full relative accuracy on legs much shorter than
    |lambda|.  Every other x - x_k moves parallel to the real axis as x runs
    over [-1, 1], so it never crosses the cut of the principal n-th root
    unless lambda_k lies on the leg, which raises.  So w is one constant,
    fixed by w_anchor, times a product of principal roots, evaluated once on
    the nodes for every power m.
    """
    n = curve.n
    if sing0 and sing1:
        raise QuadratureError("split both-singular legs at an interior anchor")
    hv = (z1 - z0) / 2.0
    mid = (z0 + z1) / 2.0
    exclude = {_branch_index_at(curve, z) for z, s in ((z0, sing0), (z1, sing1)) if s}
    xk = (np.array([lam for i, lam in enumerate(curve.lambdas) if i + 1 not in exclude])
          - mid) / hv
    # distance of x_k from [-1, 1], in half-leg lengths
    off = np.abs(xk - np.clip(xk.real, -1.0, 1.0))
    if not (off > 1e-8).all():
        raise QuadratureError(
            f"leg {z0} -> {z1} passes through the branch point "
            f"{mid + hv * xk[np.argmin(off)]}")

    def log_roots(x):
        # log of the product of the principal roots: the summed logs over n
        return np.log(x[:, None] - xk).sum(axis=1) / n

    # the singular factors in the leg parameter: (1 +- x) hv = (1 +- x)^{1/n} k_fac
    anchor_x = 1.0 if anchor_at_end else -1.0
    k_fac = 1.0 + 0.0j
    afrac = 1.0
    if sing0:
        k_fac *= principal_power(hv, 1.0 / n)
        afrac *= 1.0 + anchor_x
    if sing1:
        k_fac *= principal_power(-hv, 1.0 / n)
        afrac *= 1.0 - anchor_x
    z_anchor = z1 if anchor_at_end else z0
    _nearest_sheet(w_anchor, curve.w_principal(z_anchor), n, z_anchor)
    psi_anchor = w_anchor / (afrac ** (1.0 / n) * k_fac)
    log_anchor = log_roots(np.array([anchor_x]))[0]

    # the weights absorb (1 +- x)^{-m/n}
    x, wts = _leg_rule(order, n, -1 if sing0 else 1 if sing1 else 0)
    zs = mid + x * hv
    psi = psi_anchor * np.exp(log_roots(x) - log_anchor)
    smooth = {m: psi ** (-m) for m in {d.m for d in diffs}}
    out = np.empty(len(diffs), dtype=complex)
    for idx, d in enumerate(diffs):
        vals = np.power(zs, d.a) if d.a else 1.0
        out[idx] = hv * k_fac ** (-d.m) * np.sum(wts[d.m] * vals * smooth[d.m])
    return out


# ----------------------------------------------------------------------------
# Polyline paths


def polyline_integrals(curve: CurveSpec, points: Sequence[complex],
                       diffs: Sequence[Differential], order: int,
                       sing_start: bool, sing_end: bool,
                       w_anchor: complex, anchor_index: int) -> np.ndarray:
    """Integrate along the polyline points[0] -> points[-1]: one integral
    per differential.

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
    # propagate the anchor to every non-singular vertex, one run each way
    lo = 1 if sing_start else 0
    hi = M - 1 if sing_end else M
    w = complex(w_anchor)
    wv = {anchor_index: w}
    if hi > anchor_index:
        wv.update(zip(range(anchor_index, hi + 1),
                      track_w(curve, pts[anchor_index:hi + 1], w)))
    if anchor_index > lo:
        wv.update(zip(range(anchor_index, lo - 1, -1),
                      track_w(curve, pts[lo:anchor_index + 1][::-1], w)))
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
    return total


def infinity_leg_integrals(curve: CurveSpec, z_far: complex, w_far: complex,
                           diffs: Sequence[Differential], order: int) -> np.ndarray:
    """Integrals from the branch point over infinity to z_far along the
    outward ray {z_far / sigma^n}, in the regular local parameter at infinity.

    Requires |z_far| > max |lambda| so the ray stays clear of branch points.
    Overflow-safe: with z = z_far sigma^{-n} one has w = sigma^{-N} h(sigma)
    where h(sigma)^n = prod(z_far - lambda_i sigma^n) stays O(1).  Each
    factor is z_far (1 - sigma^n lambda_i / z_far) with |lambda_i / z_far| < 1,
    so h is one constant, fixed by h(1) = w_far, times a product of principal
    roots of factors with positive real part.
    """
    N = curve.num_branch
    n = curve.n
    if abs(z_far) <= max(abs(x) for x in curve.lambdas):
        raise ValueError("z_far must lie outside the branch-point disk")
    x, (wts,) = _leg_rule(order, 1, 0)
    sig = 0.5 * (x + 1.0)        # nodes on (0,1)
    wts = 0.5 * wts
    t = np.asarray(curve.lambdas, dtype=complex) / z_far
    _nearest_sheet(w_far, curve.w_principal(z_far), n, z_far)
    log_h = np.log(1.0 - np.concatenate([[1.0], sig ** n])[:, None] * t).sum(axis=1) / n
    h_at_nodes = w_far * np.exp(log_h[1:] - log_h[0])

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

_AVOID_ROUNDS = 6       # bends of build_avoiding_path
_REFINE_RATIO = 0.3     # refine_path_for_quadrature: obstacle distance / leg length
_REFINE_DEPTH = 24      # and its halvings per leg


def build_avoiding_path(z0: complex, z1: complex, obstacles: Sequence[complex],
                        clearance: float) -> list[complex]:
    """Polyline from z0 to z1 that keeps interior obstacles at distance
    >= clearance/2 by bending away from them, in at most _AVOID_ROUNDS bends.
    Endpoints may coincide with obstacles (they are ignored)."""
    pts = [complex(z0), complex(z1)]
    obs = [complex(o) for o in obstacles
           if abs(o - z0) > 1e-14 and abs(o - z1) > 1e-14]
    for _ in range(_AVOID_ROUNDS):
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


def refine_path_for_quadrature(path: Sequence[complex],
                               obstacles: Sequence[complex]) -> list[complex]:
    """Split legs until every obstacle is at distance >= _REFINE_RATIO times
    the leg length, halving each leg at most _REFINE_DEPTH times.

    Gauss rules converge at a rate set by the nearest singularity relative to
    the leg size; halving long legs that pass moderately close to other branch
    points keeps the composite error at spectral accuracy.  Obstacles closer
    than 1e-12 to a leg endpoint (i.e. the leg's own branch point) are ignored
    for that leg."""
    out = [complex(path[0])]
    for i in range(len(path) - 1):
        _refine_leg(complex(path[i]), complex(path[i + 1]), obstacles, _REFINE_DEPTH, out)
    return out


def _refine_leg(a, b, obstacles, depth, out):
    L = abs(b - a)
    if depth > 0 and L > 0:
        for o in obstacles:
            if abs(o - a) < 1e-12 or abs(o - b) < 1e-12:
                continue
            d, _ = _seg_distance(a, b, o)
            if d < _REFINE_RATIO * L:
                mid = (a + b) / 2.0
                _refine_leg(a, mid, obstacles, depth - 1, out)
                _refine_leg(mid, b, obstacles, depth - 1, out)
                return
    out.append(b)
