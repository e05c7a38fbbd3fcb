"""Homology of superelliptic curves from explicit cycles.

The finite branch points are chained in sorted order (after a deterministic
rotation that breaks real-part ties).  For every chain edge (lambda_i,
lambda_{i+1}) and every sheet shift k = 0..n-2 there is a "dumbbell" cycle:
winding +1 around lambda_i and -1 around lambda_{i+1}, realized as a closed
polyline (two parallel corridor legs at perpendicular offsets +-s and two
almost-full circular arcs).  These (N-1)(n-1) = 2g cycles are an integral
homology basis for the covers handled here (total ramification over infinity).

Intersection numbers are computed by brute-force transversal crossing counts
between the polylines, with the sheet at every crossing identified by
numerically continued w values; the skew integer matrix is then brought to the
canonical symplectic form J = [[0, I], [-I, 0]] by an exact unimodular
transform.  Correctness is not taken on faith: cycle closure, general
position, unimodularity and the Riemann-matrix invariants downstream all act
as checks on this construction.

The same intersection numbers give the Riemann constant.  Its spin bundle
O((g-1) P_inf) squares to the divisor (2g-2) P_inf of dz/w^(n-1), and that
spin structure is D. Johnson's quadratic form q on H_1(X, Z/2) (Spin
structures and quadratic forms on surfaces, J. London Math. Soc. 22, 1980):
q(x + y) = q(x) + q(y) + x.y, and on an embedded loop q is 1 plus the index
of the differential along it.  Every dumbbell is a figure-eight of turning
number 0 winding +1 and -1 around its two branch points, so dz/w^(n-1) has
index 0 along it and q is 1 on each basis cycle (spin_form).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import CurveSpec
from .quadrature import build_avoiding_path, refine_path_for_quadrature, track_w


class HomologyError(RuntimeError):
    pass


ARC_SEGMENTS = 48   # polyline segments per far arc of a cycle


# ----------------------------------------------------------------------------
# Chain construction


@dataclass
class ChainEdge:
    path: list[complex]           # polyline between consecutive branch points of Chain.order


@dataclass
class Chain:
    order: list[int]              # 1-based branch indices in chain order
    edges: list[ChainEdge]
    rotation: complex             # unit number used for sorting only
    gap: float                    # min pairwise branch distance


def build_chain(curve: CurveSpec) -> Chain:
    lams = list(curve.lambdas)
    N = len(lams)
    scale = max(1.0, max(abs(x) for x in lams))
    gap = min(abs(lams[i] - lams[j]) for i in range(N) for j in range(i + 1, N))

    rot = 1.0 + 0.0j
    golden = 2.0 * np.pi * 0.38196601125010515
    for attempt in range(64):
        keys = [ (lam * rot).real for lam in lams ]
        order = sorted(range(N), key=lambda i: keys[i])
        ok = all(keys[order[i + 1]] - keys[order[i]] > 1e-9 * scale
                 for i in range(N - 1))
        if ok:
            break
        rot = np.exp(1j * golden * (attempt + 1))
    else:
        raise HomologyError("could not find a rotation separating branch points")

    order1 = [i + 1 for i in order]
    edges = []
    clearance = 0.25 * gap
    for a, b in zip(order1[:-1], order1[1:]):
        za, zb = curve.lam(a), curve.lam(b)
        obstacles = [curve.lam(i) for i in range(1, N + 1) if i not in (a, b)]
        path = build_avoiding_path(za, zb, obstacles, clearance)
        path = refine_path_for_quadrature(path, obstacles)
        if len(path) == 2:
            # interior vertex doubles as the branch anchor for edge integrals
            path = [path[0], (path[0] + path[1]) / 2.0, path[1]]
        edges.append(ChainEdge(path))
    return Chain(order1, edges, rot, gap)


# ----------------------------------------------------------------------------
# Cycle polylines


@dataclass
class CyclePolyline:
    edge_index: int               # which chain edge
    points: np.ndarray            # closed polyline, points[0] == points[-1]
    w: np.ndarray                 # continued sheet values at the points
    j_out: int                    # sheets of the outgoing and returning strands
    j_back: int                   # relative to the edge anchor's principal branch


def _perp(u: complex) -> complex:
    return 1j * u / abs(u)


def _arc(center: complex, radius: float, ang0: float, ang1: float,
         ccw: bool, segments: int) -> np.ndarray:
    """Polygonized arc from ang0 to ang1 going the long way in the requested
    direction (sweep in (0, 2pi))."""
    if ccw:
        sweep = (ang1 - ang0) % (2.0 * np.pi)
        angs = ang0 + sweep * np.linspace(0.0, 1.0, segments + 1)
    else:
        sweep = (ang0 - ang1) % (2.0 * np.pi)
        angs = ang0 - sweep * np.linspace(0.0, 1.0, segments + 1)
    return center + radius * np.exp(1j * angs)


def _graded_strand(path: Sequence[complex], start: complex, end: complex,
                   s_start: float, s_end: float) -> list[complex]:
    """Strand following the edge path with a perpendicular offset graded
    linearly in arclength from s_start to s_end; explicit start/end points."""
    pts = [complex(p) for p in path]
    lens = [abs(pts[i + 1] - pts[i]) for i in range(len(pts) - 1)]
    total = sum(lens)
    out = [start]
    acc = 0.0
    for i in range(1, len(pts) - 1):
        acc += lens[i - 1]
        frac = acc / total
        d0 = pts[i] - pts[i - 1]
        d1 = pts[i + 1] - pts[i]
        nv = _perp(d0 / abs(d0) + d1 / abs(d1))
        out.append(pts[i] + nv * (s_start + (s_end - s_start) * frac))
    out.append(end)
    return out


def build_cycle(curve: CurveSpec, edge: ChainEdge, edge_index: int, shift: int,
                radius: float, offset: float) -> CyclePolyline:
    """Figure-eight cycle winding +1 around the edge start and -1 around the
    edge end.

    Parts: counterclockwise far arc around lambda_start (entering on the +s
    side, leaving on the -s side), a diagonal strand to the +s side of
    lambda_end, a clockwise far arc there, and a diagonal strand back.  The
    two strands cross once near the middle of the edge; on the surface that
    crossing is between different sheets.
    """
    path = edge.path
    la = path[0]
    lb = path[-1]
    u0 = (path[1] - path[0]) / abs(path[1] - path[0])
    u1 = (path[-1] - path[-2]) / abs(path[-1] - path[-2])
    skew = 1.3   # strand offsets differ at the two ends so the strands cross
    #              away from every polyline vertex
    d0 = float(np.sqrt(radius ** 2 - offset ** 2))
    d1 = float(np.sqrt(radius ** 2 - (skew * offset) ** 2))

    t2 = la + u0 * d0 + _perp(u0) * offset            # arc_a entry, +s side of la
    t3 = la + u0 * d0 - _perp(u0) * offset            # arc_a exit, -s side
    t1 = lb - u1 * d1 + _perp(u1) * skew * offset     # arc_b entry, +s side of lb
    t4 = lb - u1 * d1 - _perp(u1) * skew * offset     # arc_b exit, -s side

    pts: list[complex] = []
    arc_a = _arc(la, radius, float(np.angle(t2 - la)), float(np.angle(t3 - la)),
                 ccw=True, segments=ARC_SEGMENTS)
    pts.extend(arc_a)                                   # t2 ... t3
    out_strand = _graded_strand(path, t3, t1, -offset, +skew * offset)
    i_out_mid = len(pts) + max(0, (len(out_strand) - 2) // 2)
    pts.extend(out_strand[1:])                          # ... t1
    arc_b = _arc(lb, radius, float(np.angle(t1 - lb)), float(np.angle(t4 - lb)),
                 ccw=False, segments=ARC_SEGMENTS)
    pts.extend(arc_b[1:])                               # ... t4
    # reversed path flips the leg normals, so in the forward frame this strand
    # grades from -skew*s at the lambda_end side to +s at lambda_start
    back_strand = _graded_strand(path[::-1], t4, t2, +skew * offset, -offset)
    i_back_mid = len(pts) + max(0, (len(back_strand) - 2) // 2)
    pts.extend(back_strand[1:])                         # ... t2 (closure)

    arr = np.array(pts, dtype=complex)
    if abs(arr[0] - arr[-1]) > 1e-9 * max(1.0, abs(arr[0])):
        raise HomologyError("cycle polyline failed to close geometrically")
    arr[-1] = arr[0]

    # anchor sheet: rho^shift times the principal branch at the start point
    rho = np.exp(2j * np.pi / curve.n)
    w0 = curve.w_principal(arr[0]) * rho ** shift
    wvals = track_w(curve, arr, w0)
    if abs(wvals[-1] - wvals[0]) > 1e-6 * max(1.0, abs(wvals[0])):
        raise HomologyError(
            f"cycle (edge {edge_index}, shift {shift}) does not close on the surface")
    # each strand's sheet relative to the principal branch at the edge's
    # interior anchor vertex, where the edge integrals are anchored
    za = path[len(path) // 2]
    wa = curve.w_principal(za)
    j_out, j_back = (_strand_sheet(curve, za, wa, arr[i], wvals[i])
                     for i in (i_out_mid, i_back_mid))
    if (j_out - j_back) % curve.n != 1:
        raise HomologyError(
            f"strand sheets inconsistent with monodromy: {j_out}, {j_back}")
    return CyclePolyline(edge_index, arr, wvals, j_out, j_back)


def _strand_sheet(curve: CurveSpec, za: complex, wa: complex, z: complex,
                  w: complex) -> int:
    """The j with w = rho^j times the branch wa at za continued to z."""
    rho = np.exp(2j * np.pi / curve.n)
    w0 = track_w(curve, [za, z], wa)[-1]
    j = int(np.argmin([abs(w - w0 * rho ** k) for k in range(curve.n)]))
    if abs(w - w0 * rho ** j) > 1e-6 * max(1.0, abs(w)):
        raise HomologyError("strand sheet identification failed")
    return j


def build_cycles(curve: CurveSpec, chain: Chain) -> list[CyclePolyline]:
    n = curve.n
    edge_lengths = [sum(abs(e.path[i + 1] - e.path[i]) for i in range(len(e.path) - 1))
                    for e in chain.edges]
    base = 0.22 * min(chain.gap, min(edge_lengths))
    cycles = []
    total = len(chain.edges) * (n - 1)
    phi = 0.6180339887498949
    cid = 0
    for ei, edge in enumerate(chain.edges):
        for k in range(n - 1):
            frac = (cid + 1) / (total + 1)
            radius = base * (0.55 + 0.4 * ((frac * phi * 3) % 1.0))
            offset = radius * (0.12 + 0.3 * ((frac + 0.371) % 0.5))
            cycles.append(build_cycle(curve, edge, ei, k, radius, offset))
            cid += 1
    return cycles


# ----------------------------------------------------------------------------
# Crossing counter


_VERTEX_MARGIN = 1e-6


def intersection_number(curve: CurveSpec, ca: CyclePolyline, cb: CyclePolyline) -> int:
    """Signed transversal intersection count of two cycles on the surface.

    Candidate crossings are found with a vectorized all-pairs parametric
    solve; only the few genuine hits pay for sheet identification."""
    a0 = ca.points[:-1]
    a1 = ca.points[1:]
    b0 = cb.points[:-1]
    b1 = cb.points[1:]
    r = (a1 - a0)[:, None]
    s = (b1 - b0)[None, :]
    qp = b0[None, :] - a0[:, None]
    denom = r.real * s.imag - r.imag * s.real
    scale = np.abs(r) * np.abs(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (qp.real * s.imag - qp.imag * s.real) / denom
        u = (qp.real * r.imag - qp.imag * r.real) / denom
    ok = (np.abs(denom) > 1e-12 * scale) & (t > 0.0) & (t < 1.0) & (u > 0.0) & (u < 1.0)
    total = 0
    for i, j in zip(*np.nonzero(ok)):
        ti, uj = t[i, j], u[i, j]
        if min(ti, 1 - ti, uj, 1 - uj) < _VERTEX_MARGIN:
            raise HomologyError("crossing too close to a polyline vertex")
        z = a0[i] + ti * (a1[i] - a0[i])
        wa = track_w(curve, [a0[i], z], ca.w[i])[-1]
        wb = track_w(curve, [b0[j], z], cb.w[j])[-1]
        gapw = abs(curve.w_principal(z)) * abs(1 - np.exp(2j * np.pi / curve.n))
        if abs(wa - wb) < 0.3 * gapw:
            total += 1 if denom[i, j] > 0 else -1
    return total


def intersection_matrix(curve: CurveSpec, cycles: list[CyclePolyline]) -> np.ndarray:
    m = len(cycles)
    M = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            if abs(cycles[i].edge_index - cycles[j].edge_index) > 1:
                continue
            v = intersection_number(curve, cycles[i], cycles[j])
            M[i, j] = v
            M[j, i] = -v
    return M


# ----------------------------------------------------------------------------
# Symplectic reduction over Z


def symplectic_transform(M: np.ndarray) -> np.ndarray:
    """Unimodular S with S M S^t = [[0, I], [-I, 0]] for skew integer M.

    W = S M S^t is kept in step with S: each row operation on S is applied
    to the matching row and column of W.  Fails (raises) when the form is
    degenerate or not unimodular, which for our cycles would indicate a
    homology construction bug.
    """
    M = np.asarray(M, dtype=np.int64)
    m = len(M)
    if m % 2:
        raise HomologyError("odd rank skew form")
    S = np.eye(m, dtype=np.int64)
    W = M.copy()

    def subtract(k, q, i):
        """Row k of S minus q times row i."""
        S[k] -= q * S[i]
        W[k] -= q * W[i]
        W[:, k] -= q * W[:, i]

    remaining = list(range(m))
    pairs = []
    while remaining:
        # the first minimal nonzero entry of the remaining block, row by row
        block = np.abs(W[np.ix_(remaining, remaining)])
        if not block.any():
            raise HomologyError("degenerate intersection form")
        flat = int(np.argmin(np.where(block > 0, block, np.iinfo(np.int64).max)))
        i, j = remaining[flat // len(remaining)], remaining[flat % len(remaining)]
        v = W[i, j]
        # euclidean sweep: clear column j and row i against the pivot
        clean = True
        for k in remaining:
            if k in (i, j):
                continue
            if W[k, j] % v:
                subtract(k, W[k, j] // v, i)
                clean = False
            if W[i, k] % v:
                subtract(k, W[i, k] // v, j)
                clean = False
        if not clean:
            continue
        # now v divides its row and column; eliminate exactly
        for k in remaining:
            if k not in (i, j):
                subtract(k, W[k, j] // v, i)
                subtract(k, W[i, k] // v, j)
        v = W[i, j]
        if abs(v) != 1:
            raise HomologyError(f"intersection form not unimodular (pivot {v})")
        if v < 0:
            i, j = j, i
        pairs.append((i, j))
        remaining = [k for k in remaining if k not in (i, j)]

    Sm = S[[i for i, _ in pairs] + [j for _, j in pairs]]
    g = m // 2
    expect = np.block([[np.zeros((g, g)), np.eye(g)], [-np.eye(g), np.zeros((g, g))]])
    if not np.array_equal(Sm @ M @ Sm.T, expect.astype(np.int64)):
        raise HomologyError("symplectic reduction failed to reach canonical form")
    return Sm


def spin_form(M: np.ndarray, c: Sequence[int]) -> int:
    """Johnson's form q of dz/w^(n-1) on the class sum_j c_j (cycle j), for
    the intersection matrix M of the dumbbells: with q = 1 on each of them,
    q(c) = sum_j c_j + sum_{j<k} c_j c_k M_jk mod 2."""
    x = np.asarray(c, dtype=np.int64) % 2
    return int(x.sum() + x @ np.triu(M, 1) @ x) % 2
