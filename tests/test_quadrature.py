import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from thetalab import homology, periods, quadrature
from thetalab.algebra import principal_power
from thetalab.curves import CurveSpec
from thetalab.quadrature import (QuadratureError, infinity_leg_integrals,
                                 leg_integrals, polyline_legs, refine_path_for_quadrature,
                                 track_w)

from conftest import COPRIME_COVERS, random_curve
from oracles import infinity_leg_by_continuation, scalar_track, seg_distance

CURVES = [CurveSpec.of(2, [0, 1, 2, 3, 4]),
          random_curve(2, 7, 42, box=3.0, min_gap=0.9),
          CurveSpec.of(3, [0, 1]),
          random_curve(3, 5, 7)]
IDS = ["hyp-g2", "hyp-g3", "trig-q1", "trig-q2"]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and bool((a.view(np.int64) == b.view(np.int64)).all())


def rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def seeded_polyline(curve: CurveSpec, seed: int) -> list[complex]:
    """A far start like the z_far of the route from infinity (a long first
    step), random points around the branch points, and zero-length steps at
    the start and in the middle."""
    rng = np.random.default_rng(seed)
    scale = max(abs(x) for x in curve.lambdas) + 1.0
    pts = [3.0 * scale * np.exp(1j * rng.uniform(0, 2 * np.pi))]
    pts += [complex(*rng.uniform(-1.5, 1.5, 2) * scale) for _ in range(12)]
    pts.insert(0, pts[0])
    pts.insert(6, pts[5])
    return pts


@pytest.mark.parametrize("curve", CURVES, ids=IDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_track_w_matches_scalar_oracle(curve, seed):
    pts = seeded_polyline(curve, seed)
    sheet = np.exp(2j * np.pi * seed / curve.n)
    w0 = curve.w_principal(pts[0]) * sheet
    got = track_w(curve, pts, w0)
    want = scalar_track(pts, w0, curve.lambdas, curve.n, curve.w_principal)
    assert same_bits(got, want)
    assert got[1] == w0             # a leading zero-length step keeps w_start


def _scalar_leg_from_branch(curve, k, z1, w1, order):
    """Frozen scalar sum of leg_integrals on the leg lambda_k -> z1 anchored
    at z1: the smooth part psi tracked by the oracle over the same nodes,
    Gauss-Legendre in t after 1 + x = 2 t^n."""
    n = curve.n
    z0 = curve.lam(k)
    lams = [lam for i, lam in enumerate(curve.lambdas) if i + 1 != k]
    hv = (z1 - z0) / 2.0
    mid = (z0 + z1) / 2.0

    def psi_principal(z):
        prod = 1.0 + 0.0j
        for lam in lams:
            prod *= z - lam
        return principal_power(prod, 1.0 / n)

    y, w = np.polynomial.legendre.leggauss(order)
    t = (y + 1.0) / 2.0
    x = -1.0 + 2.0 * t ** n        # 1 + x = 2 t^n
    out = []
    for d in curve.differentials():
        wts = 2.0 ** (-d.m / n) * n * t ** (n - 1 - d.m) * w
        zs = mid + x * hv
        k_fac = (1.0 + 0.0j) * principal_power(hv, 1.0 / n)
        psi_anchor = w1 / (2.0 ** (1.0 / n) * k_fac)
        chain = np.concatenate([[z1], zs[::-1]])
        psi = scalar_track(chain, psi_anchor, lams, n, psi_principal)[1:][::-1]
        vals = np.power(zs, d.a) if d.a else np.ones_like(zs)
        out.append(hv * k_fac ** (-d.m) * np.sum(wts * vals * psi ** (-d.m)))
    return np.array(out)


@pytest.mark.parametrize("curve", CURVES, ids=IDS)
def test_smooth_part_matches_scalar_sum(curve):
    # the leg's product of principal roots rounds differently from the
    # oracle's root of the product: equal sheets, values to a few ulps
    z1 = 0.7 + 1.9j
    w1 = curve.w_principal(z1)
    for k in range(1, curve.num_branch + 1):
        (got,) = leg_integrals(curve, [curve.lam(k)], [z1], curve.differentials(), 40,
                               [True], [False], [w1], [True])
        assert rel_err(got, _scalar_leg_from_branch(curve, k, z1, w1, 40)) <= 1e-14


def _legs_of_every_kind(curve, seed):
    """Seeded legs from each branch point (singular start, anchored at the
    end) and to it (singular end, anchored at the start), free legs anchored
    at either end, on random sheets given as Python and numpy complexes,
    and the legs of a refined path from a branch point past another one."""
    rng = np.random.default_rng(seed)
    scale = max(abs(x) for x in curve.lambdas) + 1.0

    def point():
        return complex(*rng.uniform(-1.5, 1.5, 2) * scale)

    def sheet(z):
        w = curve.w_principal(z) * np.exp(2j * np.pi * rng.integers(0, curve.n) / curve.n)
        return w if rng.random() < 0.5 else complex(w)
    legs = []
    for lam in curve.lambdas:
        z = point()
        legs.append((lam, z, True, False, sheet(z), True))
        z = point()
        legs.append((z, lam, False, True, sheet(z), False))
    for end in (False, True, False, True):
        a, b = point(), point()
        legs.append((a, b, False, False, sheet(b if end else a), end))
    lam0, lam1 = curve.lambdas[:2]
    far = lam0 + (lam1 - lam0) * (2.5 + 0.05j)
    path = refine_path_for_quadrature([lam0, far], curve.lambdas[1:])
    path_legs = polyline_legs(curve, path, True, False, sheet(far), len(path) - 1)
    assert len(path_legs) > 2
    return legs + path_legs


@pytest.mark.parametrize("curve", [CURVES[0], CURVES[3], random_curve(*COPRIME_COVERS[2], 7)],
                         ids=["hyp-g2", "trig-q2", "n5-N3"])
@pytest.mark.parametrize("order", [40, 128])
def test_batched_legs_equal_single_legs_bit_for_bit(curve, order):
    # every singular side and both anchor ends, and the legs of a refined
    # path, in one call give each leg's own call bit for bit
    diffs = curve.differentials()
    legs = _legs_of_every_kind(curve, 31)
    z0, z1, sing0, sing1, w, end = zip(*legs)
    rows = leg_integrals(curve, z0, z1, diffs, order, sing0, sing1, w, end)
    assert rows.shape == (len(legs), len(diffs))
    for row, (a, b, s0, s1, wa, e) in zip(rows, legs):
        assert same_bits(row, leg_integrals(curve, [a], [b], diffs, order, [s0], [s1],
                                            [wa], [e])[0])


def test_batched_legs_report_the_first_bad_leg():
    # a leg through a branch point and a lost sheet raise as the first leg
    # at fault, in leg order, says
    curve = CURVES[0]
    diffs = curve.differentials()
    good = (0.5 + 1j, 3.5 + 1j, False, False, curve.w_principal(0.5 + 1j), False)
    through = (1.5, 2.5, False, False, curve.w_principal(1.5 + 0.5j), True)
    lost = (0.5 + 1j, 3.5 + 1j, False, False, 0.0, False)
    for legs, match in (([good, through, lost], r"leg 1.5 -> 2.5 passes through"),
                        ([good, lost, through], "separation near")):
        z0, z1, sing0, sing1, w, end = zip(*legs)
        with pytest.raises(QuadratureError, match=match):
            leg_integrals(curve, z0, z1, diffs, 16, sing0, sing1, w, end)


@pytest.mark.parametrize("m, n", [(1, 2), (1, 3), (2, 3)])
@pytest.mark.parametrize("side", [-1, 1])
def test_leg_rule_against_mpmath(m, n, side):
    # (1 - side x)^{-m/n} e^x / (x - 3) over [-1, 1]; the reference takes
    # 1 - side x = t^n on [0, 2^{1/n}], where the integrand is smooth
    with mpmath.workdps(30):
        ref = complex(mpmath.quad(
            lambda t: n * t ** (n - 1 - m) * mpmath.exp(side * (1 - t ** n))
            / (side * (1 - t ** n) - 3), [0, mpmath.root(2, n)]))
    for order in (24, 32, 64, 96, 128, 192, 256):
        x, wts = quadrature._leg_rule(order, n, side)
        assert abs(np.sum(wts[m] * np.exp(x) / (x - 3)) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("curve", CURVES, ids=IDS)
@pytest.mark.parametrize("order", [32, 96])
def test_infinity_leg_matches_continuation(curve, order):
    z_far = (5.0 * max(abs(x) for x in curve.lambdas) + 5.0) * np.exp(0.2345j)
    diffs = curve.differentials()
    for sheet in range(curve.n):
        w_far = curve.w_principal(z_far) * np.exp(2j * np.pi * sheet / curve.n)
        got = infinity_leg_integrals(curve, z_far, w_far, diffs, order)
        assert rel_err(got, infinity_leg_by_continuation(curve, z_far, w_far, diffs,
                                                         order)) <= 1e-14


@pytest.mark.parametrize("z0, z1, sing0", [(1.5, 2.5, False),            # across lambda = 2
                                           (2.0, 2.5 + 1.0j, False),     # ends on it, unflagged
                                           (0.0, 1.0 + 1e-12j, True)])   # ends at lambda = 1
def test_leg_through_a_branch_point_fails(z0, z1, sing0):
    curve = CURVES[0]
    w1 = curve.w_principal(z1 + 0.5j)
    with pytest.raises(QuadratureError, match="through the branch point"):
        leg_integrals(curve, [z0], [z1], curve.differentials(), 16, [sing0], [False], [w1],
                      [True])


def test_build_periods_tracks_no_quadrature_node(monkeypatch):
    # track_w sees the polyline vertices, the cycle points and two-point
    # steps from those to crossings and strand points; the quadrature
    # nodes of every leg take their sheets from the leg's closed form
    curve = CURVES[2]
    tracked, vertices, cycle_points = [], [], []
    real_track, real_polyline = quadrature.track_w, periods.polyline_legs
    real_cycle = homology.build_cycle

    def track(curve, zs, w_start):
        tracked.append([complex(z) for z in zs])
        return real_track(curve, zs, w_start)

    def polyline(curve, points, *args, **kwargs):
        vertices.append([complex(z) for z in points])
        return real_polyline(curve, points, *args, **kwargs)

    def cycle(*args, **kwargs):
        out = real_cycle(*args, **kwargs)
        cycle_points.append(list(out.points))
        return out

    for module in (quadrature, homology):
        monkeypatch.setattr(module, "track_w", track)
    monkeypatch.setattr(periods, "polyline_legs", polyline)
    monkeypatch.setattr(homology, "build_cycle", cycle)
    periods.build_periods(curve)
    known = {z for pts in vertices + cycle_points for z in pts}
    for zs in tracked:
        assert set(zs[:1] if len(zs) == 2 else zs) <= known
    two_point = sum(len(zs) == 2 for zs in tracked)
    bound = (sum(len(pts) + 1 for pts in vertices) + sum(map(len, cycle_points))
             + 2 * two_point)
    assert sum(map(len, tracked)) <= bound


@pytest.mark.parametrize("curve", CURVES, ids=IDS)
def test_branch_leg_tracks_nothing(curve, monkeypatch):
    # a two-point branch leg has one non-singular vertex, the anchor: no
    # track_w run, and the leg's own anchor check still rejects a bad start
    calls = []
    real_track = quadrature.track_w

    def track(*args):
        calls.append(args)
        return real_track(*args)

    monkeypatch.setattr(quadrature, "track_w", track)
    lam = curve.lambdas[0]
    z = lam + 0.3 + 0.2j
    w = curve.w_principal(z)
    diffs = curve.differentials()
    res = quadrature.polyline_integrals(curve, [lam, z], diffs, 24, True, False, w, 1)
    assert calls == []
    assert same_bits(res, leg_integrals(curve, [lam], [z], diffs, 24, [True], [False], [w],
                                        [True])[0])
    with pytest.raises(QuadratureError, match="separation"):
        quadrature.polyline_integrals(curve, [lam, z], diffs, 24, True, False, 0.0, 1)
    assert calls == []


def _circle(center, radius, clockwise=False, count=48):
    t = np.linspace(0.0, 2 * np.pi, count + 1)[:-1] * (-1 if clockwise else 1)
    pts = list(center + radius * np.exp(1j * t))
    return pts + [pts[0]]


@pytest.mark.parametrize("curve", CURVES, ids=IDS)
def test_monodromy_of_one_loop(curve):
    n = curve.n
    gap = min(abs(a - b) for i, a in enumerate(curve.lambdas)
              for b in curve.lambdas[i + 1:])
    for lam in curve.lambdas:
        for clockwise, turn in ((False, 1), (True, -1)):
            loop = _circle(lam, 0.4 * gap, clockwise)
            w = track_w(curve, loop, curve.w_principal(loop[0]))
            assert abs(w[-1] / w[0] - np.exp(2j * np.pi * turn / n)) < 1e-12
    # a loop around no branch point returns to the start value
    far = 2.0 * (max(abs(x) for x in curve.lambdas) + 1.0)
    loop = _circle(far, 0.5)
    w = track_w(curve, loop, curve.w_principal(loop[0]))
    assert abs(w[-1] / w[0] - 1.0) < 1e-12


@pytest.mark.parametrize("curve, lam", [(CURVES[0], 2.0), (CURVES[3], CURVES[3].lambdas[2])],
                         ids=["hyp-g2", "trig-q2"])
def test_chain_through_branch_point_fails_fast(curve, lam):
    t0 = time.perf_counter()
    with pytest.raises(QuadratureError, match="through a branch point"):
        track_w(curve, [lam - 0.5j, lam + 0.5j], curve.w_principal(lam - 0.5j))
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("curve", CURVES, ids=IDS)
@pytest.mark.parametrize("side", [1, -1])
def test_step_grazing_a_branch_point_matches_scalar_oracle(curve, side):
    # the step passes at 1e-6 of its length from lambda_1, where the scalar
    # step rule bisects it 23 to 25 levels deep
    lam = curve.lambdas[0]
    gap = min(abs(lam - x) for x in curve.lambdas[1:])
    u = np.exp(0.3j)
    pts = [lam - 0.4 * gap * u + side * 0.8e-6 * gap * 1j * u, lam + 0.4 * gap * u]
    w0 = curve.w_principal(pts[0])
    got = track_w(curve, pts, w0)
    assert same_bits(got, scalar_track(pts, w0, curve.lambdas, curve.n, curve.w_principal))


@pytest.mark.parametrize("curve", CURVES, ids=IDS)
def test_polyline_on_a_branch_point_fails(curve):
    lam = curve.lambdas[-1]
    z = lam + 0.3 + 0.2j
    with pytest.raises(QuadratureError, match="onto a branch point"):
        track_w(curve, [lam, z, z + 0.1], 1.0)
    with pytest.raises(QuadratureError, match="onto a branch point"):
        track_w(curve, [z + 0.1, z, lam], curve.w_principal(z + 0.1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
def test_non_finite_point_fails_fast(bad):
    curve = CURVES[0]
    with pytest.raises(QuadratureError, match="non-finite"):
        track_w(curve, [0.5 + 1j, bad, 1.5 + 1j], curve.w_principal(0.5 + 1j))


@pytest.mark.parametrize("curve", CURVES, ids=IDS)
def test_infinity_leg_needs_a_separated_start(curve):
    # a start value halfway between two sheets has no nearest root
    z_far = 3.0 * (max(abs(x) for x in curve.lambdas) + 1.0)
    w_far = curve.w_principal(z_far)
    diffs = curve.differentials()
    infinity_leg_integrals(curve, z_far, w_far, diffs, 32)
    with pytest.raises(QuadratureError, match="separation"):
        infinity_leg_integrals(curve, z_far, w_far * np.exp(1j * np.pi / curve.n),
                               diffs, 32)


_coord = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(curve=st.sampled_from(CURVES),
       pts=st.lists(st.builds(complex, _coord, _coord), min_size=2, max_size=6),
       sheet=st.integers(0, 2))
def test_track_w_sheets_match_oracle_clear_of_branch_points(curve, pts, sheet):
    clear = min(seg_distance(a, b, lam) if a != b else abs(a - lam)
                for a, b in zip(pts, pts[1:]) for lam in curve.lambdas)
    assume(clear > 0.05)
    w0 = curve.w_principal(pts[0]) * np.exp(2j * np.pi * sheet / curve.n)
    got = track_w(curve, pts, w0)
    want = scalar_track(pts, w0, curve.lambdas, curve.n, curve.w_principal)
    assert same_bits(got, want)
