import dataclasses
import itertools

import numpy as np
import pytest

from thetalab.curves import CurveSpec, CurveSpecError
from thetalab.modular import j_invariant
from thetalab.periods import (QUAD_ORDER, PeriodError, SurfacePoint,
                              _random_surface_points, _riemann_vanishing_residual,
                              build_periods)
from thetalab.quadrature import (build_avoiding_path, polyline_integrals,
                                 refine_path_for_quadrature, track_w)
from thetalab.theta import Characteristic, parity, theta_eval, theta_norm_abs
from thetalab.thomae import (char_from_partition_hyp, char_from_partition_trig,
                             enumerate_partitions_hyp, enumerate_partitions_trig)

from conftest import CLOSE_PAIR_LAMBDAS, CLUSTER_LAMBDAS, random_curve
from oracles import (branch_images_by_routes, census_riemann_constant, char_by_snap,
                     cross_ratio_j, rotated_far_anchor, searched_riemann_constant)


def test_curve_spec_validation():
    with pytest.raises(CurveSpecError):
        CurveSpec.of(2, [0, 1])               # even count
    with pytest.raises(CurveSpecError):
        CurveSpec.of(3, [0, 1, 2])            # 3q-1 violated
    with pytest.raises(CurveSpecError):
        CurveSpec.of(2, [0, 1, 1 + 1e-12])    # coincident
    with pytest.raises(CurveSpecError):
        CurveSpec.of(5, [0, 1, 2])


def test_differential_bases():
    c2 = CurveSpec.of(2, [0, 1, 2, 3, 4])
    assert [(d.a, d.m) for d in c2.differentials()] == [(0, 1), (1, 1)]
    c3 = CurveSpec.of(3, [0, 1, 2, 3, 4])
    assert [(d.a, d.m) for d in c3.differentials()] == \
        [(0, 2), (1, 2), (2, 2), (0, 1)]
    # holomorphy: local orders nonnegative at every branch place and infinity
    for c in (c2, c3):
        for d in c.differentials():
            orders = [c.local_order(d, k) for k in range(1, c.num_branch + 1)]
            orders.append(c.local_order(d, "inf"))
            assert min(orders) >= 0
    # the canonical differential dz/w^2 on the trigonal curve: degree 2g-2 at inf
    from thetalab.curves import Differential
    assert c3.local_order(Differential(0, 2), "inf") == 2 * c3.genus - 2


def test_j_invariant_hyperelliptic(hyp_g1):
    c, pd = hyp_g1
    target = cross_ratio_j(0.0, 1.0, 2.0)
    assert abs(target - 1728.0) < 1e-9
    assert abs(j_invariant(pd.tau.matrix[0, 0]) - target) < 1e-6


def test_j_invariant_trigonal(trig_q1):
    c, pd = trig_q1
    assert abs(j_invariant(pd.tau.matrix[0, 0])) < 1e-6


def test_period_invariants_g2(hyp_g2):
    c, pd = hyp_g2
    d = pd.diagnostics
    assert d["tau_asymmetry"] < 1e-8
    assert d["im_tau_min_eig"] > 0
    assert d["quad_drift"] < 1e-9
    tau_scale = 1.0 + np.max(np.abs(pd.tau.matrix))
    for k in pd.aj_branch:
        assert pd.lattice_distance(2 * pd.aj_branch[k]) < 1e-8 * tau_scale
    assert pd.lattice_distance(2 * pd.K) < 1e-8 * tau_scale


def test_branch_parity_census_g2(hyp_g2):
    c, pd = hyp_g2
    odd = 0
    for k in pd.aj_branch:
        ch, res = pd.lattice_reduce(pd.aj_branch[k])
        assert res < 1e-7
        assert ch.is_integral()
        odd += parity(ch)
    assert odd == c.genus           # g odd, g+1 even


def test_riemann_vanishing_g2(hyp_g2):
    c, pd = hyp_g2
    rng = np.random.default_rng(33)
    scale = pd.theta_scale()
    ch0 = Characteristic.zero(2)
    for _ in range(6):
        pts = _random_surface_points(pd, 1, rng)
        arg = pd.abel_jacobi_divisor(pts) + pd.K
        assert theta_norm_abs(ch0, arg, pd.tau) < 1e-7 * scale


FIXTURE_CURVES = ["hyp_g1", "hyp_g2", "hyp_g2_batch", "hyp_g3",
                  "trig_q1", "trig_q2", "trig_q2_batch"]


def _fixture_periods(name, request):
    value = request.getfixturevalue(name)
    return value if isinstance(value, list) else [value]


@pytest.mark.parametrize("fixture", FIXTURE_CURVES)
def test_riemann_constant_matches_search_and_census(fixture, request):
    for c, pd in _fixture_periods(fixture, request):
        assert pd.K_char == searched_riemann_constant(pd)
        if c.n == 2:
            assert pd.K_char == census_riemann_constant(pd)


@pytest.mark.parametrize("fixture", ["hyp_g1", "hyp_g2", "hyp_g3", "trig_q1", "trig_q2"])
def test_every_wrong_half_period_fails_the_check(fixture, request):
    c, pd = request.getfixturevalue(fixture)
    g = c.genus
    for bits in itertools.product((0, 1), repeat=2 * g):
        ch = Characteristic.of(bits[:g], bits[g:])
        if ch == pd.K_char:
            continue
        wrong = dataclasses.replace(pd, K=pd.char_to_vector(ch), K_char=ch, diagnostics={})
        wrong._theta_scale = pd._theta_scale
        with pytest.raises(PeriodError, match="not the Riemann constant"):
            _riemann_vanishing_residual(wrong)


def test_genus_7_periods(trig_q3_g7):
    c, pd = trig_q3_g7
    assert c.genus == 7
    assert pd.K_char == Characteristic.of([1, 0, 0, 1, 0, 0, 1], [1] * 7)
    d = pd.diagnostics
    tau_scale = 1.0 + np.max(np.abs(pd.tau.matrix))
    assert d["tau_asymmetry"] < 1e-8
    assert d["im_tau_min_eig"] > 0
    assert d["quad_drift"] < 1e-9
    assert d["order_n_lattice_dist"] <= 1e-13 * tau_scale
    assert d["K_vanishing_residual"] < 1e-7
    assert d["a1_direct_check"] <= 1e-10


@pytest.mark.parametrize("n,lams", [(2, [0, 1, 2]), (2, [0, 1, 2, 3, 4]), (3, [0, 1])])
def test_reversed_intersection_form_is_a_homology_bug(n, lams, monkeypatch):
    # the cycles' orientation fixes Im tau > 0; a form of the opposite sign
    # is not repaired by swapping a and b
    import thetalab.periods
    real = thetalab.periods.intersection_matrix
    monkeypatch.setattr(thetalab.periods, "intersection_matrix",
                        lambda curve, cycles: -real(curve, cycles))
    with pytest.raises(PeriodError, match="Im tau is indefinite"):
        build_periods(CurveSpec.of(n, lams))


def test_direct_a1_check_accepts_spread_curve():
    # 10 nodes per polyline segment missed these a_1-periods by 3.0e-5
    c = random_curve(2, 7, 7004, box=4.1, min_gap=0.7)
    assert build_periods(c).diagnostics["a1_direct_check"] <= 1e-12


@pytest.mark.parametrize("lambdas", list(CLOSE_PAIR_LAMBDAS.values()) + [CLUSTER_LAMBDAS],
                         ids=list(CLOSE_PAIR_LAMBDAS) + ["cluster"])
def test_direct_a1_check_resolves_close_branch_points(lambdas):
    # 40 nodes per raw polyline segment missed these a_1-periods by 4e-9,
    # 6e-8 and 5e-10 relative, and period construction failed; on legs
    # refined against the branch points the re-check agrees to rounding
    pd = build_periods(CurveSpec.of(3, lambdas))
    assert pd.diagnostics["a1_direct_check"] <= 1e-13
    assert pd.diagnostics["quad_drift"] < 1e-13


@pytest.mark.xfail(strict=True, raises=PeriodError,
                   reason="surface points are drawn around the origin, not the cluster")
def test_cluster_samples_a_nonspecial_divisor():
    from thetalab.thomae import verify_quotient_trig
    c = CurveSpec.of(3, CLUSTER_LAMBDAS)
    assert verify_quotient_trig(c, build_periods(c), 1, seed=1).passed


def test_quadrature_drift_from_half_order_raises(monkeypatch):
    # the periods at QUAD_ORDER // 2 are moved by 1e-8 relative, above
    # QUAD_DRIFT_TARGET; no higher order is tried
    import thetalab.periods
    from thetalab.periods import QUAD_DRIFT_TARGET, QUAD_ORDER
    real = thetalab.periods._edge_raw_integrals
    orders = []

    def perturbed(curve, chain, diffs, order):
        orders.append(order)
        E = real(curve, chain, diffs, order)
        return E * (1 + 1e-8) if order == QUAD_ORDER // 2 else E
    monkeypatch.setattr(thetalab.periods, "_edge_raw_integrals", perturbed)
    assert QUAD_DRIFT_TARGET < 1e-8
    with pytest.raises(PeriodError, match="quadrature did not converge"):
        build_periods(CurveSpec.of(2, [0, 1, 2, 3, 4]))
    assert orders == [QUAD_ORDER // 2, QUAD_ORDER]


def _route_from_infinity(pd, pt):
    """u(pt) along an independent route: an infinity leg to a far point off
    the ray that build_periods takes, then an avoiding polyline from z_far
    through a detour waypoint to pt, its sheet at z_far matched against
    w_far."""
    c = pd.curve
    z_far, w_far, inf_leg = rotated_far_anchor(c, QUAD_ORDER)
    mid = pt.z + 2.5 - 1.5j
    path1 = build_avoiding_path(z_far, mid, list(c.lambdas), 0.3)
    path2 = build_avoiding_path(mid, pt.z, list(c.lambdas), 0.3)
    path = refine_path_for_quadrature(path1[:-1] + path2, list(c.lambdas))
    res = polyline_integrals(c, path, c.differentials(), QUAD_ORDER,
                             sing_start=False, sing_end=False,
                             w_anchor=pt.w, anchor_index=len(path) - 1)
    rho = np.exp(2j * np.pi / c.n)
    w_start = track_w(c, path[::-1], pt.w)[-1]
    j = int(np.argmin([abs(w_start - w_far * rho ** k) for k in range(c.n)]))
    diffs = c.differentials()
    y = np.array([inf_leg[i] * rho ** (-j * d.m) for i, d in enumerate(diffs)]) + res
    return np.linalg.solve(pd.C, y)


def _near_branch_points(pd, seed, count):
    """Seeded points within half the smallest branch-point gap of a branch
    point, on random sheets: no other branch point comes near their leg."""
    c = pd.curve
    lams = np.asarray(c.lambdas)
    gap = min(abs(a - b) for i, a in enumerate(lams) for b in lams[i + 1:])
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(0, len(lams)))
        z = lams[k] + 0.5 * gap * rng.uniform(0.05, 1.0) * np.exp(2j * np.pi * rng.random())
        sheet = np.exp(2j * np.pi * rng.integers(0, c.n) / c.n)
        out.append(SurfacePoint(z, c.w_principal(z) * sheet))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("fixture", ["hyp_g2", "trig_q2"])
def test_abel_jacobi_path_independence(fixture, seed, request):
    c, pd = request.getfixturevalue(fixture)
    pts = _random_surface_points(pd, 1, np.random.default_rng(seed))
    for pt in pts + _near_branch_points(pd, seed, 1):
        assert pd.lattice_distance(pd.abel_jacobi_point(pt) - _route_from_infinity(pd, pt)) < 1e-9


@pytest.mark.parametrize("fixture", ["hyp_g2", "hyp_g3", "trig_q1", "trig_q2"])
def test_branch_images_match_one_route_each(fixture, request):
    # the chain-edge sums and the old per-branch-point routes may end on
    # different lifts, so they agree modulo the lattice
    c, pd = request.getfixturevalue(fixture)
    routes = branch_images_by_routes(pd)
    assert sorted(pd.aj_branch) == sorted(routes)
    for k, u in pd.aj_branch.items():
        assert pd.lattice_distance(u - routes[k]) <= 1e-11


def test_build_periods_takes_no_route_from_infinity(monkeypatch):
    # Abel's theorem anchors the chain-edge sums: no leg from infinity
    import thetalab.periods
    import thetalab.quadrature
    calls = []
    real = thetalab.quadrature.infinity_leg_integrals

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(thetalab.quadrature, "infinity_leg_integrals", counted)
    monkeypatch.setattr(thetalab.periods, "infinity_leg_integrals", counted, raising=False)
    for c in (CurveSpec.of(2, [0, 1, 2, 3, 4]), random_curve(3, 5, 7)):
        build_periods(c)
    assert calls == []


def _partition_characteristics(c, pd):
    """(characteristic, branch multiplicities) of every partition of c: the
    hyperelliptic ones of each index m, the trigonal ones of each kind with
    infinity in each part."""
    if c.n == 2:
        for m in range((c.genus + 1) // 2 + 1):
            for p in enumerate_partitions_hyp(c.genus, m):
                yield char_from_partition_hyp(p, pd), {i: 1 for i in p.I.finite}
    else:
        for kind in ("constant", "deriv1", "deriv2"):
            for loc in (0, 1, 2):
                for p in enumerate_partitions_trig(c.q, kind, loc):
                    yield (char_from_partition_trig(p, pd),
                           {i: mult for mult, part in ((1, p.L1), (2, p.L2))
                            for i in part.finite})


@pytest.mark.parametrize("fixture", FIXTURE_CURVES + ["trig_q3_g7"])
def test_exact_characteristics_match_the_float_snap(fixture, request):
    # each branch point's characteristic and every partition's, against
    # the float sums snapped once per partition that they replaced, here
    # summed from one independent route per branch point
    for c, pd in _fixture_periods(fixture, request):
        routes = branch_images_by_routes(pd)
        for k in routes:
            assert pd.branch_char[k] == pd.characteristic({k: 1}, plus_K=False) \
                == char_by_snap(pd, routes, {k: 1}, plus_K=False)
        for ch, counts in _partition_characteristics(c, pd):
            assert ch == char_by_snap(pd, routes, counts)


@pytest.mark.parametrize("fixture", ["hyp_g2_batch", "trig_q2_batch"])
def test_periods_reach_rounding_level(fixture, request):
    for c, pd in request.getfixturevalue(fixture):
        tau_scale = 1.0 + np.max(np.abs(pd.tau.matrix))
        assert pd.diagnostics["order_n_lattice_dist"] <= 1e-13 * tau_scale
        assert pd.diagnostics["quad_drift"] <= 1e-13


@pytest.mark.parametrize("fixture", ["hyp_g2", "trig_q2"])
def test_abel_jacobi_point_is_one_leg(fixture, request, monkeypatch):
    import thetalab.quadrature
    c, pd = request.getfixturevalue(fixture)
    calls = []
    leg = thetalab.quadrature.leg_integrals

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return leg(*args, **kwargs)

    monkeypatch.setattr(thetalab.quadrature, "leg_integrals", counted)
    for pt in _near_branch_points(pd, 5, 6):
        calls.clear()
        pd.abel_jacobi_point(pt)
        assert len(calls) == 1 and calls[0][1] == pt.z


@pytest.mark.parametrize("fixture", ["hyp_g2", "trig_q2"])
def test_abel_jacobi_divisor_in_fixed_cell(fixture, request):
    c, pd = request.getfixturevalue(fixture)
    rng = np.random.default_rng(17)
    for _ in range(4):
        pts = _random_surface_points(pd, c.genus, rng)
        u = pd.abel_jacobi_divisor(pts)
        eps, delta = pd.lattice_coords(u)
        assert np.max(np.abs(np.concatenate([eps, delta]) / 2.0)) <= 0.5 + 1e-12
        assert pd.lattice_distance(u - sum(pd.abel_jacobi_point(p) for p in pts)) < 1e-12


@pytest.mark.parametrize("fixture", ["hyp_g2", "trig_q2"])
def test_theta_quotient_power_is_lift_invariant(fixture, request):
    """(theta[u(P_k)](a) / theta(a))^n does not see a -> a + tau m + l, so the
    quotient identities do not depend on the lift of the divisor image."""
    c, pd = request.getfixturevalue(fixture)
    g = c.genus
    rng = np.random.default_rng(5)
    a = pd.tau.matrix @ rng.uniform(-0.5, 0.5, g) + rng.uniform(-0.5, 0.5, g)
    ch0 = Characteristic.zero(g)

    def quotient(arg, ch):
        return (theta_eval(ch, arg, pd.tau, 1e-13).value
                / theta_eval(ch0, arg, pd.tau, 1e-13).value) ** c.n

    for k in (1, 2, c.num_branch):
        ch, _ = pd.lattice_reduce(pd.aj_branch[k])
        q0 = quotient(a, ch)
        for _ in range(3):
            m = rng.integers(-2, 3, g)
            l = rng.integers(-2, 3, g)
            q = quotient(a + pd.tau.matrix @ m + l, ch)
            assert abs(q - q0) <= 1e-9 * abs(q0)


def test_fiber_sum_is_lattice(trig_q2):
    c, pd = trig_q2
    rho = np.exp(2j * np.pi / 3)
    z = 0.37 - 0.21j
    w = c.w_principal(z)
    total = sum(pd.abel_jacobi_point(SurfacePoint(z, w * rho ** j)) for j in range(3))
    assert pd.lattice_distance(total) < 1e-9


def test_branch_point_limit_consistency(hyp_g2):
    c, pd = hyp_g2
    k = 3
    z = c.lam(k) + 1e-5 * (0.8 + 0.6j)
    for sgn in (1, -1):
        u = pd.abel_jacobi_point(SurfacePoint(z, sgn * c.w_principal(z)))
        assert pd.lattice_distance(u - pd.aj_branch[k]) < 5e-3


def test_trig_invariants(trig_q2):
    c, pd = trig_q2
    d = pd.diagnostics
    assert d["tau_asymmetry"] < 1e-8
    assert d["im_tau_min_eig"] > 0
    assert d["quad_drift"] < 1e-9
    tau_scale = 1.0 + np.max(np.abs(pd.tau.matrix))
    for k in pd.aj_branch:
        assert pd.lattice_distance(3 * pd.aj_branch[k]) < 1e-8 * tau_scale
        ch, res = pd.lattice_reduce(pd.aj_branch[k])
        assert res < 1e-7
        assert all(x.denominator in (1, 3) for x in ch.eps + ch.delta)
    assert pd.lattice_distance(2 * pd.K) < 1e-8 * tau_scale
    assert d["K_vanishing_residual"] < 1e-7


def test_lattice_reduce_basics(hyp_g2):
    c, pd = hyp_g2
    ch, res = pd.lattice_reduce(np.zeros(2, dtype=complex))
    assert all(x == 0 for x in ch.eps + ch.delta) and res < 1e-12
    v = pd.tau.matrix @ np.array([0.5, 0.0])
    ch, res = pd.lattice_reduce(v)
    assert [str(x) for x in ch.eps] == ["1", "0"]
    assert all(x == 0 for x in ch.delta)


def test_lattice_reduce_snap_failure(hyp_g2):
    from thetalab.periods import PeriodError
    c, pd = hyp_g2
    v = pd.tau.matrix @ np.array([0.5 + 0.04, 0.0])
    with pytest.raises(PeriodError):
        pd.lattice_reduce(v)


def test_theta_json_roundtrip_of_curve():
    c = CurveSpec.of(3, [0.5 + 1j, -1, 2 - 0.5j, 3, 1 + 2j])
    c2 = CurveSpec.from_json(c.to_json())
    assert c2 == c
