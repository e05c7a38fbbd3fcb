import math
import os
import sys
import time
import tracemalloc

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thetalab.theta
from thetalab.curves import CurveSpec
from thetalab.periods import build_periods
from thetalab.theta import (_S_GRID, Characteristic, RiemannMatrix, ThetaError,
                            _enumerate_ellipsoid, _radius, _range_reduce,
                            reduce_characteristic, theta_eval,
                            theta_grad, theta_halfint_table, theta_norm_abs, theta_sums,
                            truncation_radius)

from conftest import random_riemann_matrix
from oracles import (THETA_AT_I, FractionCharacteristic, apply_transchar, count_parities,
                     gaussian_lattice_sum, mp_theta, naive_theta, naive_theta_grad,
                     packing_radius, parity, recursive_enumerate)


def test_classical_value_at_i():
    tau = RiemannMatrix([[1j]])
    v = theta_eval(Characteristic.zero(1), [0.0], tau, 1e-14)
    assert abs(v.value - THETA_AT_I) < 1e-13
    assert v.truncation_bound <= 1e-14


def test_odd_characteristic_vanishes():
    tau = RiemannMatrix([[0.3 + 1.1j]])
    v = theta_eval(Characteristic.of([1], [1]), [0.0], tau, 1e-12)
    assert abs(v.value) < 1e-12


def test_matches_naive_box_sum():
    rng = np.random.default_rng(10)
    for g in (1, 2, 3):
        for _ in range(3):
            tau = RiemannMatrix(random_riemann_matrix(g, rng))
            eps = rng.integers(0, 2, g)
            delta = rng.integers(0, 2, g)
            zeta = rng.normal(size=g) * 0.5 + 1j * rng.normal(size=g) * 0.3
            ours = theta_eval(Characteristic.of(eps, delta), zeta, tau, 1e-12).value
            ref = naive_theta(eps, delta, zeta, tau.matrix)
            assert abs(ours - ref) < 1e-11


def test_gradient_matches_naive():
    rng = np.random.default_rng(11)
    g = 2
    tau = RiemannMatrix(random_riemann_matrix(g, rng))
    zeta = rng.normal(size=g) * 0.3 + 1j * rng.normal(size=g) * 0.2
    ch = Characteristic.of([1, 0], [0, 1])
    ours = theta_grad(ch, zeta, tau, 1e-10).values
    ref = naive_theta_grad([1, 0], [0, 1], zeta, tau.matrix)
    assert np.max(np.abs(ours - ref)) < 1e-9


def test_quasi_periodicity():
    rng = np.random.default_rng(12)
    for g in (1, 2, 4):
        tau = RiemannMatrix(random_riemann_matrix(g, rng))
        ch = Characteristic.of(rng.integers(0, 2, g), rng.integers(0, 2, g))
        zeta = rng.normal(size=g) * 0.4 + 1j * rng.normal(size=g) * 0.4
        n = rng.integers(-2, 3, g)
        l = rng.integers(-2, 3, g)
        lhs = theta_eval(ch, zeta + tau.matrix @ n + l, tau, 1e-12).value
        eps = ch.eps_float()
        delta = ch.delta_float()
        pref = np.exp(2j * np.pi * (-n @ tau.matrix @ n / 2.0 - n @ zeta
                                    + (l @ eps - n @ delta) / 2.0))
        rhs = pref * theta_eval(ch, zeta, tau, 1e-12).value
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)


def test_parity_identity_halfint():
    rng = np.random.default_rng(13)
    for g in (1, 3):
        tau = RiemannMatrix(random_riemann_matrix(g, rng))
        eps = rng.integers(0, 2, g)
        delta = rng.integers(0, 2, g)
        ch = Characteristic.of(eps, delta)
        zeta = rng.normal(size=g) * 0.3 + 1j * rng.normal(size=g) * 0.3
        lhs = theta_eval(ch, -zeta, tau, 1e-12).value
        rhs = (np.exp(-2j * np.pi * (eps @ delta) / 2.0)
               * theta_eval(ch, zeta, tau, 1e-12).value)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_transchar_identity():
    rng = np.random.default_rng(14)
    g = 3
    tau = RiemannMatrix(random_riemann_matrix(g, rng))
    ch = Characteristic.of([1, 0, 1], [0, 1, 1])
    zeta = rng.normal(size=g) * 0.3 + 1j * rng.normal(size=g) * 0.2
    shifted, pref = apply_transchar(ch, zeta, tau)
    lhs = theta_eval(ch, zeta, tau, 1e-12).value
    rhs = pref * theta_eval(Characteristic.zero(g), shifted, tau, 1e-12).value
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)
    # zero characteristic: trivial shift
    sh0, p0 = apply_transchar(Characteristic.zero(g), zeta, tau)
    assert np.allclose(sh0, zeta) and abs(p0 - 1) < 1e-15


def test_reduce_characteristic():
    ch, phase = reduce_characteristic(Characteristic.of([2, 0], [0, 0]))
    assert ch.eps == Characteristic.zero(2).eps and abs(phase - 1) < 1e-15
    ch, phase = reduce_characteristic(Characteristic.of([1, 0], [2, 0]))
    assert [str(x) for x in ch.eps] == ["1", "0"]
    assert [str(x) for x in ch.delta] == ["0", "0"]
    assert abs(phase + 1) < 1e-12
    ch2, phase2 = reduce_characteristic(ch)
    assert ch2 == ch and abs(phase2 - 1) < 1e-15


def test_reduction_consistency_numeric():
    rng = np.random.default_rng(15)
    g = 2
    tau = RiemannMatrix(random_riemann_matrix(g, rng))
    zeta = rng.normal(size=g) * 0.2 + 1j * rng.normal(size=g) * 0.2
    big = Characteristic.of([3, -2], [4, 5])
    red, phase = reduce_characteristic(big)
    lhs = theta_eval(big, zeta, tau, 1e-12).value
    rhs = phase * theta_eval(red, zeta, tau, 1e-12).value
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)


def test_parity_and_census():
    assert parity(Characteristic.zero(2)) == 0
    assert parity(Characteristic.of([1], [1])) == 1
    with pytest.raises(ValueError):
        from fractions import Fraction
        parity(Characteristic.of([Fraction(1, 3)], [0]))
    assert count_parities(1) == (3, 1)
    assert count_parities(2) == (10, 6)
    assert count_parities(3) == (36, 28)


def test_even_char_gradient_vanishes_odd_not():
    tau = RiemannMatrix([[1j]])
    even = theta_grad(Characteristic.zero(1), [0.0], tau, 1e-10).values
    assert abs(even[0]) < 1e-10
    odd = theta_grad(Characteristic.of([1], [1]), [0.0], tau, 1e-10).values
    assert abs(odd[0]) > 0.5
    ref = naive_theta_grad([1], [1], [0.0], tau.matrix)
    assert abs(odd[0] - ref[0]) < 1e-12


def test_truncation_radius_small_at_identity():
    tau = RiemannMatrix([[1j]])
    r = truncation_radius(tau, 1e-14)
    assert r < 10.0


def test_truncation_radius_properties():
    rng = np.random.default_rng(16)
    tau = RiemannMatrix(random_riemann_matrix(2, rng))
    r1 = truncation_radius(tau, 1e-8)
    r2 = truncation_radius(tau, 1e-14)
    assert r2 >= r1
    with pytest.raises(ValueError):
        truncation_radius(tau, -1.0)


def test_two_radius_comparison():
    # summing with the certified radius agrees with a much larger radius
    tau = RiemannMatrix([[1j]])
    ch = Characteristic.zero(1)
    a = theta_eval(ch, [0.21 + 0.13j], tau, 1e-14).value
    b = naive_theta([0], [0], [0.21 + 0.13j], tau.matrix, box=24)
    assert abs(a - b) < 1e-13


def test_gradient_fd_consistency():
    rng = np.random.default_rng(17)
    g = 2
    tau = RiemannMatrix(random_riemann_matrix(g, rng))
    ch = Characteristic.of([0, 1], [1, 1])
    zeta = rng.normal(size=g) * 0.2 + 1j * rng.normal(size=g) * 0.2
    grad = theta_grad(ch, zeta, tau, 1e-10).values
    h = 1e-5
    for s in range(g):
        e = np.zeros(g)
        e[s] = h
        fd = (theta_eval(ch, zeta + e, tau, 1e-13).value
              - theta_eval(ch, zeta - e, tau, 1e-13).value) / (2 * h)
        assert abs(grad[s] - fd) < 1e-6 * max(1.0, abs(fd))


def test_invalid_riemann_matrix():
    with pytest.raises(ValueError):
        RiemannMatrix([[1j, 0.5], [0.1, 1j]])      # asymmetric
    with pytest.raises(ValueError):
        RiemannMatrix([[-1j]])                      # negative definite


def test_halfint_table_matches_direct():
    rng = np.random.default_rng(19)
    for g in (1, 2, 3):
        tau = RiemannMatrix(random_riemann_matrix(g, rng))
        zeta = rng.normal(size=g) * 1.2 + 1j * rng.normal(size=g) * 1.2
        table = theta_halfint_table(zeta, tau, 1e-10)
        for e in range(2 ** g):
            for d in range(2 ** g):
                eps = [(e >> j) & 1 for j in range(g)]
                dl = [(d >> j) & 1 for j in range(g)]
                ref = theta_eval(Characteristic.of(eps, dl), zeta, tau, 1e-12).value
                assert abs(table[e, d] - ref) < 1e-9 * max(abs(ref), 1e-4)


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    return 0


def test_evaluation_keeps_no_state_on_the_matrix():
    rng = np.random.default_rng(23)
    tau = RiemannMatrix(random_riemann_matrix(3, rng))
    before = sum(_array_bytes(v) for v in vars(tau).values())
    for _ in range(3):
        zeta = rng.normal(size=3) + 1j * rng.normal(size=3)
        ch = Characteristic.of(rng.integers(0, 2, 3), rng.integers(0, 2, 3))
        theta_eval(ch, zeta, tau, 1e-12)
        theta_grad(ch, zeta, tau, 1e-10)
        theta_halfint_table(zeta, tau, 1e-10)
    assert sum(_array_bytes(v) for v in vars(tau).values()) == before


def _half_offset_zeta(tau, eps, rng):
    """A zeta whose reduced offset xi = eps/2 + Y^-1 Im(zeta') has every
    coordinate within 0.01 of +-1/2, the ellipsoid centre farthest from the
    lattice, and the size exp(pi y^t Y^-1 y), y = Im zeta, of its largest
    series term: the rounding of both sums scales with it."""
    t = rng.choice([-0.49, 0.49], size=tau.g) - np.asarray(eps) / 2.0
    zeta = tau.matrix @ t + rng.normal(size=tau.g)
    return zeta, math.exp(np.pi * t @ tau.Y @ t)


def test_half_offset_matches_naive_sum():
    rng = np.random.default_rng(24)
    for g in (1, 2, 3):
        tau = RiemannMatrix(random_riemann_matrix(g, rng))
        for _ in range(3):
            eps = rng.integers(0, 2, g)
            delta = rng.integers(0, 2, g)
            zeta, size = _half_offset_zeta(tau, eps, rng)
            ch = Characteristic.of(eps, delta)
            v = theta_eval(ch, zeta, tau, 1e-12)
            assert abs(v.value - naive_theta(eps, delta, zeta, tau.matrix)) \
                <= v.truncation_bound + 1e-12 * size
            d = theta_grad(ch, zeta, tau, 1e-10)
            ref = naive_theta_grad(eps, delta, zeta, tau.matrix)
            assert np.max(np.abs(d.values - ref)) <= d.truncation_bound + 1e-12 * size


def test_halfint_table_at_half_offsets_matches_naive_sum():
    # each row is checked at a zeta that puts its eps class at the half
    # offset, against the box sum rather than theta_eval, which shares its
    # points
    rng = np.random.default_rng(25)
    for g in (1, 2, 3):
        tau = RiemannMatrix(random_riemann_matrix(g, rng))
        vecs = [[(c >> j) & 1 for j in range(g)] for c in range(2 ** g)]
        for e, eps in enumerate(vecs):
            zeta, size = _half_offset_zeta(tau, eps, rng)
            row = theta_halfint_table(zeta, tau, 1e-12)[e]
            for d, delta in enumerate(vecs):
                ref = naive_theta(eps, delta, zeta, tau.matrix)
                assert abs(row[d] - ref) <= 1e-12 + 1e-12 * size


def test_norm_abs_lattice_invariance():
    rng = np.random.default_rng(18)
    g = 2
    tau = RiemannMatrix(random_riemann_matrix(g, rng))
    ch = Characteristic.zero(g)
    zeta = rng.normal(size=g) * 0.2 + 1j * rng.normal(size=g) * 0.2
    base = theta_norm_abs(ch, zeta, tau, 1e-12)
    shifted = theta_norm_abs(ch, zeta + tau.matrix @ np.array([2, -1]) + np.array([3, 1]),
                             tau, 1e-12)
    assert abs(base - shifted) < 1e-9 * base


# ----------------------------------------------------------------------------
# Truncation radius: the Rankin bound of _radius


def _skewed_matrices():
    """Im tau = A^t A with A = [[1, 0], [k, 1]]: one short and one long
    Cholesky diagonal entry, the ellipsoid ever thinner as k grows."""
    for k in (1.0, 3.0, 10.0, 30.0):
        a = np.array([[1.0, 0.0], [k, 1.0]])
        yield RiemannMatrix(np.array([[0.3, -0.1], [-0.1, 0.2]]) + 1j * (a.T @ a))


def _seeded_matrices(genera, seed, count=2):
    rng = np.random.default_rng(seed)
    return [RiemannMatrix(random_riemann_matrix(g, rng)) for g in genera for _ in range(count)]


def _grad_weight(tau, offset=None):
    """theta_sums' gradient weight (A, B) at an evaluation whose offset
    norm |c| + |n0| is B, by default sqrt(g)/2 + 1."""
    B = math.sqrt(tau.g) / 2.0 + 1.0 if offset is None else offset
    return tau.Uinv_norm, B


def test_poisson_sum_matches_direct_sum():
    # the product test below trusts gaussian_lattice_sum; where the direct
    # sum is small enough to enumerate, the two agree
    rng = np.random.default_rng(49)
    for tau in _seeded_matrices((1, 2, 3), 48) + list(_skewed_matrices()):
        xi = rng.uniform(-0.5, 0.5, tau.g)
        s = np.array([0.1, 0.25, 0.49])
        pts = tau.lattice_points(xi, math.sqrt(40.0 / s[0]))[:, :-1]
        r2 = np.sum(((pts + xi) @ tau.U.T) ** 2, axis=1)
        direct = np.exp(-s[:, None] * r2).sum(axis=1)
        assert np.all(np.abs(gaussian_lattice_sum(tau.U, xi, s) - direct) <= 1e-12 * direct)


def test_product_bounds_the_shifted_gaussian_sum():
    # sum_m exp(-s ||U(m + xi)||^2) <= P(s) = prod_i (1 + sqrt(pi/s) / U_ii)
    # for every s of the grid, at zero and random offsets
    rng = np.random.default_rng(50)
    for tau in _seeded_matrices((1, 2, 3, 4, 5), 51) + list(_skewed_matrices()):
        for xi in (np.zeros(tau.g), rng.uniform(-0.5, 0.5, tau.g)):
            assert np.all(gaussian_lattice_sum(tau.U, xi, _S_GRID)
                          <= np.exp(tau.log_p) * (1 + 1e-12))


def _enumerated_tail(tau, xi, R, weight, grad, extra):
    """weight * sum of f(||v||) exp(-||v||^2) over R < ||v||, v = U(m + xi),
    out to ||v||^2 = R^2 + extra, past which each term is below e^-extra of
    the largest omitted one."""
    pts = tau.lattice_points(xi, math.sqrt(R * R + extra))[:, :-1]
    r = np.linalg.norm((pts + xi) @ tau.U.T, axis=1)
    r = r[r > R]
    f = 1.0 if grad is None else grad[0] * r + grad[1]
    return weight * float(np.sum(f * np.exp(-r * r)))


def _assert_bound_above_tail(tau, tols, rng, extra=40.0):
    for xi in (np.zeros(tau.g), rng.uniform(-0.5, 0.5, tau.g)):
        for tol in tols:
            for weight, grad in ((1.0, None), (5.0, None), (2 * np.pi, _grad_weight(tau))):
                R, bound = _radius(tau, tol, weight, grad)
                assert _enumerated_tail(tau, xi, R, weight, grad, extra) <= bound <= tol


def test_bound_above_enumerated_tail_low_genus():
    rng = np.random.default_rng(52)
    for tau in _seeded_matrices((1, 2, 3, 4), 53) + list(_skewed_matrices()):
        _assert_bound_above_tail(tau, (1e-2, 1e-6, 1e-10), rng)


def test_bound_above_enumerated_tail_genus_7(trig_q3_g7):
    # 8 more in ||v||^2 already holds about 150,000 points at g=7
    _assert_bound_above_tail(trig_q3_g7[1].tau, (1e-10,), np.random.default_rng(54), 8.0)


def test_bound_is_at_most_tol():
    # R solves the bound at tol e^-1e-9, so rounding never lifts it above
    # tol, and R is no larger than that margin needs
    for tau in _seeded_matrices((1, 3, 5), 55, count=1) + list(_skewed_matrices())[-1:]:
        for tol in np.geomspace(1e-16, 1e-1, 31):
            for weight in (1.0, 7.3, 1e6):
                for grad in (None, _grad_weight(tau)):
                    R, bound = _radius(tau, float(tol), weight, grad)
                    assert bound <= tol
                    assert R == 0.0 or bound >= tol * (1 - 1e-6)
    # the command-line case: theta(0, i) at tol 1e-12
    tau = RiemannMatrix([[1j]])
    assert theta_eval(Characteristic.zero(1), [0.0], tau, 1e-12).truncation_bound <= 1e-12
    assert theta_grad(Characteristic.zero(1), [0.0], tau, 1e-12).truncation_bound <= 1e-12


def test_radius_cap_raises():
    tau = RiemannMatrix([[1j]])
    with pytest.raises(ThetaError, match="cap"):
        _radius(tau, 1e-10, float("inf"))
    with pytest.raises(ThetaError, match="cap"):
        _radius(tau, 1e-10, float("nan"))


def test_lattice_shift_of_2_to_53_raises():
    # below 2**53 a rounded shift is an exact integer, and theta is
    # 1-periodic; from 2**53 on (or on NaN) the shift raises, where its
    # int64 cast once overflowed into a wrong value
    tau = RiemannMatrix([[1j]])
    ch0 = Characteristic.zero(1)
    assert theta_eval(ch0, [2.0 ** 52], tau).value == theta_eval(ch0, [0.0], tau).value
    for zeta in ([2.0 ** 53], [2.0 ** 53 * 1j], [1e300], [float("nan")]):
        with pytest.raises(ThetaError, match=r"2\*\*53"):
            theta_eval(ch0, zeta, tau)
        with pytest.raises(ThetaError, match=r"2\*\*53"):
            theta_halfint_table(zeta, tau)


def _bench_taus():
    """tau of the 12 benchmark curves (the plans of tools/identity_digests.py)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if root not in sys.path:
        sys.path.insert(0, root)
    from bench.workloads import hyp_plan, trig_plan
    plans = [trig_plan(s) for s in (1, 2, 3)]
    plans += [hyp_plan(s, g) for s in (1, 2, 3) for g in (2, 3, 4)]
    return [build_periods(CurveSpec.from_json(p["curve"])).tau for p in plans]


def test_radius_never_above_the_packing_radius():
    # the packing bound this replaced, frozen in tests/oracles.py
    taus = (_bench_taus() + _seeded_matrices((1, 2, 3, 4, 5, 6), 56)
            + list(_skewed_matrices()))
    for tau in taus:
        for tol in (1e-8, 1e-12):
            assert truncation_radius(tau, tol) <= packing_radius(tau.U, tol)
            # the gradient at zeta = 0 (c = n0 = 0), as every derivative
            # identity evaluates it, and at a range-reduced offset
            for offset in (0.0, None):
                grad = _grad_weight(tau, offset)
                assert (_radius(tau, tol, 2 * np.pi, grad)[0]
                        <= packing_radius(tau.U, tol, 2 * np.pi, grad))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_theta_and_gradient_within_bound_of_mpmath_sum(g):
    # at loose tolerances the truncation error dominates the rounding, so
    # this checks the bound itself; the second zeta, Im zeta = 1.3 Y (1, ..., 1),
    # is range-reduced by n0 = (1, ..., 1)
    rng = np.random.default_rng(57 + g)
    tau = RiemannMatrix(random_riemann_matrix(g, rng))
    far = tau.Y @ np.full(g, 1.3) * 1j
    for zeta in (rng.normal(size=g) * 0.5 + 1j * rng.normal(size=g) * 0.5, far + 0.2):
        eps, delta = rng.integers(0, 2, g), rng.integers(0, 2, g)
        ch = Characteristic.of(eps, delta)
        value, grad, abs_sum, grad_abs = mp_theta(eps, delta, zeta, tau.matrix)
        for tol in (1e-3, 1e-6, 1e-10):
            v = theta_eval(ch, zeta, tau, tol)
            assert abs(v.value - value) <= v.truncation_bound + 1e-14 * abs_sum
            d = theta_grad(ch, zeta, tau, tol)
            assert np.all(np.abs(d.values - grad) <= d.truncation_bound + 1e-14 * grad_abs)
            assert abs(d.value - value) <= d.value_bound + 1e-14 * abs_sum
            assert d.value_bound <= tol


# ----------------------------------------------------------------------------
# Lattice enumeration: the breadth-first pass against the frozen recursion


def enumerate_one(U, center, radius):
    """The points of one centre's ellipsoid: the enumerator's one-centre case."""
    rows = _enumerate_ellipsoid(U, np.reshape(center, (1, len(U))), radius)
    assert not rows[:, -1].any()
    return rows[:, :-1]


def assert_same_points(U, center, radius):
    got = enumerate_one(U, center, radius)
    want = recursive_enumerate(U, center, radius)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    return got


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
def test_enumeration_matches_recursion_on_seeded_matrices(g):
    rng = np.random.default_rng(30 + g)
    radii = (0.0, 0.7, 1.6, 2.5) if g <= 4 else (0.0, 0.7, 1.6, 2.2)
    for _ in range(4):
        U = RiemannMatrix(random_riemann_matrix(g, rng)).U
        for center in (np.zeros(g), rng.uniform(-1.0, 1.0, g)):
            for radius in radii:
                assert_same_points(U, center, radius)


@pytest.mark.parametrize("c", [0.5, 1.0, 1.7])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_enumeration_matches_recursion_on_lattice_norms(g, c):
    # r = c sqrt(k) puts points exactly on the sphere, at the 1e-12 margin
    U = c * np.eye(g)
    for k in range(12):
        for center in (np.zeros(g), np.full(g, 0.5)):
            assert_same_points(U, center, c * np.sqrt(k))


def test_enumeration_matches_recursion_on_skewed_bases():
    rng = np.random.default_rng(40)
    for _ in range(30):
        g = int(rng.integers(2, 6))
        U = np.triu(rng.normal(scale=3.0, size=(g, g)), 1)
        U[np.diag_indices(g)] = rng.uniform(0.2, 1.5, g)
        center = rng.normal(size=g) if rng.random() < 0.5 else np.zeros(g)
        assert_same_points(U, center, float(rng.uniform(0.5, 2.5)))


def test_enumeration_empty_and_genus_zero():
    got = assert_same_points(np.eye(3), np.full(3, 0.5), 0.5)
    assert got.shape == (0, 3)
    got = assert_same_points(np.zeros((0, 0)), np.zeros(0), 1.0)
    assert got.shape == (1, 0)


@st.composite
def _ellipsoids(draw):
    g = draw(st.integers(1, 4))
    entry = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    U = np.triu(np.array(draw(st.lists(entry, min_size=g * g, max_size=g * g)))
                .reshape(g, g), 1)
    U[np.diag_indices(g)] = draw(st.lists(st.floats(0.3, 3.0), min_size=g, max_size=g))
    center = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=g, max_size=g)))
    return U, center, draw(st.floats(0.0, 3.0))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=_ellipsoids())
def test_enumeration_matches_recursion_property(case):
    assert_same_points(*case)


def test_point_cap_is_checked_on_each_level(monkeypatch):
    # diagonal U, zero centre: every node keeps its k = 0 child and no
    # candidate is rejected, so the leaf level holds the most candidates
    U = np.diag([1.0, 1.3, 0.8])
    full = enumerate_one(U, np.zeros(3), 2.5)
    monkeypatch.setattr(thetalab.theta, "_POINT_CAP", len(full))
    assert np.array_equal(enumerate_one(U, np.zeros(3), 2.5), full)
    monkeypatch.setattr(thetalab.theta, "_POINT_CAP", len(full) - 1)
    with pytest.raises(ThetaError, match="point cap"):
        enumerate_one(U, np.zeros(3), 2.5)


def test_point_cap_counts_intermediate_levels(monkeypatch):
    # uneven diagonal: the m_1 level has 21 candidates (k = -10..10) but
    # only 3 of them have an m_0 child, so a cap of 20 fires on 3 points
    U, radius = np.array([[100.0, 37.0], [0.0, 1.0]]), 10.0
    full = enumerate_one(U, np.zeros(2), radius)
    assert full.tolist() == [[3, -8], [0, 0], [-3, 8]]
    monkeypatch.setattr(thetalab.theta, "_POINT_CAP", 21)
    assert np.array_equal(enumerate_one(U, np.zeros(2), radius), full)
    monkeypatch.setattr(thetalab.theta, "_POINT_CAP", 20)
    with pytest.raises(ThetaError, match="point cap"):
        enumerate_one(U, np.zeros(2), radius)


def test_point_cap_fails_fast(monkeypatch):
    U, radius = np.eye(6), 5.0
    assert len(enumerate_one(U, np.zeros(6), radius)) == 84_769
    monkeypatch.setattr(thetalab.theta, "_POINT_CAP", 10_000)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(ThetaError, match="point cap"):
            enumerate_one(U, np.zeros(6), radius)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    # the whole enumeration peaks at about 11 MiB; stopping at the first
    # level past the cap never holds more than about 10,000 nodes
    assert peak < 4 * 2 ** 20


# ----------------------------------------------------------------------------
# Several centres at once and the batched theta constants


@pytest.mark.parametrize("g", [0, 1, 2, 3, 4])
def test_enumeration_of_several_centres_is_each_centre_in_turn(g):
    rng = np.random.default_rng(60 + g)
    U = RiemannMatrix(random_riemann_matrix(g, rng)).U if g else np.zeros((0, 0))
    centers = rng.uniform(-1.0, 1.0, (5, g))
    centers[3] = centers[1]
    rows = _enumerate_ellipsoid(U, centers, 2.2)
    points, owner = rows[:, :-1], rows[:, -1]
    assert np.array_equal(owner, np.sort(owner))
    for j, center in enumerate(centers):
        assert np.array_equal(points[owner == j], enumerate_one(U, center, 2.2))


def test_every_sum_enumerates_through_lattice_points(monkeypatch):
    # theta_sums reaches the enumerator only through RiemannMatrix.lattice_points,
    # so a wrapper there sees every enumeration and every point of each
    seen, enumerated = [], []
    lattice_points = RiemannMatrix.lattice_points
    enumerate_all = thetalab.theta._enumerate_ellipsoid

    def wrapped(self, centers, radius):
        rows = lattice_points(self, centers, radius)
        seen.append(len(rows))
        return rows

    def counted(U, centers, radius):
        rows = enumerate_all(U, centers, radius)
        enumerated.append(len(rows))
        return rows
    monkeypatch.setattr(RiemannMatrix, "lattice_points", wrapped)
    monkeypatch.setattr(thetalab.theta, "_enumerate_ellipsoid", counted)
    rng = np.random.default_rng(65)
    tau = RiemannMatrix(random_riemann_matrix(3, rng))
    chars = _seeded_characteristics(3, rng)
    zeta = rng.uniform(-0.5, 0.5, 3) + 1j * rng.uniform(-0.5, 0.5, 3)
    theta_eval(chars[0], zeta, tau)
    theta_grad(chars[1], zeta, tau)
    theta_sums(chars, zeta, tau)
    theta_sums(chars, np.zeros(3), tau, grad=True)
    assert len(enumerated) >= 4 and min(enumerated) > 0
    assert seen == enumerated


def _seeded_characteristics(g, rng):
    """Sixth-integral characteristics, half of them sharing an eps class
    with another (a different delta), half with an eps of their own."""
    def entries():
        return [Fraction(int(k), 6) for k in rng.integers(-12, 12, g)]
    chars = [Characteristic.of(entries(), entries()) for _ in range(4)]
    chars += [Characteristic.of(ch.eps, entries()) for ch in chars]
    return chars + [chars[0]]


def _beyond_the_cell(tau, g):
    """A seeded argument tau (x + e_0) + l one period beyond the cell, with
    x_0 near -1/2, so that its prefactor has a modulus near 1 and the last
    bits of that modulus can reach the radius."""
    rng = np.random.default_rng([70 + g, _ULP_APART_DRAW[g]])
    x = rng.uniform(-0.5, 0.5, g)
    x[0] = rng.uniform(-0.5, -0.4)
    return tau.matrix @ (x + np.eye(g)[0]) + rng.integers(-2, 3, g)


# the first draw of _beyond_the_cell at which _own_prefactor_radii differ
_ULP_APART_DRAW = {1: 6, 2: 37, 3: 50, 4: 115}


def _own_prefactor_radii(chars, zeta, tau, tol, grad):
    """The radii that sizing each sum from its characteristic's own
    |prefactor| would give, in place of exp(-2 pi Im expo)."""
    zr, n0, l0, expo = _range_reduce(zeta, tau)
    c = tau.Yinv @ np.imag(zr)
    amp = math.exp(np.pi * c @ tau.Y @ c)
    radii = set()
    for ch in chars:
        red = reduce_characteristic(ch)[0]
        pref = thetalab.theta._efun(expo + (l0 @ red.eps_float() - n0 @ red.delta_float()) / 2.0)
        tol_red = tol / max(1.0, abs(pref))
        R = _radius(tau, tol_red, amp)[0]
        if grad:
            offset = float(np.linalg.norm(c)) + float(np.linalg.norm(n0))
            R = max(R, _radius(tau, tol_red, 2 * np.pi * amp, _grad_weight(tau, offset))[0])
        radii.add(R)
    return radii


@pytest.mark.parametrize("budget", [1, 4096, thetalab.theta._BLOCK_POINTS, 1e9])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_theta_constants_equal_single_evaluations_bit_for_bit(monkeypatch, g, budget):
    # theta_sums gives every characteristic's single evaluation bit for bit
    # at zeta = 0, at a generic point of the cell and at a point that needs a
    # lattice shift (|prefactor| != 1), and every centre of the sums at one
    # argument is enumerated at one radius, even where the characteristics'
    # own |prefactor|s would size radii an ulp apart
    monkeypatch.setattr(thetalab.theta, "_BLOCK_POINTS", budget)
    radii = []
    enumerate_all = thetalab.theta._enumerate_ellipsoid

    def recorded(U, centers, radius):
        radii.extend(np.broadcast_to(radius, len(centers)).tolist())
        return enumerate_all(U, centers, radius)
    monkeypatch.setattr(thetalab.theta, "_enumerate_ellipsoid", recorded)
    rng = np.random.default_rng(70 + g)
    tau = RiemannMatrix(random_riemann_matrix(g, rng))
    chars = _seeded_characteristics(g, rng)
    cell = tau.matrix @ rng.uniform(-0.5, 0.5, g) + rng.uniform(-0.5, 0.5, g)
    shifted = _beyond_the_cell(tau, g)
    cases = ((1e-10, False), (1e-9, True))
    assert _range_reduce(shifted, tau)[3].imag != 0.0
    assert any(len(_own_prefactor_radii(chars, shifted, tau, tol, grad)) > 1
               for tol, grad in cases)
    for zeta in (np.zeros(g), cell, shifted):
        for tol, grad in cases:
            radii.clear()
            got = theta_sums(chars, zeta, tau, tol, grad)
            assert len(set(radii)) == 1
            radius = radii[0]
            for res, ch in zip(got, chars):
                radii.clear()
                want = (theta_grad if grad else theta_eval)(ch, zeta, tau, tol)
                assert radii == [radius]
                assert (res.value, res.truncation_bound) == (want.value, want.truncation_bound)
                if grad:
                    assert np.array_equal(res.values, want.values)
                    assert (res.value_bound, res.radius) == (want.value_bound, radius)


@pytest.mark.parametrize("budget", [1, 1e9])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_sums_at_many_arguments_equal_single_calls_bit_for_bit(monkeypatch, g, budget):
    # one theta_sums call at a zero argument, one in the cell and one that
    # needs a lattice shift gives each argument's own call bit for bit, values
    # and gradients, and enumerates each centre at its own argument's radius
    monkeypatch.setattr(thetalab.theta, "_BLOCK_POINTS", budget)
    radii, blocks = [], []
    enumerate_all = thetalab.theta._enumerate_ellipsoid

    def recorded(U, centers, radius):
        blocks.append(len(centers))
        radii.extend(np.broadcast_to(radius, len(centers)).tolist())
        return enumerate_all(U, centers, radius)
    monkeypatch.setattr(thetalab.theta, "_enumerate_ellipsoid", recorded)
    rng = np.random.default_rng(80 + g)
    tau = RiemannMatrix(random_riemann_matrix(g, rng))
    chars = _seeded_characteristics(g, rng)
    cell = tau.matrix @ rng.uniform(-0.5, 0.5, g) + rng.uniform(-0.5, 0.5, g)
    zetas = np.array([np.zeros(g), cell, _beyond_the_cell(tau, g)])
    centres = len({reduce_characteristic(ch)[0].eps for ch in chars})
    for tol, grad in ((1e-10, False), (1e-9, True)):
        radii.clear()
        blocks.clear()
        got = theta_sums(chars, zetas, tau, tol, grad)
        assert len(got) == len(zetas) and sum(blocks) == len(zetas) * centres
        assert len(blocks) == (len(zetas) * centres if budget == 1 else 1)
        batched = radii[:]
        assert len(set(batched)) == len(zetas)
        for a, zeta in enumerate(zetas):
            radii.clear()
            want = theta_sums(chars, zeta, tau, tol, grad)
            assert batched[a * centres:(a + 1) * centres] == radii
            for res, one in zip(got[a], want, strict=True):
                assert (res.value, res.truncation_bound) == (one.value, one.truncation_bound)
                if grad:
                    assert np.array_equal(res.values, one.values)
                    assert (res.value_bound, res.radius) == (one.value_bound, one.radius)


@pytest.mark.parametrize("budget", [1, 1e9])
def test_theta_constants_point_cap_counts_intermediate_levels(monkeypatch, budget):
    # the skewed U of test_point_cap_counts_intermediate_levels: a cap at the
    # points one block returns still fires on its m_1 level
    monkeypatch.setattr(thetalab.theta, "_BLOCK_POINTS", budget)
    U = np.array([[100.0, 37.0], [0.0, 1.0]])
    tau = RiemannMatrix(1j * (U.T @ U) / np.pi)
    chars = [Characteristic.of(eps, [0, 1]) for eps in ([0, 0], [1, 0], [0, 1], [1, 1])]
    want = [theta_eval(ch, np.zeros(2), tau) for ch in chars]
    assert theta_sums(chars, np.zeros(2), tau) == want
    R = truncation_radius(tau, thetalab.theta.THETA_TOL)
    centers = np.array([ch.eps_float() / 2.0 for ch in chars])
    blocks = [centers] if budget > 1 else [c[None] for c in centers]
    cap = max(len(_enumerate_ellipsoid(tau.U, c, R)) for c in blocks)
    monkeypatch.setattr(thetalab.theta, "_POINT_CAP", cap)
    with pytest.raises(ThetaError, match="point cap"):
        theta_sums(chars, np.zeros(2), tau)


def test_equal_characteristics_are_equal_values_with_equal_hashes():
    # equal entries from any input give one (units, den) in lowest terms
    a = Characteristic.of([Fraction(1, 3), 1], [0, Fraction(5, 6)])
    b = Characteristic.of([Fraction(2, 6), 1.0], [0.0, Fraction(10, 12)])
    c = Characteristic.of([Fraction(1, 3), 1], [0, Fraction(1, 6)])
    assert a is not b and a == b and hash(a) == hash(b)
    assert (a.units, a.den) == ((2, 6, 0, 5), 6)
    assert Characteristic((4, 12, 0, 10), 12) == a
    assert a != c
    assert reduce_characteristic(b) == reduce_characteristic(a)


def test_characteristic_shift_phase_is_exact_for_entries_of_any_size():
    # theta[1; 2l] = e(l/2) theta[1; 0]: the phase exponent is reduced mod 1
    # in integers, where it once became a float first and so lost its
    # fraction above 2**53 and overflowed above 1e308
    tau = RiemannMatrix([[1j]])
    base = theta_eval(Characteristic.of([1], [0]), [0.0], tau).value
    for l, sign in ((2 * 10 ** 20, 1), (2 * 10 ** 20 + 1, -1), (10 ** 400, 1),
                    (-10 ** 400 - 1, -1)):
        red, phase = reduce_characteristic(Characteristic.of([1], [2 * l]))
        assert red == Characteristic.of([1], [0]) and abs(phase - sign) < 1e-15
        assert abs(theta_eval(Characteristic.of([1], [2 * l]), [0.0], tau).value
                   - sign * base) < 1e-12


@st.composite
def _entry(draw):
    """k/d with d <= 12 and |k| <= 40, as an int, a Fraction or an exact
    float, whichever can hold it exactly."""
    k, d = draw(st.integers(-40, 40)), draw(st.integers(1, 12))
    forms = [Fraction(k, d)]
    if k % d == 0:
        forms.append(k // d)
    if d & (d - 1) == 0:
        forms.append(k / d)
    return draw(st.sampled_from(forms))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_characteristic_matches_the_fraction_oracle(data):
    g = data.draw(st.integers(1, 4))
    eps = data.draw(st.lists(_entry(), min_size=g, max_size=g))
    delta = data.draw(st.lists(_entry(), min_size=g, max_size=g))
    ch, want = Characteristic.of(eps, delta), FractionCharacteristic(eps, delta)
    assert (ch.eps, ch.delta, ch.label(), ch.is_integral()) \
        == (want.eps, want.delta, want.label(), want.is_integral())
    assert np.array_equal(ch.eps_float(), want.eps_float())
    assert np.array_equal(ch.delta_float(), want.delta_float())
    red, phase = reduce_characteristic(ch)
    want_red, expo, want_phase = want.reduce()
    assert (red.eps, red.delta) == (want_red.eps, want_red.delta)
    assert np.array_equal(red.eps_float(), want_red.eps_float())
    assert np.array_equal(red.delta_float(), want_red.delta_float())
    if 0 <= expo < 1:
        assert phase == want_phase
    else:
        assert abs(phase - want_phase) < 1e-12
