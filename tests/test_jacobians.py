import numpy as np
import pytest

from jacobians import (TrigConfiguration, aj_jacobian_hyper, aj_jacobian_hyper_closed,
                       aj_jacobian_trig, aj_jacobian_trig_closed, jacobi_inversion_newton,
                       sym_coord_derivatives, trig_forward_block_matrix, trig_forward_fd)
from thetalab.periods import SurfacePoint


def _generic_points(curve, rng, count):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-1.5, 1.5) * 3, rng.uniform(-1.5, 1.5) * 3)
        if min(abs(z - l) for l in curve.lambdas) < 0.4:
            continue
        if any(abs(z - p.z) < 0.3 for p in pts):
            continue
        sheet = int(rng.integers(0, curve.n))
        w = curve.w_principal(z) * np.exp(2j * np.pi * sheet / curve.n)
        pts.append(SurfacePoint(z, w))
    return pts


def test_hyper_closed_form_matches_inverse(hyp_g2):
    c, pd = hyp_g2
    rng = np.random.default_rng(1)
    for _ in range(4):
        pts = _generic_points(c, rng, c.genus)
        direct = aj_jacobian_hyper(c, pd, pts)
        closed = aj_jacobian_hyper_closed(c, pd, pts)
        assert np.max(np.abs(direct - closed)) < 1e-10 * np.max(np.abs(direct))


def test_hyper_coincident_points_rejected(hyp_g2):
    c, pd = hyp_g2
    p = SurfacePoint(1.5 + 1j, c.w_principal(1.5 + 1j))
    with pytest.raises(ValueError):
        aj_jacobian_hyper(c, pd, [p, p])


def test_hyper_fd_oracle_via_newton(hyp_g2):
    c, pd = hyp_g2
    rng = np.random.default_rng(2)
    pts = _generic_points(c, rng, c.genus)
    jac = aj_jacobian_hyper(c, pd, pts)          # d z_r / d zeta_s
    zeta0 = sum(pd.abel_jacobi_point(p) for p in pts)

    def central(h, s):
        e = np.zeros(c.genus)
        e[s] = h
        plus, _ = jacobi_inversion_newton(c, pd, pts, zeta0 + e)
        minus, _ = jacobi_inversion_newton(c, pd, pts, zeta0 - e)
        return np.array([(plus[r].z - minus[r].z) / (2 * h) for r in range(c.genus)])

    h = 1e-4
    for s in range(c.genus):
        # Richardson-extrapolated central differences kill the h^2 term
        fd = (4.0 * central(h / 2, s) - central(h, s)) / 3.0
        for r in range(c.genus):
            assert abs(fd[r] - jac[r, s]) < 1e-6 * max(1.0, abs(jac[r, s]))


def test_trig_closed_form_matches_inverse(trig_q2):
    c, pd = trig_q2
    config = TrigConfiguration((2, 4, 1))        # first q-1=1 anchor doubled
    da1, db1 = aj_jacobian_trig(c, pd, config)
    da2, db2 = aj_jacobian_trig_closed(c, pd, config)
    scale = np.max(np.abs(da1))
    assert np.max(np.abs(da1 - da2)) < 1e-10 * scale
    assert np.max(np.abs(db1 - db2)) < 1e-10 * max(np.max(np.abs(db1)), scale)


def test_trig_block_structure(trig_q2):
    c, pd = trig_q2
    q = c.q
    config = TrigConfiguration((1, 3, 5))
    M = trig_forward_block_matrix(c, config)
    # alpha columns touch only rows l <= 2q-1, beta columns only rows l >= 2q
    assert np.max(np.abs(M[2 * q - 1:, : 2 * q - 1])) == 0.0
    assert np.max(np.abs(M[: 2 * q - 1, 2 * q - 1:])) == 0.0
    with pytest.raises(ValueError):
        TrigConfiguration((1, 1, 2)).validate(c)
    with pytest.raises(ValueError):
        TrigConfiguration((1, 2)).validate(c)


def test_trig_fd_oracle(trig_q2):
    c, pd = trig_q2
    config = TrigConfiguration((3, 1, 4))
    M = trig_forward_block_matrix(c, config)
    Mfd = trig_forward_fd(c, config)
    scale = np.max(np.abs(M))
    q = c.q
    # main blocks to relative 1e-5
    live = np.abs(M) > 0
    assert np.max(np.abs((Mfd - M)[live]) / np.abs(M[live])) < 1e-5
    # mixed blocks below 1e-8 absolute (relative to the matrix scale)
    assert np.max(np.abs(Mfd[2 * q - 1:, : 2 * q - 1])) < 1e-8 * scale
    assert np.max(np.abs(Mfd[: 2 * q - 1, 2 * q - 1:])) < 1e-8 * scale


def test_trig_fd_full_jacobian(trig_q2):
    c, pd = trig_q2
    config = TrigConfiguration((2, 5, 3))
    da, db = aj_jacobian_trig(c, pd, config)
    Mfd = trig_forward_fd(c, config)
    full_fd = np.linalg.solve(Mfd, pd.C)
    q = c.q
    scale = max(np.max(np.abs(da)), np.max(np.abs(db)))
    assert np.max(np.abs(full_fd[: 2 * q - 1] - da)) < 1e-5 * scale
    assert np.max(np.abs(full_fd[2 * q - 1:] - db)) < 1e-5 * scale


def test_sym_coord_derivatives_examples():
    da, db = sym_coord_derivatives(lambda t, s: t + s, 0.3, 0.3)
    assert abs(da - 1.0) < 1e-8 and abs(db) < 1e-6
    da, db = sym_coord_derivatives(lambda t, s: (t - s) ** 2 / 2.0, 0.2, 0.2)
    assert abs(da) < 1e-8 and abs(db - 1.0) < 1e-6
    da, db = sym_coord_derivatives(lambda t, s: t * s, 0.1, 0.1)
    assert abs(da - 0.1) < 1e-7 and abs(db + 0.5) < 1e-6
    # off-diagonal branch
    da, db = sym_coord_derivatives(lambda t, s: t * s, 0.4, 0.1)
    assert abs(da - 0.25) < 1e-7 and abs(db + 0.5) < 1e-6
