import numpy as np
import pytest

from thetalab.curves import CurveSpec
from thetalab.homology import (HomologyError, build_chain, build_cycles,
                               intersection_matrix, symplectic_transform)

from conftest import DEGENERATE_FORM_LAMBDAS
from oracles import symplectic_transform_by_sums


def canonical_j(g):
    return np.block([[np.zeros((g, g), dtype=np.int64), np.eye(g, dtype=np.int64)],
                     [-np.eye(g, dtype=np.int64), np.zeros((g, g), dtype=np.int64)]])


def test_symplectic_transform_identity():
    J = canonical_j(2)
    S = symplectic_transform(J)
    assert np.array_equal(S @ J @ S.T, J)


def _random_unimodular(n, rng, steps=30):
    U = np.eye(n, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.integers(0, n, 2)
        if i == j:
            continue
        U[i] += int(rng.integers(-2, 3)) * U[j]
    return U


def test_symplectic_transform_random_conjugates():
    rng = np.random.default_rng(0)
    for g in (1, 2, 3):
        J = canonical_j(g)
        for _ in range(5):
            U = _random_unimodular(2 * g, rng)
            M = U @ J @ U.T
            S = symplectic_transform(M)
            assert np.array_equal(S @ M @ S.T, J)


@pytest.mark.parametrize("fixture", ["hyp_g1", "hyp_g2", "hyp_g2_batch", "hyp_g3", "trig_q1",
                                     "trig_q2", "trig_q2_batch", "trig_q3_g7"])
def test_symplectic_transform_matches_frozen_sums_on_curves(fixture, request):
    value = request.getfixturevalue(fixture)
    for _, pd in value if isinstance(value, list) else [value]:
        M = np.array(pd.diagnostics["intersection_matrix"], dtype=np.int64)
        assert np.array_equal(symplectic_transform(M), symplectic_transform_by_sums(M))


def test_symplectic_transform_matches_frozen_sums_on_random_forms():
    # conjugates with entries beyond +-1; a form whose least entry is above
    # 1 in modulus cannot reduce without the euclidean sweep
    rng = np.random.default_rng(1)
    swept = 0
    for g in (2, 3, 4):
        J = canonical_j(g)
        for _ in range(20):
            U = _random_unimodular(2 * g, rng)
            M = U @ J @ U.T
            swept += int(np.min(np.abs(M[M != 0]))) > 1
            assert np.array_equal(symplectic_transform(M), symplectic_transform_by_sums(M))
    assert swept >= 10


def test_symplectic_transform_rejects_non_unimodular():
    with pytest.raises(HomologyError):
        symplectic_transform(2 * canonical_j(1))
    with pytest.raises(HomologyError):
        symplectic_transform(np.zeros((2, 2), dtype=np.int64))


def test_chain_is_simple_and_ordered():
    c = CurveSpec.of(2, [0, 1j, 2, 1 + 1j, -1])
    chain = build_chain(c)
    assert sorted(chain.order) == [1, 2, 3, 4, 5]
    keys = [(c.lam(i) * chain.rotation).real for i in chain.order]
    assert all(keys[i] < keys[i + 1] for i in range(len(keys) - 1))


@pytest.mark.parametrize("n,lams", [(2, [0, 1, 2]), (2, [0, 1, 2, 3, 4]),
                                    (3, [0, 1]), (3, [0, 1j, 2, 1 + 2j, -1 - 1j])])
def test_cycles_close_and_intersections_unimodular(n, lams):
    c = CurveSpec.of(n, lams)
    chain = build_chain(c)
    cycles = build_cycles(c, chain)
    g = c.genus
    assert len(cycles) == 2 * g
    M = intersection_matrix(c, cycles)
    assert np.array_equal(M, -M.T)
    assert abs(round(float(np.linalg.det(M)))) == 1
    S = symplectic_transform(M)
    assert np.array_equal(S @ M @ S.T, canonical_j(g))


@pytest.mark.xfail(strict=True, raises=HomologyError,
                   reason="each dumbbell's sheet shift counts from w_principal at its own "
                          "start point, which moves with its radius and offset: two shifts "
                          "of one edge can land on the same pair of sheets")
@pytest.mark.parametrize("lambdas", list(DEGENERATE_FORM_LAMBDAS.values()),
                         ids=list(DEGENERATE_FORM_LAMBDAS))
def test_dumbbells_give_a_unimodular_form(lambdas):
    c = CurveSpec.of(3, lambdas)
    S = symplectic_transform(intersection_matrix(c, build_cycles(c, build_chain(c))))
    assert len(S) == 2 * c.genus
