import numpy as np
import pytest

from thetalab.algebra import (INF, IndexSet, c2j, classify_root_of_unity, derivative_at_root,
                              j2c, pair_delta, vandermonde_delta)

from oracles import deleted_poly_from_roots, elementary_symmetric, poly_from_roots


def test_elementary_symmetric_examples():
    assert elementary_symmetric([1, 2, 3], 0) == 1
    assert elementary_symmetric([1, 2, 3], 2) == 11
    assert elementary_symmetric([1, 2, 3], 4) == 0


def test_sigma_recursion():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        vals = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = complex(rng.normal(), rng.normal())
        for p in range(n + 2):
            lhs = elementary_symmetric(list(vals) + [x], p)
            rhs = elementary_symmetric(vals, p)
            if p >= 1:
                rhs += x * elementary_symmetric(vals, p - 1)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_index_set_ordering_and_invariants():
    s = IndexSet.of([3, 1, INF, 2])
    assert list(s) == [1, 2, 3, INF]
    assert INF in s and 2 in s and 7 not in s
    with pytest.raises(ValueError):
        IndexSet.of([1, 1])
    with pytest.raises(ValueError):
        IndexSet.of([INF, INF])


def test_vandermonde_examples():
    lam = {1: 0.0, 2: 1.0, 3: 2.0, 5: 9.0, 7: 7.0}
    assert vandermonde_delta(IndexSet.of([5]), lam) == 1
    assert vandermonde_delta(IndexSet.of([1, 2, 3]), lam) == (0 - 1) * (0 - 2) * (1 - 2)
    assert vandermonde_delta(IndexSet.of([1, INF]), lam) == 1


def test_vandermonde_square_symmetric():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=5) + 1j * rng.normal(size=5)
    lam = {i + 1: vals[i] for i in range(5)}
    base = vandermonde_delta(IndexSet.of([1, 2, 3, 4, 5]), lam) ** 2
    for _ in range(5):
        perm = rng.permutation(5)
        lam2 = {i + 1: vals[perm[i]] for i in range(5)}
        other = vandermonde_delta(IndexSet.of([1, 2, 3, 4, 5]), lam2) ** 2
        assert abs(base - other) < 1e-9 * abs(base)


def test_pair_delta_examples_and_symmetry():
    lam = {1: 0.0, 2: 1.0, 3: 5.0, 4: -2.0}
    assert pair_delta(IndexSet.of([1]), IndexSet.of([2]), lam) == -1
    assert pair_delta(IndexSet.of([]), IndexSet.of([1, 2]), lam) == 1
    A = IndexSet.of([1, 3])
    B = IndexSet.of([2, 4, INF])
    fwd = pair_delta(A, B, lam)
    rev = pair_delta(B, A, lam)
    sign = (-1) ** (len(A.finite) * len(B.finite))
    assert fwd == sign * rev
    with pytest.raises(ValueError):
        pair_delta(IndexSet.of([1, 2]), IndexSet.of([2, 3]), lam)


def test_union_factorization_sign():
    # Delta(I u J) = Delta(I) Delta(J) pair_delta(I,J) * (-1)^(inversions)
    rng = np.random.default_rng(3)
    vals = rng.normal(size=6) + 1j * rng.normal(size=6)
    lam = {i + 1: vals[i] for i in range(6)}
    I = IndexSet.of([1, 4, 6])
    J = IndexSet.of([2, 3, 5])
    lhs = vandermonde_delta(I.union(J), lam)
    inversions = sum(1 for i in I.finite for j in J.finite if j < i)
    rhs = (vandermonde_delta(I, lam) * vandermonde_delta(J, lam)
           * pair_delta(I, J, lam) * (-1) ** inversions)
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_poly_from_roots():
    coeffs = poly_from_roots([1, 2])
    assert np.allclose(coeffs, [1, -3, 2])
    fr = deleted_poly_from_roots([1, 2], 0)
    assert np.allclose(fr, [1, -2])
    rng = np.random.default_rng(4)
    roots = rng.normal(size=12) + 1j * rng.normal(size=12)
    coeffs = poly_from_roots(roots)
    scale = np.max(np.abs(coeffs)) * np.max(np.abs(roots)) ** 0
    for r in roots:
        assert abs(np.polyval(coeffs, r)) < 1e-12 * np.max(
            np.abs([np.polyval(np.abs(coeffs), abs(r)), 1.0]))


def test_derivative_at_root_matches_polyder():
    rng = np.random.default_rng(5)
    roots = rng.normal(size=6) + 1j * rng.normal(size=6)
    coeffs = poly_from_roots(roots)
    der = np.polyder(coeffs)
    for i in range(6):
        assert abs(derivative_at_root(roots, i) - np.polyval(der, roots[i])) < 1e-9


def test_classify_root_of_unity():
    t = classify_root_of_unity(1.0, 8, 1e-9)
    assert t.index == 0 and t.ok
    t = classify_root_of_unity(np.exp(2j * np.pi * 3 / 8), 8, 1e-9)
    assert t.index == 3 and t.ok
    t = classify_root_of_unity(0.9, 8, 1e-6)
    assert not t.ok and t.modulus_error > 0.05 and t.index == 0
    # nearest index is reported even on failure
    t = classify_root_of_unity(1.1 * np.exp(2j * np.pi * 5 / 12), 12, 1e-9)
    assert t.index == 5 and not t.ok
    assert t.phase_residual <= np.pi / 12 + 1e-12


def test_j2c_inverts_c2j_and_takes_only_number_pairs():
    for z in (0j, 1.5 - 2j, complex(3, 1e-300)):
        assert j2c(c2j(z)) == z
    assert j2c([1, -2]) == 1 - 2j
    for bad in ([0, 1, 7], [1], [True, 0], [0, False], ["1", 0], [None, 0], "ab", 1.0,
                {"re": 0, "im": 1}):
        with pytest.raises(ValueError):
            j2c(bad)
