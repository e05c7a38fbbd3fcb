import dataclasses

import numpy as np
import pytest

from thetalab.algebra import (INF, IndexSet, classify_root_of_unity, principal_power,
                              vandermonde_delta)
from thetalab.theta import Characteristic, theta_eval
from thetalab.thomae import (Partition, char_from_partition_hyp,
                             derived_partitions_hyp, enumerate_partitions_hyp, verify_matrix_form_hyp,
                             verify_quotient_hyp, verify_thomae_const_hyp,
                             verify_thomae_deriv_hyp, _sample_nonspecial)

import oracles
from oracles import delta_quarter_pair, parity


def test_partition_counts_g2():
    assert len(enumerate_partitions_hyp(2, 0)) == 10
    assert len(enumerate_partitions_hyp(2, 1)) == 6
    assert sum(1 for p in enumerate_partitions_hyp(2, 1) if INF not in p.parts[1]) == 5
    total = sum(len(enumerate_partitions_hyp(2, m)) for m in (0, 1))
    assert total == 4 ** 2


def test_partition_counts_g3():
    # binom(7,3)=35 for m=0, binom(8,2)=28 for m=1, binom(8,0)=1 for m=2
    assert len(enumerate_partitions_hyp(3, 0)) == 35
    assert len(enumerate_partitions_hyp(3, 1)) == 28
    assert len(enumerate_partitions_hyp(3, 2)) == 1
    assert 35 + 28 + 1 == 4 ** 3


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_enumeration_keeps_the_frozen_order(g):
    # the report order of a plan, and so its JSONL, is the enumeration order
    for m in range((g + 1) // 2 + 1):
        new = [(p.kind, p.label(), p.parts) for p in enumerate_partitions_hyp(g, m)]
        old = [(f"m={m}", oracles.hyp_partition_label(m, I), (J, I))
               for _, I, J in oracles.hyp_partitions(g, m)]
        assert new == old


def test_partition_validation():
    with pytest.raises(ValueError):
        enumerate_partitions_hyp(2, 2)
    p = Partition("m=0", (IndexSet.of([3, 4, 5, INF]), IndexSet.of([1, 2])))
    with pytest.raises(ValueError):
        p.validate(5)


@pytest.mark.parametrize("I, J", [
    ([1, 2, INF], [1, 2, 3]),          # parts overlap; 4, 5 missing
    ([1, 2, INF], [3, 4, 6]),          # 6 is not a branch point; 5 missing
    ([1, 2, 3], [4, 5, INF]),          # m = 0 needs infinity in I
], ids=["overlap", "outside", "inf-in-J"])
def test_partition_must_split_the_branch_symbols(I, J):
    with pytest.raises(ValueError):
        Partition("m=0", (IndexSet.of(J), IndexSet.of(I))).validate(5)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_enumerated_and_derived_partitions_validate(g):
    for m in range((g + 1) // 2 + 1):
        for p in enumerate_partitions_hyp(g, m):
            p.validate(2 * g + 1)
            if m == 0:
                for p1 in derived_partitions_hyp(p):
                    p1.validate(2 * g + 1)


def test_characteristic_parity_matches_m(hyp_g2):
    c, pd = hyp_g2
    for m in (0, 1):
        for p in enumerate_partitions_hyp(2, m):
            ch = char_from_partition_hyp(p, pd)
            assert ch.is_integral()
            assert parity(ch) == m % 2


def test_thomae_constant_all_partitions(hyp_g2):
    c, pd = hyp_g2
    for rep in verify_thomae_const_hyp(c, pd, enumerate_partitions_hyp(2, 0), tol=1e-6):
        assert rep.passed, rep.partition
        assert abs(abs(rep.ratios[0]) - 1.0) < 1e-6


def test_thomae_constant_negative_control(hyp_g2):
    # perturbing one lambda in the RHS only must break the classification
    c, pd = hyp_g2
    p = enumerate_partitions_hyp(2, 0)[0]
    ch = char_from_partition_hyp(p, pd)
    lhs = theta_eval(ch, np.zeros(2), pd.tau, 1e-10).value
    lam = dict(c.lam_map)
    J, I = p.parts
    lam[I.finite[0]] += 0.037          # RHS-only perturbation
    rhs = (principal_power(np.linalg.det(pd.C) / (2.0 ** 2 * np.pi ** 2), 0.5)
           * delta_quarter_pair(I, J, lam))
    tag = classify_root_of_unity(lhs / rhs, 8, 1e-6)
    assert not tag.ok


def test_thomae_derivative_all_partitions(hyp_g2):
    c, pd = hyp_g2
    seen_experimental = False
    for rep in verify_thomae_deriv_hyp(c, pd, enumerate_partitions_hyp(2, 1), tol=1e-6):
        assert rep.passed, rep.partition
        assert rep.spread < 1e-6
        seen_experimental = seen_experimental or rep.details["experimental"]
    assert seen_experimental      # the I1={inf} relocation variant ran too


def test_derivative_chars_vanish_with_nonzero_gradient(hyp_g2):
    from thetalab.theta import theta_grad
    c, pd = hyp_g2
    scale = pd.theta_scale()
    for p in enumerate_partitions_hyp(2, 1):
        ch = char_from_partition_hyp(p, pd)
        val = abs(theta_eval(ch, np.zeros(2), pd.tau, 1e-10).value)
        grad = np.linalg.norm(theta_grad(ch, np.zeros(2), pd.tau, 1e-9).values)
        assert val < 1e-8 * scale
        assert grad > 1e-3 * scale


def test_quotient_lemma(hyp_g2):
    c, pd = hyp_g2
    for k in (1, 2, 5):
        rep = verify_quotient_hyp(c, pd, k, seed=17, tol=1e-6)
        assert rep.passed, (k, rep.tag)
        assert rep.tag.order == 4
        assert rep.spread < 1e-6


def test_quotient_resample_path(hyp_g2, monkeypatch):
    # force the first non-speciality probe to look special and verify resampling
    import thetalab.thomae as T
    c, pd = hyp_g2
    calls = {"n": 0}
    orig = T.theta_sums

    def fake(chars, arg, tau):
        calls["n"] += 1
        if calls["n"] == 1:
            return [dataclasses.replace(v, value=0j) for v in orig(chars, arg, tau)]
        return orig(chars, arg, tau)

    monkeypatch.setattr(T, "theta_sums", fake)
    rng = np.random.default_rng(5)
    ch = pd.characteristic({1: 1}, plus_K=False)
    pts, arg, den, num, tries = _sample_nonspecial(pd, 2, rng, ch)
    assert tries == 1 and calls["n"] == 2
    assert den == theta_eval(Characteristic.zero(2), arg, pd.tau, 1e-10).value
    assert num == theta_eval(ch, arg, pd.tau, 1e-10).value


@pytest.mark.parametrize("fixture", ["hyp_g2", "trig_q2"])
def test_quotient_enumerates_once_per_argument(fixture, request, monkeypatch):
    # numerator and denominator share one lattice enumeration at each drawn
    # argument, resampled ones included
    import thetalab.theta
    from thetalab.thomae import _verify_quotient
    c, pd = request.getfixturevalue(fixture)
    pd.theta_scale()
    calls = []
    enumerate_all = thetalab.theta._enumerate_ellipsoid

    def counted(U, centers, radius):
        calls.append(len(centers))
        return enumerate_all(U, centers, radius)
    monkeypatch.setattr(thetalab.theta, "_enumerate_ellipsoid", counted)
    for k in (1, 2):
        calls.clear()
        rep = _verify_quotient(c, pd, k, "quotient", seed=3 + k, samples=3, tol=1e-6)
        assert rep.passed
        assert len(calls) == 3 + rep.details["resamples"]


def test_matrix_form(hyp_g2):
    c, pd = hyp_g2
    for rep in verify_matrix_form_hyp(c, pd, enumerate_partitions_hyp(2, 0)[:3], tol=1e-6):
        assert rep.passed, rep.details
        assert rep.details["det_sigma_rel_err"] < 1e-9
        assert rep.details["entrywise_rel_err"] < 1e-6


def test_matrix_form_rows_are_the_derivative_reports(hyp_g2):
    c, pd = hyp_g2
    I0 = enumerate_partitions_hyp(2, 0)[1]
    (rep,) = verify_matrix_form_hyp(c, pd, [I0], tol=1e-6)
    J, I = I0.parts
    symbols = list(I) + list(J)
    alone = []
    for xk in I.finite:
        I1 = I.without(INF, xk)
        J1 = IndexSet.of([s for s in symbols if s not in I1])
        alone += verify_thomae_deriv_hyp(c, pd, [Partition("m=1", (J1, I1))])
    assert rep.details["row_tags"] == [r.tag.index for r in alone]


def test_matrix_forms_build_each_shared_row_once(hyp_g3, monkeypatch):
    # the g=3 curve's 35 m=0 forms have 3 rows each, 105 in all, among
    # only 21 distinct m=1 partitions; counted as run_plan_tasks counts
    import thetalab.thomae
    c, pd = hyp_g3
    forms = enumerate_partitions_hyp(3, 0)
    monkeypatch.setattr(pd, "_theta_table", {})
    alone = [rep for I0 in forms for rep in verify_matrix_form_hyp(c, pd, [I0], tol=1e-5)]
    built, build = [], thetalab.thomae.char_from_partition_hyp

    def building(p, periods):
        built.append(p)
        return build(p, periods)
    monkeypatch.setattr(thetalab.thomae, "char_from_partition_hyp", building)
    reports = verify_matrix_form_hyp(c, pd, forms, tol=1e-5)
    assert len(set(built)) == len(built) == 21
    assert [rep.jsonl() for rep in reports] == [rep.jsonl() for rep in alone]
    assert all(rep.passed for rep in reports)


def test_matrix_form_fails_on_wrong_det_sigma(hyp_g2, monkeypatch):
    # every row still holds, but det Sigma misses the negated Delta(I0)
    import thetalab.thomae
    c, pd = hyp_g2
    I0 = enumerate_partitions_hyp(2, 0)[0]
    real = thetalab.thomae.vandermonde_delta
    monkeypatch.setattr(thetalab.thomae, "vandermonde_delta",
                        lambda I, lam: -real(I, lam) if I == I0.parts[1] else real(I, lam))
    (rep,) = verify_matrix_form_hyp(c, pd, [I0], tol=1e-6)
    assert not rep.passed
    assert rep.details["det_sigma_rel_err"] > thetalab.thomae.DET_SIGMA_TOL
    assert rep.details["entrywise_rel_err"] < 1e-6


def test_g3_plan_sums_each_theta_constant_once(hyp_g3, monkeypatch):
    # every hyperelliptic task of a plan on one curve: the matrix forms read
    # the derivative task's gradients, and no (characteristic, tol, grad)
    # reaches the kernel twice
    from conftest import run_plan_tasks
    tasks = {"thomae_deriv_hyp": {"id": "thomae_deriv_hyp", "include_infinity": True}}
    summed = run_plan_tasks(monkeypatch, *hyp_g3, tasks, 1e-5)
    # 35 m=0 values; gradients of 28 m=1 partitions, infinity in I1 included
    assert len(set(summed)) == len(summed) == 63


def test_verifiers_check_every_partition_before_any_sum(hyp_g2, monkeypatch):
    import thetalab.periods
    c, pd = hyp_g2

    def must_not_sum(*args):
        raise AssertionError("theta summed before every partition was checked")
    monkeypatch.setattr(thetalab.periods, "theta_sums", must_not_sum)
    monkeypatch.setattr(pd, "_theta_table", {})
    m0, m1 = enumerate_partitions_hyp(2, 0), enumerate_partitions_hyp(2, 1)
    no_inf = Partition("m=0", (IndexSet.of([4, 5, INF]), IndexSet.of([1, 2, 3])))
    for verify, parts, match in ((verify_thomae_const_hyp, m0 + [no_inf], "infinity in I"),
                                 (verify_thomae_const_hyp, m0 + m1[:1], "m=0 partition"),
                                 (verify_thomae_deriv_hyp, m1 + m0[:1], "m=1 partition"),
                                 (verify_matrix_form_hyp, m0[:3] + [no_inf], "infinity in I")):
        with pytest.raises(ValueError, match=match):
            verify(c, pd, parts)


def test_report_serialization(hyp_g2):
    import json
    c, pd = hyp_g2
    (rep,) = verify_thomae_const_hyp(c, pd, enumerate_partitions_hyp(2, 0)[:1])
    obj = json.loads(rep.jsonl())
    assert obj["identity"] == "thomae_const_hyp"
    assert obj["passed"] is True
    assert obj["root_tag"]["order"] == 8
    assert "tolerances" in obj
