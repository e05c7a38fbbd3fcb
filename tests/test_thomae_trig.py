import os
import sys

import numpy as np
import pytest

import oracles
from conftest import random_curve, run_plan_tasks
from thetalab.algebra import INF, IndexSet, classify_root_of_unity
from thetalab.curves import CurveSpec
from thetalab.periods import build_periods
from thetalab.thomae import (Partition, alpha_ratio, char_from_partition_trig,
                             derived_partitions_for_matrix, enumerate_partitions_trig,
                             estimate_alpha, simple_zero_check, trig_alpha,
                             verify_matrix_form_trig, verify_quotient_trig,
                             verify_thomae_deriv_trig_t1, verify_thomae_deriv_trig_t2)


def test_partition_counts_q2():
    assert len(enumerate_partitions_trig(2, "constant")) == 30
    assert len(enumerate_partitions_trig(2, "deriv1")) == 20
    assert len(enumerate_partitions_trig(2, "deriv2", infinity_in=1)) == 10
    assert len(enumerate_partitions_trig(2, "deriv2", infinity_in=0)) == 10


def test_partition_counts_q1():
    assert len(enumerate_partitions_trig(1, "constant")) == 2
    assert len(enumerate_partitions_trig(1, "deriv1")) == 1
    assert len(enumerate_partitions_trig(1, "deriv2", infinity_in=1)) == 0


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("kind", ["constant", "deriv1", "deriv2"])
def test_enumeration_keeps_the_frozen_order(q, kind):
    # the report order of a plan, and so its JSONL, is the enumeration order
    for loc in (None, 0, 1, 2):
        new = [(p.label(), p.kind, p.parts)
               for p in enumerate_partitions_trig(q, kind, infinity_in=loc)]
        old = [(oracles.trig_partition_label(*p), p[0], p[1:])
               for p in oracles.trig_partitions(q, kind, infinity_in=loc)]
        assert new == old


def test_partition_shape_validation():
    # wrong cardinality pattern is rejected at type level (this is also how a
    # multiplicity >= 3 divisor would have to be encoded, which cannot exist)
    with pytest.raises(ValueError):
        Partition("deriv1", (IndexSet.of([1, 2, INF]), IndexSet.of([3]),
                             IndexSet.of([4, 5]))).validate(5)
    with pytest.raises(ValueError):
        Partition("constant", (IndexSet.of([1]), IndexSet.of([2]),
                               IndexSet.of([3, INF]))).validate(5)


@pytest.mark.parametrize("q, parts", [
    (1, ([1], [1], [INF])),                    # parts overlap; 2 missing
    (1, ([1], [3], [INF])),                    # 3 is not a branch point at q = 1
    (2, ([1, 2], [2, 3], [4, INF])),           # parts overlap; 5 missing
    (2, ([1, 2], [3, 4], [5, 6])),             # 6 in place of infinity
], ids=["overlap-q1", "outside-q1", "overlap-q2", "no-inf-q2"])
def test_partition_must_split_the_branch_symbols(q, parts):
    with pytest.raises(ValueError):
        Partition("constant", tuple(IndexSet.of(x) for x in parts)).validate(3 * q - 1)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_enumerated_and_derived_partitions_validate(q):
    for kind in ("constant", "deriv1", "deriv2"):
        for loc in (0, 1, 2):
            for p in enumerate_partitions_trig(q, kind, infinity_in=loc):
                p.validate(3 * q - 1)
    for p in enumerate_partitions_trig(q, "constant"):
        for pk in derived_partitions_for_matrix(p, q):
            pk.validate(3 * q - 1)


def test_characteristics_are_sixth_periods(trig_q2):
    c, pd = trig_q2
    for p in enumerate_partitions_trig(2, "constant")[:6]:
        ch = char_from_partition_trig(p, pd)
        assert all(x.denominator in (1, 2, 3, 6) for x in ch.eps + ch.delta)


def test_alpha_estimate_single_curve(trig_q2):
    c, pd = trig_q2
    est = estimate_alpha([(c, pd)], tol=1e-6)
    assert est.spread < 1e-6
    assert len(est.phases) == 30
    assert all(t.ok and t.order == 144 for t in est.phases)


def test_alpha_across_curves(trig_q2_batch):
    est = estimate_alpha(trig_q2_batch, tol=1e-6)
    assert est.spread < 1e-6


def test_alpha_modulus_matches_q1_scalefree(trig_q1):
    # q=1 also produces a consistent estimate (2 partitions)
    c, pd = trig_q1
    est = estimate_alpha([(c, pd)], tol=1e-6)
    assert est.spread < 1e-6
    assert len(est.phases) == 2


def _assert_closed_form_alpha(curve, periods, parts):
    """Each alpha_ratio is trig_alpha(g) times a 144th root of unity, to 1e-10."""
    alpha = trig_alpha(curve.genus)
    for p, r in zip(parts, alpha_ratio(curve, periods, parts)):
        assert abs(abs(r) / alpha - 1.0) < 1e-10, p.label()
        assert classify_root_of_unity(r / alpha, 144, 1e-10).ok, p.label()


def test_alpha_closed_form_q1(trig_q1):
    # all q=1 curves are the same elliptic curve (j = 0), so a few suffice
    curves = [trig_q1] + [(c, build_periods(c)) for c in
                          (random_curve(3, 2, seed) for seed in (5, 7))]
    assert trig_alpha(1) == pytest.approx(0.347752218266, rel=1e-11)
    for c, pd in curves:
        _assert_closed_form_alpha(c, pd, enumerate_partitions_trig(1, "constant"))


def _bench_trig_curve() -> CurveSpec:
    """The q=2 curve of bench/workloads.trig_plan(1)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if root not in sys.path:
        sys.path.insert(0, root)
    from bench.workloads import trig_plan
    return CurveSpec.from_json(trig_plan(1)["curve"])


def test_alpha_closed_form_q2(trig_q2_batch):
    bench = _bench_trig_curve()
    for c, pd in trig_q2_batch + [(bench, build_periods(bench))]:
        _assert_closed_form_alpha(c, pd, enumerate_partitions_trig(2, "constant"))


def test_alpha_closed_form_q3(trig_q3_g7):
    # every 28th of the 560 constant partitions keeps this under a second
    c, pd = trig_q3_g7
    parts = enumerate_partitions_trig(3, "constant")
    assert len(parts) == 560
    _assert_closed_form_alpha(c, pd, parts[::28])


def test_deriv_t1_all(trig_q2):
    c, pd = trig_q2
    parts = enumerate_partitions_trig(2, "deriv1")
    assert len(parts) == 20
    for p, rep in zip(parts, verify_thomae_deriv_trig_t1(c, pd, parts, tol=1e-5)):
        assert rep.passed, (p.label(), rep.spread, rep.tag)
        assert rep.tag.order == 144


def test_deriv_t1_q1_degenerate(trig_q1):
    c, pd = trig_q1
    (p,) = enumerate_partitions_trig(1, "deriv1")
    (rep,) = verify_thomae_deriv_trig_t1(c, pd, [p], tol=1e-6)
    assert rep.passed


def test_deriv_t2_both_infinity_placements(trig_q2):
    c, pd = trig_q2
    for loc in (1, 0):
        parts = enumerate_partitions_trig(2, "deriv2", infinity_in=loc)
        assert len(parts) == 10
        for p, rep in zip(parts, verify_thomae_deriv_trig_t2(c, pd, parts, tol=1e-5)):
            assert rep.passed, (p.label(), rep.spread, rep.tag)
            # Lambda2 empty at q=2: single l = g term with sigma_0 = 1
            assert rep.details["zeros_ok"]


def test_deriv_rhs_uses_correct_rows(trig_q2):
    # type-1 involves only rows l <= 2q-1 of C, type-2 only l >= 2q
    from thetalab.thomae import _deriv_rhs
    c, pd = trig_q2
    q = c.q
    p1 = enumerate_partitions_trig(2, "deriv1")[0]
    p2 = enumerate_partitions_trig(2, "deriv2", infinity_in=1)[0]
    base1 = _deriv_rhs(c, pd, p1)
    base2 = _deriv_rhs(c, pd, p2)
    pd2 = __import__("copy").copy(pd)
    Cmod = pd.C.copy()
    Cmod[2 * q - 1:, :] *= 7.0     # scale the second-family rows
    pd2.C = Cmod
    detfac = 7.0 ** ((q - 1) / 2.0)   # only through the sqrt(det C) prefactor
    assert np.allclose(_deriv_rhs(c, pd2, p1), detfac * base1)
    assert np.allclose(_deriv_rhs(c, pd2, p2), 7.0 * detfac * base2)


def test_quotient_trig_all_k(trig_q2):
    c, pd = trig_q2
    for k in range(1, 6):
        rep = verify_quotient_trig(c, pd, k, seed=23, tol=1e-6)
        assert rep.passed, (k, rep.tag)
        assert rep.tag.order == 12
        assert rep.spread < 1e-6


def test_matrix_form_trig(trig_q2):
    c, pd = trig_q2
    p = enumerate_partitions_trig(2, "constant")[0]
    derived = derived_partitions_for_matrix(p, 2)
    assert len(derived) == 4
    assert [d.kind for d in derived] == ["deriv1", "deriv1", "deriv2", "deriv2"]
    (rep,) = verify_matrix_form_trig(c, pd, [p], tol=1e-5)
    assert rep.passed, rep.details
    assert rep.details["zero_block_err"] < 1e-10
    assert rep.details["entrywise_rel_err"] < 1e-5


def test_matrix_form_trig_rows_are_the_derivative_reports(trig_q2):
    c, pd = trig_q2
    p = enumerate_partitions_trig(2, "constant")[1]
    (rep,) = verify_matrix_form_trig(c, pd, [p], tol=1e-5)
    alone = [(verify_thomae_deriv_trig_t1 if pk.kind == "deriv1"
              else verify_thomae_deriv_trig_t2)(c, pd, [pk])[0] for pk in
             derived_partitions_for_matrix(p, 2)]
    assert rep.details["row_tags"] == [r.tag.index for r in alone]


def test_matrix_forms_trig_build_each_shared_row_once(trig_q2, monkeypatch):
    # the q=2 curve's 30 constant-kind forms have 4 rows each, shared among
    # fewer distinct deriv-kind partitions
    import thetalab.thomae
    c, pd = trig_q2
    forms = enumerate_partitions_trig(2, "constant")
    distinct = {pk for p in forms for pk in derived_partitions_for_matrix(p, 2)}
    assert len(distinct) < 4 * len(forms)
    monkeypatch.setattr(pd, "_theta_table", {})
    alone = [rep for p in forms for rep in verify_matrix_form_trig(c, pd, [p], tol=1e-5)]
    built, build = [], thetalab.thomae.char_from_partition_trig

    def building(p, periods):
        built.append(p)
        return build(p, periods)
    monkeypatch.setattr(thetalab.thomae, "char_from_partition_trig", building)
    reports = verify_matrix_form_trig(c, pd, forms, tol=1e-5)
    assert len(set(built)) == len(built) == len(distinct)
    assert [rep.jsonl() for rep in reports] == [rep.jsonl() for rep in alone]
    assert all(rep.passed for rep in reports)


def test_matrix_form_trig_fails_on_reordered_rows(trig_q2, monkeypatch):
    # every row still holds, but Sigma's zero blocks land in the wrong place
    import thetalab.thomae
    real = thetalab.thomae.derived_partitions_for_matrix
    monkeypatch.setattr(thetalab.thomae, "derived_partitions_for_matrix",
                        lambda p, q: real(p, q)[::-1])
    c, pd = trig_q2
    (rep,) = verify_matrix_form_trig(c, pd, enumerate_partitions_trig(2, "constant")[:1],
                                     tol=1e-5)
    assert not rep.passed
    assert rep.details["zero_block_err"] > thetalab.thomae.ZERO_BLOCK_TOL
    assert rep.details["entrywise_rel_err"] < 1e-5


def test_simple_zero_check_sums_theta_once(trig_q2, monkeypatch):
    # the value and the gradient come from one table entry, summed by one
    # kernel call the first time and read back after that
    import thetalab.periods
    summed = []
    kernel = thetalab.periods.theta_sums

    def counted(chars, *args, **kwargs):
        summed.append(list(chars))
        return kernel(chars, *args, **kwargs)
    monkeypatch.setattr(thetalab.periods, "theta_sums", counted)
    c, pd = trig_q2
    monkeypatch.setattr(pd, "_theta_table", {})
    p = enumerate_partitions_trig(2, "deriv1")[0]
    (first,) = simple_zero_check(pd, [p])
    (again,) = simple_zero_check(pd, [p])
    assert first.passed and again.jsonl() == first.jsonl()
    assert summed == [[char_from_partition_trig(p, pd)]]


def test_q2_plan_sums_each_theta_constant_once(trig_q2, monkeypatch):
    # every trigonal task of a plan on one curve: the derivative tasks, the
    # matrix form and the simple zeros share their gradient sums, and no
    # (characteristic, tol, grad) reaches the kernel twice
    summed = run_plan_tasks(monkeypatch, *trig_q2, {}, 1e-5)
    # 30 constant values; gradients of 20 deriv1, 20 deriv2 and 30 constant
    assert len(set(summed)) == len(summed) == 100


def test_verifiers_check_every_partition_before_any_sum(trig_q2, monkeypatch):
    import thetalab.periods
    c, pd = trig_q2

    def must_not_sum(*args):
        raise AssertionError("theta summed before every partition was checked")
    monkeypatch.setattr(thetalab.periods, "theta_sums", must_not_sum)
    monkeypatch.setattr(pd, "_theta_table", {})
    const, d1 = enumerate_partitions_trig(2, "constant"), enumerate_partitions_trig(2, "deriv1")
    d2 = enumerate_partitions_trig(2, "deriv2")
    short = Partition("deriv1", (IndexSet.of([1, 2, INF]), IndexSet.of([3]),
                                 IndexSet.of([4, 5])))
    for verify, parts, match in (
            (verify_thomae_deriv_trig_t1, d1 + [short], "sizes"),
            (verify_thomae_deriv_trig_t2, d2 + d1[:1], "deriv2 partition"),
            (verify_matrix_form_trig, const[:2] + d1[:1], "constant-kind"),
            (alpha_ratio, const + [short], "sizes"),
            (lambda c, pd, parts: simple_zero_check(pd, parts), d1 + [short], "sizes")):
        with pytest.raises(ValueError, match=match):
            verify(c, pd, parts)


def test_simple_zeros(trig_q2):
    c, pd = trig_q2
    deriv = (enumerate_partitions_trig(2, "deriv1")
             + enumerate_partitions_trig(2, "deriv2", infinity_in=1))
    assert len(deriv) == 30
    for rep in simple_zero_check(pd, deriv):
        assert rep.passed and rep.details["is_zero"] and rep.details["grad_ok"]
    for rep in simple_zero_check(pd, enumerate_partitions_trig(2, "constant")[:8]):
        assert rep.passed and not rep.details["is_zero"]
