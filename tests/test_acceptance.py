"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from thetalab.algebra import INF, classify_root_of_unity
from thetalab.periods import SurfacePoint
from thetalab.theta import (Characteristic, RiemannMatrix, reduce_characteristic,
                            theta_eval, theta_grad)
from thetalab import thomae

from conftest import random_riemann_matrix
from jacobians import (TrigConfiguration, aj_jacobian_hyper, aj_jacobian_hyper_closed,
                       aj_jacobian_trig, jacobi_inversion_newton, trig_forward_block_matrix,
                       trig_forward_fd)
from oracles import apply_transchar, count_parities, cross_ratio_j, j_invariant


def _report(criterion: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion:2d} [{label}]: {status} {detail}")
    assert ok, f"criterion {criterion} ({label}) failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_theta_core():
    rng = np.random.default_rng(2024)
    worst = {"parity": 0.0, "periodicity": 0.0, "reduction": 0.0, "transchar": 0.0}
    for g in (1, 2, 3, 4):
        for rep in range(5):
            tau = RiemannMatrix(random_riemann_matrix(g, rng))
            for _ in range(5):
                eps = rng.integers(0, 2, g)
                delta = rng.integers(0, 2, g)
                ch = Characteristic.of(eps, delta)
                zeta = rng.normal(size=g) * 0.5 + 1j * rng.normal(size=g) * 0.4

                v = theta_eval(ch, zeta, tau, 1e-12).value
                # parity
                lhs = theta_eval(ch, -zeta, tau, 1e-12).value
                rhs = np.exp(-1j * np.pi * float(eps @ delta)) * v
                worst["parity"] = max(worst["parity"], abs(lhs - rhs) / max(abs(rhs), 1e-3))
                # quasi-periodicity
                n = rng.integers(-2, 3, g)
                l = rng.integers(-2, 3, g)
                lhs = theta_eval(ch, zeta + tau.matrix @ n + l, tau, 1e-12).value
                pref = np.exp(2j * np.pi * (-n @ tau.matrix @ n / 2.0 - n @ zeta
                                            + (l @ eps - n @ delta) / 2.0))
                worst["periodicity"] = max(worst["periodicity"],
                                           abs(lhs - pref * v) / max(abs(pref * v), 1e-3))
                # characteristic reduction
                big = Characteristic.of(eps + 2 * rng.integers(-2, 3, g),
                                        delta + 2 * rng.integers(-2, 3, g))
                red, phase = reduce_characteristic(big)
                lhs = theta_eval(big, zeta, tau, 1e-12).value
                rhs = phase * theta_eval(red, zeta, tau, 1e-12).value
                worst["reduction"] = max(worst["reduction"],
                                         abs(lhs - rhs) / max(abs(rhs), 1e-3))
                # transchar
                shifted, pref2 = apply_transchar(ch, zeta, tau)
                rhs = pref2 * theta_eval(Characteristic.zero(g), shifted, tau, 1e-12).value
                worst["transchar"] = max(worst["transchar"],
                                         abs(v - rhs) / max(abs(rhs), 1e-3))
    ok = all(x < 1e-9 for x in worst.values())

    # gradients vs central finite differences
    worst_grad = 0.0
    for g in (1, 2, 3, 4):
        tau = RiemannMatrix(random_riemann_matrix(g, rng))
        for _ in range(25):
            ch = Characteristic.of(rng.integers(0, 2, g), rng.integers(0, 2, g))
            zeta = rng.normal(size=g) * 0.3 + 1j * rng.normal(size=g) * 0.3
            grad = theta_grad(ch, zeta, tau, 1e-10).values
            s = int(rng.integers(0, g))
            h = 1e-5
            e = np.zeros(g)
            e[s] = h
            fd = (theta_eval(ch, zeta + e, tau, 1e-13).value
                  - theta_eval(ch, zeta - e, tau, 1e-13).value) / (2 * h)
            worst_grad = max(worst_grad, abs(grad[s] - fd) / max(abs(fd), 1e-3))
    ok = ok and worst_grad < 1e-6
    census = count_parities(2)
    ok = ok and census == (10, 6)
    _report(1, "theta core identities", ok,
            f"worst residuals {worst}, grad {worst_grad:.2e}, census {census}")


def test_criterion_02_period_sanity(hyp_g2_batch, trig_q2_batch):
    worst = {"asym": 0.0, "drift": 0.0, "order_n": 0.0, "two_k": 0.0, "min_eig": np.inf}
    for c, pd in list(hyp_g2_batch) + list(trig_q2_batch):
        d = pd.diagnostics
        worst["asym"] = max(worst["asym"], d["tau_asymmetry"])
        worst["drift"] = max(worst["drift"], d["quad_drift"])
        worst["min_eig"] = min(worst["min_eig"], d["im_tau_min_eig"])
        for k in pd.aj_branch:
            worst["order_n"] = max(worst["order_n"],
                                   pd.lattice_distance(c.n * pd.aj_branch[k]))
        worst["two_k"] = max(worst["two_k"], pd.lattice_distance(2 * pd.K))
    ok = (worst["asym"] < 1e-8 and worst["drift"] < 1e-9 and worst["min_eig"] > 0
          and worst["order_n"] < 1e-8 and worst["two_k"] < 1e-8)
    _report(2, "period sanity 5 hyperelliptic + 3 trigonal", ok, str(worst))


def test_criterion_03_closed_form_cross_checks(hyp_g1, trig_q1):
    _, pd2 = hyp_g1
    _, pd3 = trig_q1
    j2 = j_invariant(pd2.tau.matrix[0, 0])
    j3 = j_invariant(pd3.tau.matrix[0, 0])
    target = cross_ratio_j(0.0, 1.0, 2.0)
    ok = abs(j2 - target) < 1e-6 and abs(target - 1728.0) < 1e-9 and abs(j3) < 1e-6
    _report(3, "j(tau)=1728 and j(tau)=0 cross-checks", ok,
            f"|j2-1728|={abs(j2-1728):.2e}, |j3|={abs(j3):.2e}")


def test_criterion_04_thomae_constants_hyp(hyp_g2, hyp_g2_batch):
    curves = [hyp_g2] + list(hyp_g2_batch[:3])
    n_pass = 0
    total = 0
    worst = 0.0
    for c, pd in curves:
        for rep in thomae.verify_thomae_const_hyp(c, pd, thomae.enumerate_partitions_hyp(2, 0),
                                                  tol=1e-6):
            total += 1
            n_pass += rep.passed
            worst = max(worst, rep.tag.modulus_error, rep.tag.phase_residual)
    ok = n_pass == total == 40
    _report(4, "Thomae constants, 10 partitions x 4 curves", ok,
            f"{n_pass}/{total}, worst residual {worst:.2e}")


def test_criterion_05_thomae_derivatives_hyp(hyp_g2, hyp_g2_batch, hyp_g3):
    curves = [hyp_g2] + list(hyp_g2_batch[:3])
    n_pass = 0
    total = 0
    worst = 0.0
    for c, pd in curves:
        for rep in thomae.verify_thomae_deriv_hyp(c, pd, thomae.enumerate_partitions_hyp(2, 1),
                                                  tol=1e-6):
            total += 1
            n_pass += rep.passed
            worst = max(worst, rep.spread,
                        rep.tag.phase_residual if rep.tag else 1.0)
    ok = n_pass == total == 24      # 5 theorem + 1 relocation partition per curve
    # g=3 smoke run at 1e-5
    c3, pd3 = hyp_g3
    smoke = [p for p in thomae.enumerate_partitions_hyp(3, 1) if INF not in p.parts[1]][:3]
    for rep in thomae.verify_thomae_deriv_hyp(c3, pd3, smoke, tol=1e-5):
        total += 1
        n_pass += rep.passed
        ok = ok and rep.passed
    _report(5, "Thomae derivatives, m=1 partitions + g=3 smoke", ok,
            f"{n_pass}/{total}, worst spread/residual {worst:.2e}")


def test_criterion_06_jacobian_oracles(hyp_g2, trig_q2):
    c, pd = hyp_g2
    rng = np.random.default_rng(64)
    pts = []
    while len(pts) < 2:
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if min(abs(z - l) for l in c.lambdas) > 0.5 and all(abs(z - p.z) > 0.5 for p in pts):
            pts.append(SurfacePoint(z, c.w_principal(z)))
    jac = aj_jacobian_hyper(c, pd, pts)
    closed = aj_jacobian_hyper_closed(c, pd, pts)
    err_closed = np.max(np.abs(jac - closed)) / np.max(np.abs(jac))
    zeta0 = sum(pd.abel_jacobi_point(p) for p in pts)

    def central(h, s):
        e = np.zeros(2)
        e[s] = h
        plus, _ = jacobi_inversion_newton(c, pd, pts, zeta0 + e)
        minus, _ = jacobi_inversion_newton(c, pd, pts, zeta0 - e)
        return np.array([(plus[r].z - minus[r].z) / (2 * h) for r in range(2)])

    err_fd = 0.0
    for s in range(2):
        fd = (4.0 * central(5e-5, s) - central(1e-4, s)) / 3.0
        err_fd = max(err_fd, float(np.max(np.abs(fd - jac[:, s]) / np.abs(jac[:, s]))))

    c3, pd3 = trig_q2
    config = TrigConfiguration((2, 4, 1))
    M = trig_forward_block_matrix(c3, config)
    Mfd = trig_forward_fd(c3, config)
    q = c3.q
    live = np.abs(M) > 0
    err_trig = float(np.max(np.abs((Mfd - M)[live]) / np.abs(M[live])))
    mixed = max(float(np.max(np.abs(Mfd[2 * q - 1:, : 2 * q - 1]))),
                float(np.max(np.abs(Mfd[: 2 * q - 1, 2 * q - 1:]))))
    scale = float(np.max(np.abs(M)))
    ok = (err_closed < 1e-10 and err_fd < 1e-6 and err_trig < 1e-5
          and mixed < 1e-8 * max(1.0, scale))
    _report(6, "Jacobian lemmas vs finite differences", ok,
            f"closed {err_closed:.1e}, newton-fd {err_fd:.1e}, "
            f"trig-fd {err_trig:.1e}, mixed {mixed:.1e}")


def test_criterion_07_alpha_global(trig_q2_batch):
    est = thomae.estimate_alpha(trig_q2_batch, tol=1e-6)
    per_curve = {}
    for ci, (c, pd) in enumerate(trig_q2_batch):
        parts = thomae.enumerate_partitions_trig(c.q, "constant")
        per_curve[ci] = [abs(r) for r in thomae.alpha_ratio(c, pd, parts)]
    spreads = {ci: (max(v) - min(v)) / np.median(v) for ci, v in per_curve.items()}
    means = [np.median(v) for v in per_curve.values()]
    cross = (max(means) - min(means)) / np.median(means)
    phases_ok = all(t.ok for t in est.phases)
    closed = abs(est.modulus / thomae.trig_alpha(4) - 1.0)
    ok = (all(s < 1e-6 for s in spreads.values()) and cross < 1e-6 and phases_ok
          and closed < 1e-10)
    _report(7, "alpha modulus global and closed-form + 144th-root phases", ok,
            f"per-curve spreads {[f'{s:.1e}' for s in spreads.values()]}, "
            f"cross-curve {cross:.2e}, |alpha|={est.modulus:.6g} "
            f"(closed form off by {closed:.1e})")


def test_criterion_08_trig_derivatives(trig_q2):
    c, pd = trig_q2
    n_pass = total = 0
    worst = 0.0
    for rep in thomae.verify_thomae_deriv_trig_t1(
            c, pd, thomae.enumerate_partitions_trig(2, "deriv1"), tol=1e-5):
        total += 1
        n_pass += rep.passed
        worst = max(worst, rep.spread, rep.tag.phase_residual)
    assert total == 20
    for loc in (1, 0):
        for rep in thomae.verify_thomae_deriv_trig_t2(
                c, pd, thomae.enumerate_partitions_trig(2, "deriv2", infinity_in=loc), tol=1e-5):
            total += 1
            n_pass += rep.passed
            worst = max(worst, rep.spread, rep.tag.phase_residual)
    ok = n_pass == total == 40
    _report(8, "trigonal derivative identities 20 + 10 + 10", ok,
            f"{n_pass}/{total}, worst {worst:.2e} (type-2 constant alpha/3; see ledger)")


def test_criterion_09_quotients(hyp_g2, trig_q2):
    c2, pd2 = hyp_g2
    c3, pd3 = trig_q2
    n_pass = total = 0
    worst = 0.0
    for k in range(1, 6):
        rep = thomae.verify_quotient_hyp(c2, pd2, k, seed=900 + k, samples=3, tol=1e-6)
        total += 1
        n_pass += rep.passed
        worst = max(worst, rep.spread)
        assert rep.tag.order == 4
    for k in range(1, 6):
        rep = thomae.verify_quotient_trig(c3, pd3, k, seed=700 + k, samples=3, tol=1e-6)
        total += 1
        n_pass += rep.passed
        worst = max(worst, rep.spread)
        assert rep.tag.order == 12
    ok = n_pass == total == 10
    _report(9, "theta quotients constant across samples", ok,
            f"{n_pass}/{total}, worst sample spread {worst:.2e}")


def test_criterion_10_simple_zero_census(trig_q2):
    c, pd = trig_q2
    deriv = (thomae.enumerate_partitions_trig(2, "deriv1")
             + thomae.enumerate_partitions_trig(2, "deriv2", infinity_in=1))
    const = thomae.enumerate_partitions_trig(2, "constant")
    zero_pass = sum(rep.passed for rep in thomae.simple_zero_check(pd, deriv))
    const_nonzero = sum(1 for rep in thomae.simple_zero_check(pd, const)
                        if not rep.details["is_zero"])
    ok = zero_pass == 30 and const_nonzero == 30
    _report(10, "simple-zero census of the theta divisor", ok,
            f"deriv-kind zeros {zero_pass}/30, constant-kind nonzero {const_nonzero}/30")


def test_criterion_11_matrix_forms(hyp_g2, trig_q2):
    c2, pd2 = hyp_g2
    (rep_h,) = thomae.verify_matrix_form_hyp(c2, pd2,
                                             thomae.enumerate_partitions_hyp(2, 0)[:1],
                                             tol=1e-6)
    c3, pd3 = trig_q2
    (rep_t,) = thomae.verify_matrix_form_trig(c3, pd3,
                                              thomae.enumerate_partitions_trig(2, "constant")[:1],
                                              tol=1e-5)
    ok = rep_h.passed and rep_t.passed
    _report(11, "matrix forms of the derivative identities", ok,
            f"hyp det-sigma {rep_h.details['det_sigma_rel_err']:.1e} "
            f"entrywise {rep_h.details['entrywise_rel_err']:.1e}; "
            f"trig entrywise {rep_t.details['entrywise_rel_err']:.1e} "
            f"zero-block {rep_t.details['zero_block_err']:.1e}")


def test_criterion_12_cli_determinism(tmp_path):
    cli = [sys.executable, "-m", "thetalab.cli"]
    plan = {
        "curve": {"n": 2, "lambdas": [[0, 0], [1, 0], [2, 0]]},
        "seed": 5,
        "tasks": [{"id": "period_sanity"}, {"id": "thomae_const_hyp"},
                  {"id": "quotient_hyp", "ks": [1, 2]}],
    }
    fplan = tmp_path / "plan.json"
    fplan.write_text(json.dumps(plan))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.jsonl"
        r = subprocess.run(cli + ["verify", str(fplan), "--out", str(out)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]

    # verification-failure fixture
    bad_plan = dict(plan, tasks=[{"id": "thomae_const_hyp", "tol": 1e-15}])
    fbad = tmp_path / "bad.json"
    fbad.write_text(json.dumps(bad_plan))
    r_fail = subprocess.run(cli + ["verify", str(fbad)], capture_output=True, text=True)
    # parse-failure fixture
    fparse = tmp_path / "broken.json"
    fparse.write_text("{]")
    r_parse = subprocess.run(cli + ["verify", str(fparse)], capture_output=True, text=True)
    ok = identical and r_fail.returncode == 1 and r_parse.returncode == 2
    _report(12, "CLI determinism and exit codes", ok,
            f"identical={identical}, fail-exit={r_fail.returncode}, "
            f"parse-exit={r_parse.returncode}")
