"""Self-test of the benchmark's correctness checks.

    python3 -m pytest -q bench/test_checks.py

Each check first passes on genuine program output and then must fire on a
deliberately corrupted copy: a perturbed ratio, a flipped `passed`, a
missing report, changed JSONL bytes, a theta value or gradient moved beyond
its bound, a broken quasi-periodicity and an odd characteristic that does
not vanish.  A last test checks that the tracer counts theta work and puts
the program's functions back.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import types

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
import thetalab.theta  # noqa: E402

PLAN_G2 = {
    "curve": {"n": 2, "lambdas": workloads.ring_lambdas(5, np.random.default_rng(3))},
    "seed": 5,
    "tasks": [{"id": "period_sanity"}, {"id": "thomae_const_hyp"},
              {"id": "thomae_deriv_hyp", "include_infinity": True},
              {"id": "quotient_hyp", "ks": [1, 2]}, {"id": "matrix_form_hyp"}],
}


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("verify")
    plan_path = str(d / "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(PLAN_G2, fh)
    op = workloads.VerifyOp("g2", [workloads.PlanFile("g2", PLAN_G2, plan_path,
                                                      str(d / "out.jsonl"))])
    [(rc, jsonl)] = op.collect(op())
    assert checks.check_verify_output(PLAN_G2, rc, jsonl, jsonl) == []
    return rc, jsonl


def _edit(jsonl: bytes, index: int, change) -> bytes:
    lines = jsonl.decode().splitlines()
    rep = json.loads(lines[index])
    change(rep)
    lines[index] = json.dumps(rep, separators=(",", ":"))
    return ("\n".join(lines) + "\n").encode()


def _first(jsonl: bytes, identity: str) -> int:
    lines = jsonl.decode().splitlines()
    return next(i for i, line in enumerate(lines) if json.loads(line)["identity"] == identity)


def test_expected_counts_match_the_trigonal_plan():
    counts = checks.expected_report_counts(workloads.trig_plan(1))
    assert counts == {"period_sanity": 1, "alpha_trig": 1, "thomae_deriv_trig_t1": 20,
                      "thomae_deriv_trig_t2": 20, "quotient_trig": 5,
                      "matrix_form_trig": 1, "simple_zero_trig": 60}


@pytest.mark.parametrize("identity", ["thomae_const_hyp", "thomae_deriv_hyp", "quotient_hyp"])
def test_perturbed_ratio_fires(verify_run, identity):
    rc, jsonl = verify_run
    i = _first(jsonl, identity)

    def perturb(rep):
        re, im = rep["ratios"][0]
        rep["ratios"][0] = [re * (1 + 1e-3), im * (1 + 1e-3)]
    errors = checks.check_verify_output(PLAN_G2, rc, _edit(jsonl, i, perturb), None)
    assert any("misses 1" in e for e in errors), errors


def test_wrong_root_index_fires(verify_run):
    rc, jsonl = verify_run
    i = _first(jsonl, "thomae_const_hyp")

    def shift(rep):
        rep["root_tag"]["index"] = (rep["root_tag"]["index"] + 1) % rep["root_tag"]["order"]
    errors = checks.check_verify_output(PLAN_G2, rc, _edit(jsonl, i, shift), None)
    assert any("root index" in e for e in errors), errors


def test_flipped_passed_fires(verify_run):
    rc, jsonl = verify_run
    i = _first(jsonl, "matrix_form_hyp")
    errors = checks.check_verify_output(
        PLAN_G2, rc, _edit(jsonl, i, lambda rep: rep.update(passed=False)), None)
    assert any("passed is False" in e for e in errors), errors


def test_missing_report_fires(verify_run):
    rc, jsonl = verify_run
    lines = jsonl.decode().splitlines()
    dropped = ("\n".join(lines[:-1]) + "\n").encode()
    errors = checks.check_verify_output(PLAN_G2, rc, dropped, None)
    assert any("report counts" in e for e in errors), errors


def test_changed_bytes_and_exit_code_fire(verify_run):
    rc, jsonl = verify_run
    changed = jsonl.replace(b'"passed":true', b'"passed": true', 1)
    errors = checks.check_verify_output(PLAN_G2, rc, changed, jsonl)
    assert any("JSONL differs" in e for e in errors), errors
    errors = checks.check_verify_output(PLAN_G2, 1, jsonl, jsonl)
    assert any("exit code 1" in e for e in errors), errors


# ----------------------------------------------------------------------------
# theta


@pytest.fixture(scope="module")
def theta_item():
    batch = workloads.theta_batch(4, 0)
    item = batch[len(workloads.THETA_MIN_EIGS) * workloads.THETA_REPEATS]   # genus 2, min eig 0.2
    out = workloads.ThetaOp("b0", [item])()[0]
    rng = np.random.default_rng(0)
    assert checks.check_theta_bounds(out, workloads.THETA_TOL) == []
    assert checks.check_theta_oracle(item, out) == []
    assert checks.check_theta_identities(thetalab.theta, item, out,
                                         workloads.THETA_TOL, rng) == []
    return item, out


def test_brute_theta_matches_a_classical_value():
    value, _, _, _ = checks.brute_theta(np.array([[1j]]), [0], [0], np.zeros(1))
    assert abs(value - 1.0864348112133082) < 1e-14


def test_moved_theta_value_fires(theta_item):
    item, out = theta_item
    moved = dataclasses.replace(out, value=out.value + 10 * out.value_bound + 1e-6)
    assert any("theta value" in e for e in checks.check_theta_oracle(item, moved))


def test_moved_theta_gradient_fires(theta_item):
    item, out = theta_item
    grad = np.array(out.gradient)
    grad[-1] += 10 * out.gradient_bound + 1e-6
    moved = dataclasses.replace(out, gradient=grad)
    assert any("gradient" in e for e in checks.check_theta_oracle(item, moved))


def test_bound_above_tol_fires(theta_item):
    _, out = theta_item
    loose = dataclasses.replace(out, value_bound=1e-6)
    assert checks.check_theta_bounds(loose, workloads.THETA_TOL)


def test_broken_quasi_periodicity_fires(theta_item):
    item, out = theta_item
    moved = dataclasses.replace(out, value=out.value * 1.001)
    errors = checks.check_theta_identities(thetalab.theta, item, moved, workloads.THETA_TOL,
                                           np.random.default_rng(0))
    assert any("quasi-periodicity" in e for e in errors), errors


def test_nonvanishing_odd_characteristic_fires(theta_item):
    item, out = theta_item
    real = thetalab.theta

    def theta_eval(char, zeta, tau, tol):
        val = real.theta_eval(char, zeta, tau, tol)
        if not np.any(zeta):
            val = real.ThetaValue(val.value + 1e-6, val.truncation_bound)
        return val
    fake = types.SimpleNamespace(RiemannMatrix=real.RiemannMatrix,
                                 Characteristic=real.Characteristic, theta_eval=theta_eval)
    errors = checks.check_theta_identities(fake, item, out, workloads.THETA_TOL,
                                           np.random.default_rng(0))
    assert any("odd characteristic" in e for e in errors), errors


# ----------------------------------------------------------------------------
# tracer


def test_tracer_counts_spans_and_restores_the_program():
    import spans
    import thetalab.thomae
    originals = (thetalab.theta.theta_eval, thetalab.thomae.theta_eval,
                 thetalab.theta.RiemannMatrix.__init__)
    with spans.Tracer() as tracer:
        assert thetalab.thomae.theta_eval is thetalab.theta.theta_eval is not originals[0]
        workloads.ThetaOp("b0", workloads.theta_batch(1, 0)[:3])()
        snap = tracer.snapshot()
    assert (thetalab.theta.theta_eval, thetalab.thomae.theta_eval,
            thetalab.theta.RiemannMatrix.__init__) == originals
    assert snap["theta.eval_calls"] == snap["theta.grad_calls"] == 3
    assert snap["theta.matrix_builds"] == 3
    assert snap["theta.points_returned"] > 0 and snap["theta.self_s"] > 0
    assert snap["quadrature.self_s"] == 0 and snap["cli.self_s"] == 0
