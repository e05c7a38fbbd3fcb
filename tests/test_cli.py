import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "thetalab.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_periods_g1(tmp_path):
    f = write(tmp_path / "c.json", {"n": 2, "lambdas": [[0, 0], [1, 0], [2, 0]]})
    r = run_cli("periods", f)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["genus"] == 1
    assert len(out["tau"]) == 1
    assert out["tau"][0][0][1] > 0          # Im tau > 0
    assert out["invariants"]["quad_drift"] < 1e-9


def test_periods_malformed_json(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{ not json")
    r = run_cli("periods", str(f))
    assert r.returncode == 2


def test_periods_duplicate_lambda(tmp_path):
    f = write(tmp_path / "c.json", {"n": 2, "lambdas": [[0, 0], [1, 0], [1, 0]]})
    r = run_cli("periods", str(f))
    assert r.returncode == 3
    assert "not distinct" in r.stderr


def test_theta_classical_value(tmp_path):
    f = write(tmp_path / "t.json",
              {"tau": [[[0.0, 1.0]]], "eps": [0], "delta": [0],
               "zeta": [[0.0, 0.0]], "tol": 1e-12})
    r = run_cli("theta", f)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert abs(out["value"][0] - 1.0864348112133082) < 1e-10
    assert out["truncation_bound"] <= 1e-12
    assert abs(out["gradient"][0][0]) < 1e-8 and abs(out["gradient"][0][1]) < 1e-8


def test_theta_odd_char_zero(tmp_path):
    f = write(tmp_path / "t.json",
              {"tau": [[[0.3, 1.1]]], "eps": [1], "delta": [1]})
    r = run_cli("theta", f)
    out = json.loads(r.stdout)
    assert abs(complex(out["value"][0], out["value"][1])) < 1e-9


def test_theta_prints_the_radius_it_summed_at(tmp_path, capsys):
    # the README input: a gradient sums beyond the unit-amplitude value radius
    from thetalab.cli import main
    from thetalab.theta import Characteristic, RiemannMatrix, theta_grad, truncation_radius
    f = write(tmp_path / "t.json",
              {"tau": [[[0.0, 1.0]]], "eps": [0], "delta": [0], "zeta": [[0.0, 0.0]]})
    assert main(["theta", f]) == 0
    radius = json.loads(capsys.readouterr().out)["radius"]
    tau = RiemannMatrix([[1j]])
    assert radius == theta_grad(Characteristic.zero(1), [0j], tau, 1e-10).radius
    assert round(radius, 3) == 5.349
    assert round(truncation_radius(tau, 1e-10), 3) == 5.062


def test_theta_bad_tau(tmp_path):
    f = write(tmp_path / "t.json", {"tau": [[[0.0, -1.0]]]})
    r = run_cli("theta", f)
    assert r.returncode == 3


@pytest.mark.parametrize("tau", [
    [[[0, 1]], [[0, 1], [0, 0]]], [[[0, 1], [0, 0]]], [], [[]],
], ids=["ragged", "one-by-two", "empty", "one-by-zero"])
def test_theta_tau_not_square_exits_2(tmp_path, capsys, tau):
    from thetalab.cli import main
    f = write(tmp_path / "t.json", {"tau": tau})
    assert main(["theta", f]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed theta input") and err.count("\n") == 1


def test_theta_asymmetric_tau_exits_3(tmp_path, capsys):
    from thetalab.cli import main
    f = write(tmp_path / "t.json", {"tau": [[[0, 1], [0, 0.5]], [[0, 0], [0, 1]]]})
    assert main(["theta", f]) == 3
    assert capsys.readouterr().err.startswith("error: invalid Riemann matrix")


@pytest.mark.parametrize("tol", ["x", -1, float("nan")], ids=["string", "negative", "nan"])
def test_theta_bad_tolerance_exits_2(tmp_path, capsys, tol):
    from thetalab.cli import main
    f = tmp_path / "t.json"
    f.write_text(json.dumps({"tau": [[[0.0, 1.0]]], "tol": tol}))   # NaN as the token NaN
    assert main(["theta", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tol must be") and err.count("\n") == 1


TAU_G2 = [[[0.1, 1.2], [0.2, 0.3]], [[0.2, 0.3], [-0.1, 0.9]]]


@pytest.mark.parametrize("entry", [
    {"eps": ["a", 0]}, {"eps": [float("nan"), 0]}, {"eps": 1}, {"eps": [0]},
    {"delta": [0, 1, 0]}, {"zeta": [[0.0, 0.0]]}, {"zeta": [[0.0, 0.0], [1.0]]},
    {"eps": [True, 0]}, {"delta": [0, True]},
], ids=["eps-string", "eps-nan", "eps-scalar", "eps-short", "delta-long", "zeta-short",
        "zeta-not-a-pair", "eps-true", "delta-true"])
def test_theta_bad_characteristic_or_argument_exits_2(tmp_path, capsys, entry):
    from thetalab.cli import main
    f = tmp_path / "t.json"
    f.write_text(json.dumps({"tau": TAU_G2, **entry}))
    assert main(["theta", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed theta input") and err.count("\n") == 1


@pytest.mark.parametrize("entry", [
    {"zeta": [[float("nan"), 0.0]]}, {"zeta": [[0.0, float("inf")]]},
    {"tau": [[[float("nan"), 1.0]]]}, {"tau": [[[0.0, float("inf")]]]},
], ids=["zeta-nan", "zeta-inf", "tau-nan", "tau-inf"])
def test_theta_non_finite_input_exits_2(tmp_path, capsys, entry):
    # NaN and Infinity as the tokens json writes for them; a NaN zeta once
    # printed a NaN value, which is not strict JSON
    from thetalab.cli import main
    f = tmp_path / "t.json"
    f.write_text(json.dumps({"tau": [[[0.0, 1.0]]], **entry}))
    assert main(["theta", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed theta input") and err.count("\n") == 1


@pytest.mark.parametrize("zeta", [[1e300, 0.0], [0.0, 1e300]], ids=["real", "imaginary"])
def test_theta_huge_argument_exits_3(tmp_path, capsys, zeta):
    # the lattice shift back to the fundamental cell would overflow int64:
    # Re zeta = 1e300 once printed 0.9456 for theta(0, i) = 1.0864
    from thetalab.cli import main
    f = write(tmp_path / "t.json", {"tau": [[[0.0, 1.0]]], "zeta": [zeta]})
    assert main(["theta", f]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: theta evaluation failed") and "2**53" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("delta, sign", [(4 * 10 ** 20, 1), (4 * 10 ** 20 + 2, -1),
                                         (2 * 10 ** 400, 1)], ids=["4e20", "4e20+2", "2e400"])
def test_theta_takes_characteristic_entries_of_any_size(tmp_path, capsys, delta, sign):
    # theta[1; delta] = e(delta/4) theta[1; 0] for even delta: the phase
    # exponent once became a float before it was reduced mod 1, so 4e20 and
    # 4e20 + 2 printed 0.6298 - 0.6618i and 2e400 died on OverflowError
    from thetalab.cli import main
    values = []
    for d in (0, delta):
        f = write(tmp_path / "t.json", {"tau": [[[0.0, 1.0]]], "eps": [1], "delta": [d]})
        assert main(["theta", f]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        values.append(complex(*value))
    assert abs(values[0] - 0.9135791381561168) < 1e-10
    assert abs(values[1] - sign * values[0]) < 1e-12


@pytest.mark.parametrize("im", [30.0, 1e10])
def test_theta_beyond_float_range_exits_3(tmp_path, im):
    # theta(30 i, i) is about exp(900 pi): the lattice prefactor once
    # overflowed with a numpy warning and the run died on "math domain error"
    f = write(tmp_path / "t.json", {"tau": [[[0.0, 1.0]]], "zeta": [[0.0, im]]})
    r = run_cli("theta", f)
    assert r.returncode == 3
    assert r.stderr.startswith("error: theta evaluation failed")
    assert "beyond the float range" in r.stderr and r.stderr.count("\n") == 1
    assert "Warning" not in r.stderr and r.stdout == ""


def test_thetalab_imports_no_scipy():
    code = ("import sys, thetalab, thetalab.cli; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


PLAN_G1 = {
    "curve": {"n": 2, "lambdas": [[0, 0], [1, 0], [2, 0]]},
    "seed": 11,
    "tasks": [
        {"id": "period_sanity"},
        {"id": "thomae_const_hyp"},
        {"id": "thomae_deriv_hyp", "include_infinity": True},
        {"id": "quotient_hyp", "ks": [1, 2, 3]},
    ],
}


def test_verify_plan_passes(tmp_path):
    f = write(tmp_path / "plan.json", PLAN_G1)
    out1 = tmp_path / "r1.jsonl"
    r = run_cli("verify", f, "--out", str(out1))
    assert r.returncode == 0, r.stderr + r.stdout
    rows = [json.loads(l) for l in out1.read_text().splitlines()]
    assert all(row["passed"] for row in rows)
    # g=1: 3 constant partitions (binom(3,1)), 1 deriv (I1 empty), 3 quotients
    idents = [row["identity"] for row in rows]
    assert idents.count("thomae_const_hyp") == 3
    assert idents.count("thomae_deriv_hyp") == 1
    assert idents.count("quotient_hyp") == 3
    assert "period_sanity" in idents


def test_verify_deterministic_jsonl(tmp_path):
    f = write(tmp_path / "plan.json", PLAN_G1)
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    r1 = run_cli("verify", f, "--out", str(out1), "--seed", "7")
    r2 = run_cli("verify", f, "--out", str(out2), "--seed", "7")
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_overtight_tolerance_fails(tmp_path):
    plan = dict(PLAN_G1, tasks=[{"id": "thomae_const_hyp", "tol": 1e-15}])
    f = write(tmp_path / "plan.json", plan)
    out = tmp_path / "r.jsonl"
    r = run_cli("verify", f, "--out", str(out))
    assert r.returncode == 1
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert any(not row["passed"] for row in rows)
    # residuals are reported for the failures
    assert all("root_tag" in row for row in rows)


def test_verify_unknown_task(tmp_path):
    plan = dict(PLAN_G1, tasks=[{"id": "not_a_task"}])
    f = write(tmp_path / "plan.json", plan)
    r = run_cli("verify", f)
    assert r.returncode == 2


def test_verify_task_not_an_object(tmp_path):
    plan = dict(PLAN_G1, tasks=["period_sanity"])
    f = write(tmp_path / "plan.json", plan)
    r = run_cli("verify", f)
    assert r.returncode == 2
    assert r.stderr.startswith("error: invalid plan")


def test_verify_curve_file_not_a_string(tmp_path, capsys):
    from thetalab.cli import main
    f = write(tmp_path / "plan.json", dict(PLAN_G1, curve_file=987654))   # not an open fd
    assert main(["verify", f]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid plan") and "curve_file" in err


@pytest.mark.parametrize("command", ["verify", "periods"])
def test_coincident_branch_points_exit_3(tmp_path, capsys, command):
    from thetalab.cli import main
    curve = {"n": 2, "lambdas": [[0, 0], [0, 0], [1, 0]]}
    f = write(tmp_path / "in.json",
              dict(PLAN_G1, curve=curve) if command == "verify" else curve)
    assert main([command, f]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not distinct" in err and err.count("\n") == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("command", ["verify", "curve_file", "periods"])
def test_non_finite_branch_point_exits_2(tmp_path, capsys, command, value):
    # NaN and Infinity as the tokens json writes for them; both once passed
    # the curve spec and exited 3 on "could not find a rotation separating
    # branch points"
    from thetalab.cli import main
    curve = {"n": 2, "lambdas": [[0, 0], [1, 0], [2, value]]}
    if command == "periods":
        f = write(tmp_path / "c.json", curve)
    elif command == "curve_file":
        plan = dict(PLAN_G1, curve_file=write(tmp_path / "c.json", curve))
        del plan["curve"]
        f = write(tmp_path / "plan.json", plan)
    else:
        f = write(tmp_path / "plan.json", dict(PLAN_G1, curve=curve))
    assert main(["periods" if command == "periods" else "verify", f]) == 2
    err = capsys.readouterr().err
    assert (err.startswith("error: invalid") and "branch points must be finite" in err
            and err.count("\n") == 1)


LAMBDAS_G1 = [[0, 0], [1, 0], [2, 0]]


@pytest.mark.parametrize("curve", [
    {"n": 2, "lambdas": [["x", 0], [1, 0], [2, 0]]},
    {"n": "two", "lambdas": LAMBDAS_G1},
    {"n": 2.7, "lambdas": LAMBDAS_G1},
    {"n": 2.0, "lambdas": LAMBDAS_G1},
    {"n": 2, "lambdas": [[0, 1, 7], [1, 0], [2, 0]]},
    {"n": 2, "lambdas": [[True, 0], [1, 0], [2, 0]]},
    {"n": 2, "lambdas": [[0, 0], ["1", 0], [2, 0]]},
], ids=["lambda-string", "n-string", "n-fraction", "n-float", "three-entries", "bool-entry",
        "numeric-string"])
@pytest.mark.parametrize("command", ["verify", "periods"])
def test_curve_spec_takes_an_integer_n_and_number_pairs(tmp_path, capsys, command, curve):
    # each once ended in a traceback with exit 1 (periods), ran as another
    # curve (n = 2.7 as n = 2) or read a pair that is not one as a number
    from thetalab.cli import main
    f = write(tmp_path / "c.json", curve if command == "periods" else dict(PLAN_G1, curve=curve))
    assert main([command, f]) == 2
    err = capsys.readouterr().err
    assert (err.startswith("error: invalid") and "malformed curve spec" in err
            and err.count("\n") == 1)


@pytest.mark.parametrize("entry", [
    {"tau": [[[0.0, 1.0, 7.0]]]}, {"tau": [[[True, 1.0]]]}, {"tau": [[["0", 1.0]]]},
    {"zeta": [[0.0, 0.0, 1.0]]}, {"zeta": [[False, 0.0]]},
], ids=["tau-three-entries", "tau-bool", "tau-string", "zeta-three-entries", "zeta-bool"])
def test_theta_pairs_are_two_numbers(tmp_path, capsys, entry):
    from thetalab.cli import main
    f = write(tmp_path / "t.json", {"tau": [[[0.0, 1.0]]], **entry})
    assert main(["theta", f]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed theta input") and err.count("\n") == 1


def test_verify_parse_failure(tmp_path):
    f = tmp_path / "plan.json"
    f.write_text("{]")
    r = run_cli("verify", str(f))
    assert r.returncode == 2


def test_verify_trig_plan(tmp_path):
    plan = {
        "curve": {"n": 3, "lambdas": [[0, 0], [1, 0]]},
        "seed": 3,
        "tasks": [{"id": "period_sanity"}, {"id": "alpha_trig"},
                  {"id": "quotient_trig", "ks": [1, 2]}],
    }
    f = write(tmp_path / "plan.json", plan)
    out = tmp_path / "r.jsonl"
    r = run_cli("verify", f, "--out", str(out))
    assert r.returncode == 0, r.stderr + r.stdout
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert all(row["passed"] for row in rows)


TRIG_Q1 = {"n": 3, "lambdas": [[0, 0], [1, 0]]}


@pytest.mark.parametrize("curve, task", [
    (PLAN_G1["curve"], "alpha_trig"),
    (TRIG_Q1, "thomae_const_hyp"),
    ({"n": 5, "lambdas": [[0, 0], [1, 0], [2, 0]]}, "quotient_trig"),
])
def test_verify_task_on_wrong_cover_degree(tmp_path, capsys, curve, task):
    from thetalab.cli import main
    f = write(tmp_path / "plan.json", {"curve": curve, "tasks": [{"id": task}]})
    assert main(["verify", f]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and task in err


# the lattice enumeration and the periods kernel fail in the first theta sum
# of the build (theta_scale, for the K check); the theta constants fail only
# inside a task
@pytest.mark.parametrize("target", ["thetalab.theta.RiemannMatrix.lattice_points",
                                    "thetalab.periods.theta_sums",
                                    "thetalab.periods.PeriodData.theta_constants"])
def test_verify_theta_failure_exits_3(tmp_path, capsys, monkeypatch, target):
    from thetalab.cli import main
    from thetalab.theta import ThetaError

    def give_up(*args, **kwargs):
        raise ThetaError("lattice enumeration exceeded point cap")
    monkeypatch.setattr(target, give_up)
    f = write(tmp_path / "plan.json",
              {"curve": TRIG_Q1, "tasks": [{"id": "deriv_trig_t1"}]})
    assert main(["verify", f]) == 3
    assert "point cap" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "periods"])
def test_tracking_failure_exits_3(tmp_path, capsys, monkeypatch, command):
    from thetalab.cli import main
    from thetalab.quadrature import QuadratureError

    def lose_sheet(*args, **kwargs):
        raise QuadratureError("sheet tracking lost separation near 0j")
    monkeypatch.setattr("thetalab.periods.path_integrals", lose_sheet)
    if command == "verify":
        f = write(tmp_path / "plan.json",
                  {"curve": TRIG_Q1, "tasks": [{"id": "period_sanity"}]})
    else:
        f = write(tmp_path / "curve.json", TRIG_Q1)
    assert main([command, f]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "lost separation" in err


def test_verify_sampling_failure_exits_3(tmp_path, capsys, monkeypatch):
    # on a hyperelliptic curve P + iota(P) is special: theta vanishes at its
    # argument, so no sampled divisor is accepted
    import thetalab.thomae
    from thetalab.cli import main
    from thetalab.periods import SurfacePoint
    sample = thetalab.thomae._random_surface_points

    def special(periods, count, rng):
        p = sample(periods, 1, rng)[0]
        return [p, SurfacePoint(p.z, -p.w)]
    monkeypatch.setattr(thetalab.thomae, "_random_surface_points", special)
    f = write(tmp_path / "plan.json",
              {"curve": {"n": 2, "lambdas": [[0, 0], [1, 0], [2, 0], [3, 0], [4, 0]]},
               "tasks": [{"id": "quotient_hyp", "ks": [1], "samples": 1}]})
    assert main(["verify", f]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-special divisor" in err


def test_verify_alpha_task_leaves_plan_alpha_alone(tmp_path, monkeypatch):
    # an alpha_trig task with its own tol must not change the derivative
    # tasks around it, which use the closed-form alpha; only the alpha_trig
    # task estimates alpha
    import thetalab.thomae
    from thetalab.cli import main
    estimate = thetalab.thomae.estimate_alpha
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["tol"])
        return estimate(*args, **kwargs)
    monkeypatch.setattr(thetalab.thomae, "estimate_alpha", counted)
    plan = {"curve": TRIG_Q1,
            "tasks": [{"id": "deriv_trig_t1"},
                      {"id": "alpha_trig", "tol": 1e-2},
                      {"id": "deriv_trig_t1"}]}
    f = write(tmp_path / "plan.json", plan)
    out = tmp_path / "r.jsonl"
    main(["verify", f, "--out", str(out)])
    lines = out.read_bytes().splitlines()
    assert [json.loads(l)["identity"] for l in lines] == [
        "thomae_deriv_trig_t1", "alpha_trig", "thomae_deriv_trig_t1"]
    assert lines[0] == lines[2]
    assert calls == [1e-2]


def test_verify_has_no_theta_tol_flag(tmp_path, capsys):
    # every theta value sums at theta.THETA_TOL; there is nothing to set
    from thetalab.cli import main
    f = write(tmp_path / "plan.json", PLAN_G1)
    with pytest.raises(SystemExit) as exc:
        main(["verify", f, "--theta-tol", "1e-13"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --theta-tol" in capsys.readouterr().err


@pytest.mark.parametrize("curve, task", [(TRIG_Q1, "alpha_trig"),
                                         (PLAN_G1["curve"], "thomae_const_hyp")],
                         ids=["trig", "hyp"])
def test_reports_record_the_fixed_theta_tol(tmp_path, curve, task):
    from thetalab.cli import main
    from thetalab.theta import THETA_TOL
    out = tmp_path / "r.jsonl"
    f = write(tmp_path / "plan.json", {"curve": curve, "tasks": [{"id": task}]})
    assert main(["verify", f, "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        assert json.loads(line)["tolerances"]["theta_tol"] == THETA_TOL == 1e-10


def test_derivative_plan_computes_no_alpha_ratio(tmp_path, monkeypatch):
    import thetalab.thomae
    from thetalab.cli import main
    ratio = thetalab.thomae.alpha_ratio
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ratio(*args, **kwargs)
    monkeypatch.setattr(thetalab.thomae, "alpha_ratio", counted)
    f = write(tmp_path / "plan.json", {"curve": TRIG_Q1, "tasks": [{"id": "deriv_trig_t1"}]})
    assert main(["verify", f, "--out", str(tmp_path / "r.jsonl")]) == 0
    assert calls == []


def _raise_on_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("plan", [
    {"curve": TRIG_Q1, "seed": 2,
     "tasks": [{"id": t} for t in ("period_sanity", "alpha_trig", "deriv_trig_t1",
                                   "deriv_trig_t2", "quotient_trig", "matrix_form_trig",
                                   "simple_zeros_trig")]},
    dict(PLAN_G1, tasks=PLAN_G1["tasks"] + [{"id": "matrix_form_hyp"}]),
], ids=["trig", "hyp"])
def test_verify_writes_strict_json(tmp_path, plan):
    # no NaN or Infinity token on any line, so any RFC 8259 parser reads it;
    # at q = 1 the trigonal matrix form has no zero blocks to check
    from thetalab.cli import main
    out = tmp_path / "r.jsonl"
    assert main(["verify", write(tmp_path / "plan.json", plan), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    rows = [json.loads(line, parse_constant=_raise_on_constant) for line in lines]
    assert any(row["rhs_modulus"] is None for row in rows)


def _tasks(*tasks, curve=PLAN_G1["curve"], **plan):
    return dict(plan, curve=curve, tasks=list(tasks))


@pytest.mark.parametrize("plan", [
    _tasks({"id": "quotient_hyp", "ks": [99]}),
    _tasks({"id": "quotient_hyp", "ks": [0]}),
    _tasks({"id": "quotient_hyp", "samples": "x"}),
    _tasks({"id": "quotient_hyp", "samples": 0}),
    _tasks({"id": "matrix_form_hyp", "count": "two"}),
    _tasks({"id": "deriv_trig_t2", "infinity_in": [5]}, curve=TRIG_Q1),
    _tasks({"id": "thomae_deriv_hyp", "include_infinity": "yes"}),
    _tasks({"id": "thomae_const_hyp", "tol": "x"}),
    _tasks({"id": "thomae_const_hyp", "tol": -1}),
    _tasks({"id": "period_sanity"}, tolerances={"theta_tol": float("nan")}),
    _tasks({"id": "period_sanity"}, tolerances="tight"),
    _tasks({"id": "period_sanity"}, seed="x"),
], ids=["ks-99", "ks-0", "samples-x", "samples-0", "count-two", "infinity_in-5",
        "include_infinity-yes", "task-tol-x", "task-tol-negative", "plan-theta_tol-nan",
        "plan-tolerances-string", "plan-seed-x"])
def test_verify_bad_parameter_exits_2(tmp_path, capsys, monkeypatch, plan):
    from thetalab.cli import main

    def must_not_run(*args, **kwargs):
        raise AssertionError("periods built for a plan with a bad parameter")
    monkeypatch.setattr("thetalab.cli.build_periods", must_not_run)
    f = tmp_path / "plan.json"
    f.write_text(json.dumps(plan))       # NaN is written as the bare token NaN
    assert main(["verify", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    if "tolerances" in plan:
        assert err == "error: plan: unknown key 'tolerances'\n"


def test_verify_tol_is_the_tasks_else_the_flags(tmp_path):
    from thetalab.cli import main
    plan = _tasks({"id": "thomae_const_hyp"}, {"id": "thomae_const_hyp", "tol": 1e-3})
    f = write(tmp_path / "plan.json", plan)
    out = tmp_path / "r.jsonl"
    for flags, first in (([], 1e-6), (["--tol", "1e-4"], 1e-4)):
        assert main(["verify", f, "--out", str(out)] + flags) == 0
        tols = [json.loads(line)["tolerances"]["tol"] for line in out.read_text().splitlines()]
        assert tols == [first] * 3 + [1e-3] * 3


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_verify_bad_tol_flag_exits_2(tmp_path, capsys, monkeypatch, tol):
    from thetalab.cli import main

    def must_not_run(*args, **kwargs):
        raise AssertionError("periods built with a bad --tol")
    monkeypatch.setattr("thetalab.cli.build_periods", must_not_run)
    assert main(["verify", write(tmp_path / "plan.json", PLAN_G1), "--tol", tol]) == 2
    assert capsys.readouterr().err == (f"error: --tol: tol must be a finite positive number, "
                                       f"got {float(tol)!r}\n")


@pytest.mark.parametrize("plan, line", [
    (dict(PLAN_G1, quad_order=0), "error: plan: unknown key 'quad_order'"),
    (_tasks({"id": "quotient_hyp", "sample": 2}),
     "error: task 'quotient_hyp': unknown key 'sample'"),
    (_tasks({"id": "period_sanity"}, tolerances={"grad_tol": 1e-9}),
     "error: plan: unknown key 'tolerances'"),
    (_tasks({"id": "period_sanity"}, tolerances={"theta_tol": 1e-10}),
     "error: plan: unknown key 'tolerances'"),
    (_tasks({"id": "thomae_const_hyp", "theta_tol": 1e-10}),
     "error: task 'thomae_const_hyp': unknown key 'theta_tol'"),
], ids=["plan-quad_order", "task-sample", "tolerances-grad_tol", "tolerances-theta_tol",
        "task-theta_tol"])
def test_verify_unknown_key_exits_2(tmp_path, capsys, monkeypatch, plan, line):
    from thetalab.cli import main

    def must_not_run(*args, **kwargs):
        raise AssertionError("periods built for a plan with an unknown key")
    monkeypatch.setattr("thetalab.cli.build_periods", must_not_run)
    assert main(["verify", write(tmp_path / "plan.json", plan)]) == 2
    assert capsys.readouterr().err == line + "\n"


TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _checked_in_plans() -> list[tuple[str, dict]]:
    """The plans of tools/identity_digests.py (the 12 benchmark plans, the
    README plan and tools/picard-g3.json) and tools/trig-q3-g7.json."""
    if TOOLS not in sys.path:
        sys.path.insert(0, TOOLS)
    from identity_digests import plans
    with open(os.path.join(TOOLS, "trig-q3-g7.json")) as fh:
        return plans() + [("trig-q3-g7", json.load(fh))]


def test_checked_in_plans_have_only_known_keys(tmp_path, monkeypatch):
    # each plan gets past every parameter check to the period construction
    from thetalab.cli import main

    class Reached(Exception):
        pass

    def reached(curve):
        raise Reached
    monkeypatch.setattr("thetalab.cli.build_periods", reached)
    for label, plan in _checked_in_plans():
        with pytest.raises(Reached):
            main(["verify", write(tmp_path / f"{label}.json", plan)])


@pytest.mark.parametrize("label", ["close-pair-1", "close-pair-2"])
def test_close_pair_trigonal_plans_pass(tmp_path, label):
    # period construction failed on these curves before the a_1 re-check
    # refined its legs against the branch points
    from conftest import CLOSE_PAIR_LAMBDAS
    from thetalab.cli import main
    plan = {"curve": {"n": 3, "lambdas": [[z.real, z.imag] for z in CLOSE_PAIR_LAMBDAS[label]]},
            "seed": 1,
            "tasks": [{"id": t} for t in ("period_sanity", "alpha_trig", "deriv_trig_t1",
                                          "deriv_trig_t2", "quotient_trig", "matrix_form_trig",
                                          "simple_zeros_trig")]}
    out = tmp_path / "r.jsonl"
    assert main(["verify", write(tmp_path / "plan.json", plan), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 108


@pytest.mark.parametrize("task", ["alpha_trig", "deriv_trig_t1", "deriv_trig_t2",
                                  "matrix_form_trig", "simple_zeros_trig"])
def test_trig_identity_task_on_a_picard_curve_exits_2(tmp_path, capsys, monkeypatch, task):
    # a w^3 = f curve with deg f = 4 has no partitions of q: refused with
    # the degree gate, before any periods are built
    from thetalab.cli import main

    def must_not_run(curve):
        raise AssertionError("periods built before the task gate")
    monkeypatch.setattr("thetalab.cli.build_periods", must_not_run)
    with open(os.path.join(TOOLS, "picard-g3.json")) as fh:
        plan = json.load(fh)
    plan["tasks"].append({"id": task})
    assert main(["verify", write(tmp_path / "plan.json", plan)]) == 2
    err = capsys.readouterr().err
    assert (err.startswith("error:") and repr(task) in err and "deg f \u2261 2 (mod 3)" in err
            and err.count("\n") == 1)


def test_picard_plan_passes(tmp_path):
    # period_sanity and quotient_trig on w^3 = f with deg f = 4, genus 3
    from thetalab.cli import main
    out = tmp_path / "r.jsonl"
    assert main(["verify", os.path.join(TOOLS, "picard-g3.json"), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["identity"] for row in rows] == ["period_sanity"] + 4 * ["quotient_trig"]
    assert all(row["passed"] for row in rows)
    assert all(row["root_tag"]["order"] == 12 for row in rows[1:])


def test_periods_of_a_coprime_cover(tmp_path):
    from conftest import random_curve
    c = random_curve(5, 3, 7)
    r = run_cli("periods", write(tmp_path / "c.json", c.to_json()))
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["genus"] == 4 and len(out["tau"]) == 4


def test_periods_beyond_the_point_cap_exit_3(tmp_path):
    # genus 9, w^3 = f with deg f = 10: the theta sums of the K check end on
    # the point cap, in about a second
    from conftest import random_curve
    c = random_curve(3, 10, 1, box=3.5, min_gap=0.9)
    r = run_cli("periods", write(tmp_path / "c.json", c.to_json()))
    assert r.returncode == 3
    assert r.stderr.startswith("error: period construction failed") and "point cap" in r.stderr
