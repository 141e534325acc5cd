import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deltapoly
from deltapoly.bessel import CARLITZ, bessel_poly
from deltapoly.cli import main
from deltapoly.delta import basic_sequence_closed
from deltapoly.series import poly_eval
from deltapoly.verify import TOL_MOMENT_REL


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_basic_poly_envelope(capsys):
    code, env, err = run_json(capsys, "basic-poly", "--a", "1", "--b", "1/2",
                              "--p", "1", "--n", "3")
    assert code == 0
    assert err == ""
    assert env == {
        "command": "basic-poly",
        "parameters": {"a": "1", "b": "1/2", "p": 1, "n": 3, "method": "closed"},
        "result": {"n": 3, "coeffs": ["0", "3", "3", "1"]},
    }


def test_basic_poly_generic_agrees(capsys):
    _, closed, _ = run_json(capsys, "basic-poly", "--a", "2", "--b", "-3",
                            "--p", "2", "--n", "7")
    _, generic, _ = run_json(capsys, "basic-poly", "--a", "2", "--b", "-3",
                             "--p", "2", "--n", "7", "--method", "generic")
    assert closed["result"]["coeffs"] == generic["result"]["coeffs"]


def test_f_series(capsys):
    code, env, _ = run_json(capsys, "f-series", "--a", "1", "--b", "1/2",
                            "--p", "1", "--order", "4")
    assert code == 0
    assert env["result"]["coeffs"] == ["0", "1", "1/2", "1/2", "5/8"]


def test_bessel_poly(capsys):
    code, env, _ = run_json(capsys, "bessel-poly", "--n", "3")
    assert code == 0
    assert env["result"]["coeffs"] == ["1", "6", "15", "15"]


def test_egf_check_holds(capsys):
    code, env, _ = run_json(capsys, "egf-check", "--t", "2/3")
    assert code == 0
    assert env["result"] == {"holds": True}


def test_moments_value_and_diagnostics(capsys):
    code, env, _ = run_json(capsys, "moments", "--dist", "ig", "--t", "1", "--n", "2")
    assert code == 0
    # second moment of the unit inverse-Gaussian law is w_2(1) = 2
    assert abs(float(env["result"]["value"]) - 2.0) < 1e-8
    assert float(env["diagnostics"]["quad_error"]) < 1e-6


def test_oeis_terms(capsys):
    code, env, _ = run_json(capsys, "oeis", "--id", "A001515", "--count", "5")
    assert code == 0
    assert env["result"]["terms"] == ["1", "2", "7", "37", "266"]


def test_output_is_deterministic(capsys):
    argv = ("moments", "--dist", "bessel", "--t", "2", "--n", "3")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_semigroup_check_passes(capsys):
    code, env, _ = run_json(capsys, "semigroup-check", "--s", "0.5", "--t", "1",
                            "--points", "1,2")
    assert code == 0
    assert env["result"]["passed"] is True
    labels = [r["label"] for r in env["diagnostics"]["reports"]]
    assert len(labels) == 2


def test_semigroup_check_impossible_tolerance_exits_one(capsys):
    code, env, _ = run_json(capsys, "semigroup-check", "--s", "0.5", "--t", "1",
                            "--points", "1", "--tol", "1e-30")
    assert code == 1
    assert env["result"]["passed"] is False


def test_kolmogorov_check(capsys):
    code, env, _ = run_json(capsys, "kolmogorov-check", "--x", "0.3")
    assert code == 0
    assert env["result"]["passed"] is True
    assert float(env["result"]["normalization_abs_dev"]) < 1e-10


def test_factorization_check(capsys):
    code, env, _ = run_json(capsys, "factorization-check", "--t", "1",
                            "--x-points", "0.5", "--u-points", "1")
    assert code == 0
    assert env["result"]["passed"] is True


def test_fuss_csv(capsys):
    code, out, _ = run(capsys, "fuss", "--p", "2", "--order", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "power,coefficient",
        "0,1",
        "1,1",
        "2,2",
        "3,5",
        "4,14",
    ]


def test_oeis_csv(capsys):
    code, out, _ = run(capsys, "oeis", "--id", "A144301", "--count", "3",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,term", "0,1", "1,1", "2,2"]


def test_reports_csv_header(capsys):
    code, out, _ = run(capsys, "kolmogorov-check", "--x", "0.1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "label,value_lhs,value_rhs,abs_dev,rel_dev,quad_error"
    assert len(lines) == 3  # identity row and normalization row


def test_moments_csv_fields(capsys):
    code, out, _ = run(capsys, "moments", "--dist", "gamma", "--t", "1", "--n", "0",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "field,value"
    assert lines[1].startswith("value,")
    assert lines[2].startswith("quad_error,")


def test_domain_error_exits_two(capsys):
    code, out, err = run(capsys, "basic-poly", "--a", "0", "--b", "1",
                         "--p", "1", "--n", "2")
    assert code == 2
    assert out == ""
    assert err.strip()
    assert "\n" not in err.strip()


@pytest.mark.parametrize("dist,t,n,law", [
    pytest.param("ig", "1", 200, "InverseGaussian(t=1.0)", id="ig-InverseGaussian"),
    pytest.param("gamma", "1", 200, "GammaHalf(t=1.0)", id="gamma-GammaHalf"),
    # y_121(4) is about 1e309, past the float maximum
    pytest.param("bessel", "4", 121, "BesselMeasure(t=4.0)", id="bessel-t4-n121"),
])
def test_moment_overflow_names_n_and_the_law(capsys, dist, t, n, law):
    code, out, err = run(capsys, "moments", "--dist", dist, "--t", t, "--n", str(n))
    assert code == 2
    assert out == ""
    assert "\n" not in err.strip()
    assert f"n={n}" in err and law in err


@pytest.mark.parametrize("dist,t,n,exact", [
    pytest.param("ig", "1", 150, poly_eval(basic_sequence_closed(CARLITZ, 150)[150], 1),
                 id="ig-t1-n150"),
    # w_151(1) = 1.02e307; one weighted node of the first level, h = 1, overflows
    # (f(u) (pi/2) cosh(w) u at u = 298), the finer levels do not
    pytest.param("ig", "1", 151, poly_eval(basic_sequence_closed(CARLITZ, 151)[151], 1),
                 id="ig-t1-n151"),
    # (2n-1)!! = 299!! is 3.8e306, just below the float maximum
    pytest.param("gamma", "1", 150, math.prod(range(1, 300, 2)), id="gamma-t1-n150"),
    pytest.param("bessel", "4", 120, poly_eval(bessel_poly(120)[120], 4), id="bessel-t4-n120"),
])
def test_moment_at_the_top_of_the_range(capsys, dist, t, n, exact):
    code, env, _ = run_json(capsys, "moments", "--dist", dist, "--t", t, "--n", str(n))
    assert code == 0
    assert abs(float(env["result"]["value"]) - float(exact)) <= TOL_MOMENT_REL * float(exact)


@pytest.mark.parametrize("dist,t", [("ig", "1e8"), ("gamma", "1e-8")])
def test_refused_quadrature_exits_one(capsys, dist, t):
    code, out, err = run(capsys, "moments", "--dist", dist, "--t", t, "--n", "1")
    assert code == 1
    assert out == ""
    assert "\n" not in err.strip()
    assert "significant nodes" in err


def test_bad_rational_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basic-poly", "--a", "x", "--b", "1", "--p", "1", "--n", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not a rational" in err
    assert "\n" not in err.strip()


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_required_argument_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bessel-poly"])
    assert exc.value.code == 2


def test_unknown_oeis_id_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oeis", "--id", "A000001", "--count", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["moments", "--dist", "gamma", "--t", "inf", "--n", "0"], "--t"),
    (["moments", "--dist", "ig", "--t", "1", "--n", "2", "--quad-tol", "nan"], "--quad-tol"),
    (["semigroup-check", "--s", "nan", "--t", "1"], "--s"),
    (["semigroup-check", "--s", "1", "--t", "1", "--points", ","], "--points"),
    (["semigroup-check", "--s", "1", "--t", "1", "--points", "nan"], "--points"),
    (["kolmogorov-check", "--x", "0.3", "--tol", "nan"], "--tol"),
    (["factorization-check", "--t", "1", "--u-points", ","], "--u-points"),
    (["factorization-check", "--t", "1", "--x-points", "nan"], "--x-points"),
    (["factorization-check", "--t", "1", "--x-points=1,-inf"], "--x-points"),
    # finite but not above machine epsilon: refused by the parser, which names the flag
    (["moments", "--dist", "ig", "--t", "1", "--n", "2", "--quad-tol", "1e-17"], "--quad-tol"),
    (["kolmogorov-check", "--x", "0.3", "--quad-tol", "0"], "--quad-tol"),
    # not below 1: the first comparison would accept any two levels
    (["moments", "--dist", "ig", "--t", "1", "--n", "3", "--quad-tol", "10"], "--quad-tol"),
])
def test_non_finite_real_or_empty_list_exits_two(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert flag in captured.err
    assert captured.err.count("\n") == 1


def test_closed_stdout_exits_one_without_traceback():
    # about 0.3 MB of output: more than a pipe buffer holds
    env = dict(os.environ, PYTHONPATH=str(Path(deltapoly.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "deltapoly", "fuss", "--p", "2",
                             "--order", "1000"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err
