"""CLI contract tests: flags, outputs, exit codes, report determinism."""

import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

from bergkern import run_identity_suite, run_kernel_suite, run_norm_suite
from bergkern.cli import build_parser, main

D2_SPOT = 2816.0 / (27.0 * math.pi**3)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_does_not_load_scipy():
    # nor mpmath: importing the package loads neither
    code = "import sys, bergkern; print('scipy' in sys.modules, 'mpmath' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "False False"


def test_eval_d2_closed_spot(capsys):
    code, out, _ = run_cli(capsys, "eval", "--domain", "d2", "--nu", "0.25,0,0",
                           "--method", "closed")
    assert code == 0
    value = complex(re.search(r"value = \((.+)\)", out).group(1))
    assert abs(value - D2_SPOT) < 1e-12
    assert "method = closed" in out


def test_eval_d2_series_matches_closed(capsys):
    code, out, _ = run_cli(capsys, "eval", "--domain", "d2", "--nu", "0.25,0,0",
                           "--method", "series", "--tail-tol", "1e-10")
    assert code == 0
    value = complex(re.search(r"value = \((.+)\)", out).group(1))
    assert abs(value - D2_SPOT) / D2_SPOT < 1e-6
    assert "tail_estimate" in out


def test_eval_d1_series_head_term(capsys):
    code, out, _ = run_cli(capsys, "eval", "--domain", "d1", "--p", "1",
                           "--lambda", "2", "--nu", "0,0,0,0", "--method", "series")
    assert code == 0
    value = complex(re.search(r"value = \((.+)\)", out).group(1))
    assert abs(value - 24.0 / math.pi**4) < 1e-13


def test_eval_pair_mode_matches_nu_mode(capsys):
    code1, out1, _ = run_cli(capsys, "eval", "--domain", "d2",
                             "--z", "0.5,0,0", "--zeta", "0.5,0,0")
    code2, out2, _ = run_cli(capsys, "eval", "--domain", "d2", "--nu", "0.25,0,0")
    assert code1 == code2 == 0
    assert out1.splitlines()[0] == out2.splitlines()[0]


def test_eval_usage_errors(capsys):
    code, _, err = run_cli(capsys, "eval", "--domain", "d1", "--nu", "0,0,0,0")
    assert code == 2 and "usage error" in err
    code, _, err = run_cli(capsys, "eval", "--domain", "d2")
    assert code == 2
    # the ellipsoid needs its exponents, and has no closed route
    code, _, err = run_cli(capsys, "eval", "--domain", "ellipsoid", "--nu", "0.1,0.1",
                           "--method", "series")
    assert code == 2 and "usage error" in err
    code, _, err = run_cli(capsys, "eval", "--domain", "ellipsoid", "--p", "1,1",
                           "--nu", "0.1,0.1")
    assert code == 2 and "usage error" in err
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "eval", "--domain", "d2", "--nu", "potato")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("--domain", "d2", "--nu", "nan,0,0"),
    ("--domain", "d2", "--nu", "inf,0,0"),
    ("--domain", "d2", "--nu", "nan,0,0", "--method", "series"),
    ("--domain", "d2", "--z", "inf,0,0", "--zeta", "1,0,0"),
    ("--domain", "d1", "--p", "1", "--lambda", "2", "--nu", "0,0,0,nan"),
    ("--domain", "ellipsoid", "--p", "2,3", "--nu", "nan,0.1", "--method", "series"),
], ids=["d2-nan", "d2-inf", "d2-series-nan", "d2-pair-inf", "d1-nan", "ellipsoid-nan"])
def test_eval_non_finite_nu_is_usage_error(capsys, argv):
    # a NaN value must not be printed with exit 0
    code, out, err = run_cli(capsys, "eval", *argv)
    assert code == 2 and "usage error" in err and "finite" in err and out == ""


def test_eval_region_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "eval", "--domain", "d1", "--p", "1",
                           "--lambda", "2", "--nu", "0,0,0.3,0")
    assert code == 1
    assert "RegionError" in err


@pytest.mark.parametrize("nu", ("0,0,0.3,0", "0,0,0.26,0", "0,0,0,1.2"))
def test_eval_d1_series_past_its_radii_is_convergence_error_exit_1(capsys, nu):
    code, out, err = run_cli(capsys, "eval", "--domain", "d1", "--p", "2", "--lambda", "2",
                             "--nu", nu, "--method", "series")
    assert code == 1 and out == "" and "ConvergenceError: d1 series requires" in err


def test_eval_tiny_p_is_region_error_exit_1(capsys):
    # 2**(4/p + 2/lam) would overflow: a RegionError, not a traceback
    code, out, err = run_cli(capsys, "eval", "--domain", "d1", "--p", "1e-3",
                             "--lambda", "2", "--nu", "0.01,0,0,0")
    assert code == 1 and out == "" and "RegionError" in err


def test_eval_series_tiny_p_is_region_error_exit_1(capsys):
    # the series route refuses the same (p, lam) as the closed one, instead
    # of printing a wrong value
    code, out, err = run_cli(capsys, "eval", "--domain", "d1", "--p", "1e-300",
                             "--lambda", "2", "--nu", "0.01,0,0,0", "--method", "series")
    assert code == 1 and out == "" and "RegionError" in err


def test_norm_commands(capsys):
    code, out, _ = run_cli(capsys, "norm", "--domain", "d2", "--alpha", "0,0,0")
    assert code == 0
    assert abs(float(out.split("=")[1]) - math.pi**3 / 15) < 1e-12

    code, out, _ = run_cli(capsys, "norm", "--domain", "d1", "--p", "1",
                           "--lambda", "2", "--alpha", "0,0,0,0")
    assert code == 0
    assert abs(float(out.split("=")[1]) - math.pi**4 / 24) < 1e-12

    code, out, _ = run_cli(capsys, "norm", "--domain", "d2", "--alpha", "-2,0,0",
                           "--oracle")
    assert code == 0
    assert float(re.search(r"rel_err = (\S+)", out).group(1)) < 1e-8


def test_norm_oracle_keeps_relative_accuracy_near_underflow(capsys):
    # the closed norm and the oracle are both about 2.85e-305
    code, out, _ = run_cli(capsys, "norm", "--domain", "d2", "--alpha", "0,500,0", "--oracle")
    assert code == 0
    assert float(re.search(r"rel_err = (\S+)", out).group(1)) < 1e-10


def test_norm_oracle_underflow_is_error_exit_1():
    # the oracle norm underflows a double; the CLI reports it, no traceback
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-m", "bergkern.cli", "norm", "--domain", "d2",
                           "--alpha", "400,400,400", "--oracle"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "error: QuadratureError:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("--domain", "d2", "--alpha", "400,400,400"),
    ("--domain", "d1", "--p", "1", "--lambda", "2", "--alpha", "300,300,300,300"),
], ids=["d2", "d1"])
def test_closed_norm_underflow_is_error_exit_1(capsys, argv):
    # the closed norm is below the smallest double: an error, not norm = 0.0
    code, out, err = run_cli(capsys, "norm", *argv)
    assert code == 1 and not out
    assert "error: RegionError:" in err and "underflows a double" in err


def test_d2_series_at_the_pole_is_error_exit_1(capsys):
    # 1/nu1^2 overflows; the series route raises as the closed route does
    code, _, err = run_cli(capsys, "eval", "--domain", "d2", "--nu", "1e-200,0,0",
                           "--method", "series")
    assert code == 1
    assert "error: SingularityError:" in err and "Traceback" not in err


def test_norm_inadmissible_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "norm", "--domain", "d2", "--alpha", "-9,0,0")
    assert code == 2 and "usage error" in err


def test_verify_identities_report_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "verify", "identities", "--trials", "4",
                           "--seed", "3", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    rows = doc["rows"]
    summary = doc["summary"]
    assert summary["total"] == len(rows)
    assert summary["passed"] == sum(r["pass"] for r in rows)
    assert summary["failed"] == summary["total"] - summary["passed"]
    assert summary["max_rel_err"] == max(r["rel_err"] for r in rows)
    assert all(r["pass"] == (r["rel_err"] <= r["tol"]) for r in rows)
    # the rejected displays are reported informationally and do not gate
    assert any(not r["pass"] for r in doc["informational"])


def test_verify_report_determinism(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(capsys, "verify", "kernels", "--domain", "d2",
                             "--points", "5", "--seed", "42", "--out", str(path))
        assert code == 0
    strip = lambda text: re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)
    assert strip(paths[0].read_text()) == strip(paths[1].read_text())


@pytest.mark.parametrize("given, recorded", [
    ("1.5,2", [1.5, 2]), ("2,3", [2, 3]), ("0.5,1", [0.5, 1])], ids=["1.5-2", "2-3", "0.5-1"])
def test_verify_kernels_report_records_the_exponents_as_given(tmp_path, capsys, given, recorded):
    # a real exponent is written as given, an integer one as an int
    path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "kernels", "--domain", "ellipsoid", "--p", given,
                         "--points", "3", "--seed", "42", "--tol", "1e-8", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert json.loads(text)["parameters"]["exponents"] == recorded
    assert f'"exponents": {json.dumps(recorded)}' in text


def test_verify_csv_format(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, "verify", "norms", "--domain", "d2",
                         "--max-index", "1", "--format", "csv", "--out", str(out_path))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_path.read_text())))
    assert rows
    assert set(rows[0]) == {"case_id", "suite", "gating", "lhs_re", "lhs_im",
                            "rhs_re", "rhs_im", "abs_err", "rel_err", "tol",
                            "pass", "inputs"}
    assert all(r["pass"] == "True" for r in rows)


def test_verify_failure_exit_code(capsys):
    code, _, err = run_cli(capsys, "verify", "norms", "--domain", "d2",
                           "--max-index", "1", "--tol", "1e-30")
    assert code == 1
    assert "failed=" in err


def test_verify_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "kernels", "--domain", "d1")
    assert code == 2 and "usage error" in err
    code, _, err = run_cli(capsys, "verify", "norms", "--domain", "ellipsoid")
    assert code == 2
    # --p is an ellipsoid's exponents only for the kernel suite
    code, _, err = run_cli(capsys, "verify", "norms", "--domain", "ellipsoid", "--p", "1,2")
    assert code == 2 and "usage error" in err


@pytest.mark.parametrize("argv", [
    ("kernels", "--domain", "d1", "--p", "2", "--lambda", "2", "--points", "0"),
    ("identities", "--trials", "0"),
    ("identities", "--trials", "-3"),
    ("norms", "--domain", "d2", "--max-index", "-1"),
], ids=["kernel-points-0", "identity-trials-0", "identity-trials-neg", "norm-max-index-neg"])
def test_verify_empty_count_is_usage_error(capsys, argv):
    # A count that leaves no case to check must not crash or pass vacuously.
    code, _, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and "usage error" in err


@pytest.mark.parametrize("argv", [
    ("verify", "kernels", "--domain", "ellipsoid", "--p", "0,3", "--points", "2"),
    ("verify", "kernels", "--domain", "ellipsoid", "--p", "inf,1", "--points", "2"),
    ("eval", "--domain", "ellipsoid", "--p", "inf,1", "--nu", "0.1,0.1", "--method", "series"),
    ("verify", "norms", "--domain", "d1", "--p", "2", "--max-index", "0"),
    ("verify", "norms", "--domain", "d1", "--lambda", "2", "--max-index", "0"),
    ("verify", "norms", "--domain", "d2", "--p", "2", "--max-index", "0"),
    ("verify", "norms", "--domain", "d2", "--lambda", "2", "--max-index", "0"),
    ("verify", "kernels", "--domain", "d2", "--p", "2", "--lambda", "5", "--points", "1",
     "--seed", "1"),
    ("verify", "kernels", "--domain", "ellipsoid", "--p", "1,1", "--lambda", "5",
     "--points", "1"),
    ("eval", "--domain", "d2", "--nu", "0.25,0,0", "--p", "3", "--lambda", "9"),
    ("eval", "--domain", "ellipsoid", "--p", "1,1", "--lambda", "4", "--nu", "0.1,0.2",
     "--method", "series"),
    ("norm", "--domain", "d2", "--alpha", "0,0,0", "--p", "3"),
    ("norm", "--domain", "d1", "--p", "inf", "--lambda", "2", "--alpha", "0,0,0,0"),
    ("eval", "--domain", "d1", "--p", "1", "--lambda", "inf", "--nu", "0.01,0,0,0",
     "--method", "series"),
    ("verify", "norms", "--domain", "d1", "--p", "2", "--lambda", "inf", "--max-index", "0"),
    ("verify", "kernels", "--domain", "d1", "--p", "inf", "--lambda", "2", "--points", "1"),
    ("verify", "kernels", "--domain", "ellipsoid", "--p", "nan,1", "--points", "2"),
    ("verify", "kernels", "--domain", "ellipsoid", "--p", "-2,1", "--points", "2"),
    ("verify", "kernels", "--domain", "d2", "--points", "2", "--tol", "inf"),
    ("verify", "kernels", "--domain", "d2", "--points", "2", "--tol", "0"),
    ("verify", "kernels", "--domain", "d2", "--points", "2", "--tail-tol", "inf"),
    ("verify", "norms", "--domain", "d2", "--max-index", "0", "--tol", "nan"),
    ("verify", "norms", "--domain", "d2", "--max-index", "0", "--tol=-1e-8"),
    ("verify", "identities", "--trials", "1", "--tol", "inf"),
    ("verify", "identities", "--trials", "1", "--tail-tol", "nan"),
    ("norm", "--domain", "d2", "--alpha", "0,0,0", "--oracle", "--tol", "inf"),
    ("norm", "--domain", "d2", "--alpha", "0,0,0", "--oracle", "--tol", "nan"),
    ("eval", "--domain", "d2", "--nu", "0.25,0,0", "--method", "series", "--tail-tol", "inf"),
], ids=["kernels-ellipsoid-zero", "kernels-ellipsoid-inf", "eval-ellipsoid-inf",
        "norms-d1-p-only", "norms-d1-lambda-only", "norms-d2-p", "norms-d2-lambda",
        "kernels-d2-p-lambda", "kernels-ellipsoid-lambda", "eval-d2-p-lambda",
        "eval-ellipsoid-lambda", "norm-d2-p", "norm-d1-p-inf", "eval-d1-lambda-inf",
        "norms-d1-lambda-inf", "kernels-d1-p-inf", "kernels-ellipsoid-nan",
        "kernels-ellipsoid-negative", "kernels-tol-inf", "kernels-tol-zero",
        "kernels-tail-tol-inf", "norms-tol-nan", "norms-tol-negative", "identities-tol-inf",
        "identities-tail-tol-nan", "norm-oracle-tol-inf", "norm-oracle-tol-nan",
        "eval-tail-tol-inf"])
def test_parameters_not_used_as_given_are_usage_errors(capsys, argv):
    # A parameter that would be truncated, overflow or be ignored must stop
    # the run instead of producing a report for other parameters.
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "usage error" in err


@pytest.mark.parametrize("argv", [
    ("verify", "norms", "--domain", "d2", "--max-index", "0", "--tol", "-1e-8"),
    ("verify", "kernels", "--domain", "d2", "--points", "2", "--tail-tol", "-1e-10"),
    ("eval", "--domain", "d2", "--nu", "0.25,0,0", "--method", "series", "--tail-tol", "-1e-10"),
], ids=["norms-tol", "kernels-tail-tol", "eval-tail-tol"])
def test_negative_value_in_exponent_notation_is_read_as_the_value(capsys, argv):
    # argparse takes -1e-8 for an option, not for a negative number, so the
    # CLI joins it to its flag and the value gets its own usage error
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "must be finite and > 0" in err


_ID = ("verify", "identities", "--trials", "1")
_NORMS = ("verify", "norms", "--domain", "d2", "--max-index", "0")
_KERNELS = ("verify", "kernels", "--domain", "d2", "--points", "1")
_UNREAD_FLAGS = {
    "identities-domain": _ID + ("--domain", "d1"),
    "identities-p": _ID + ("--p", "2"),
    "identities-lambda": _ID + ("--lambda", "3"),
    "identities-points": _ID + ("--points", "3"),
    "identities-margin": _ID + ("--margin", "0.1"),
    "identities-max-index": _ID + ("--max-index", "2"),
    "norms-trials": _NORMS + ("--trials", "5"),
    "norms-points": _NORMS + ("--points", "5"),
    "norms-seed": _NORMS + ("--seed", "5"),
    "norms-margin": _NORMS + ("--margin", "0.1"),
    "norms-tail-tol": _NORMS + ("--tail-tol", "1e-9"),
    "norms-max-degree": _NORMS + ("--max-degree", "100"),
    "kernels-trials": _KERNELS + ("--trials", "5"),
    "kernels-max-index": _KERNELS + ("--max-index", "2"),
}


@pytest.mark.parametrize("argv", list(_UNREAD_FLAGS.values()), ids=list(_UNREAD_FLAGS))
def test_verify_rejects_flags_the_suite_does_not_read(capsys, argv):
    # Each run, without its last flag, is a passing suite; the flag would be
    # ignored, so the report would not be for the run that was asked for.
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "usage error" in err and argv[-2] in err


@pytest.mark.parametrize("suite, run", [("identities", run_identity_suite),
                                        ("norms", run_norm_suite),
                                        ("kernels", run_kernel_suite)])
def test_verify_defaults_are_the_suite_defaults(tmp_path, capsys, suite, run):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", suite, "--out", str(out_path))
    assert code == 0
    strip = lambda text: re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)
    assert strip(out_path.read_text()) == strip(run().to_json())


def test_verify_help_states_the_suite_defaults():
    # a "(default X)" in a verify flag's help is the default of each suite
    # named, and a "(defaults: suite X, ...)" is each named suite's own
    suites = {"identities": run_identity_suite, "norms": run_norm_suite,
              "kernels": run_kernel_suite}
    command = next(a for a in build_parser()._actions if a.dest == "command")
    stated = []
    for action in command.choices["verify"]._actions:
        shared = re.fullmatch(r"(.+) \(default (\S+)\)", action.help or "")
        if shared:
            stated += [(name, action.dest, shared.group(2))
                       for name in shared.group(1).split(", ")]
        each = re.search(r"\(defaults: ([^;)]+)", action.help or "")
        if each:
            for entry in each.group(1).split(", "):
                name, text = entry.split(" ")
                stated.append((name, action.dest, text))
    assert len(stated) == 14
    for name, dest, text in stated:
        default = inspect.signature(suites[name]).parameters[dest].default
        assert text == default if isinstance(default, str) else float(text) == default


def test_verify_stdout_report_when_no_out(capsys):
    code, out, err = run_cli(capsys, "verify", "norms", "--domain", "d2",
                             "--max-index", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "norms"
    assert "suite=norms" in err
