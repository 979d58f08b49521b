"""The identity suite's batched Gauss series against one scalar gauss_2f1
call per element: the same rows, and the same error at the same row."""

import json
import re
from functools import partial

import numpy as np
import pytest

from bergkern import (ConvergenceError, DomainSpec, gauss_2f1, run_identity_suite,
                      run_kernel_suite, sample_pairs, suites)
from bergkern.cli import main
from bergkern.hypergeo import SeriesBatch, TruncationPolicy, gauss_2f1_batch


def scalar_batch(a, b, c, z, policy):
    # reference for gauss_2f1_batch: gauss_2f1 element by element
    a, b, c, z = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                                     np.asarray(c, dtype=float), np.asarray(z, dtype=complex))
    value = np.full(a.shape, complex("nan+nanj"))
    tail = np.full(a.shape, np.nan)
    used = np.zeros(a.shape, dtype=np.int64)
    exhausted = np.zeros(a.shape, dtype=bool)
    for i in np.ndindex(a.shape):
        try:
            sv = gauss_2f1(float(a[i]), float(b[i]), float(c[i]), complex(z[i]), policy)
        except ConvergenceError as exc:
            if "policy exhausted" not in str(exc):
                raise
            exhausted[i] = True
            continue
        value[i], tail[i], used[i] = sv.value, sv.tail_estimate, sv.shells_used
    return SeriesBatch(value, tail, used, exhausted)


# seeds 39 and 264 hold the identity rows of seeds 1-500 with the largest
# rel_err, a decomposition row and a multisum row
@pytest.mark.parametrize("seed", [7, 22005, 39, 264])
def test_identity_suite_rows_match_scalar_series(monkeypatch, seed):
    batched = run_identity_suite(seed=seed)
    monkeypatch.setattr(suites, "gauss_2f1_batch", scalar_batch)
    scalar = run_identity_suite(seed=seed)
    assert repr(batched.rows) == repr(scalar.rows)
    assert repr(batched.informational) == repr(scalar.informational)
    # seed 22005's row multisum-collapse/0087 failed at 1.388e-10 while the
    # multisum's terms were exponentials of logs up to 1224
    assert [r.case_id for r in batched.rows if not r.passed] == []


@pytest.mark.parametrize("argv", [
    ("--trials", "50", "--seed", "7", "--max-degree", "8"),
    ("--trials", "50", "--seed", "7", "--max-degree", "30"),
    ("--trials", "1", "--seed", "4", "--max-degree", "20"),  # a batched 2F1 first
    ("--trials", "3", "--seed", "0", "--max-degree", "60"),  # appell_fa first
])
def test_identity_suite_raises_the_scalar_error_at_its_row(monkeypatch, capsys, argv):
    # A series that uses up the policy gives its error to each row that reads
    # it, and the report, summary and exit code are those of scalar series.
    argv = ["verify", "identities", *argv]

    def run():
        code = main(argv)
        out, err = capsys.readouterr()
        return code, re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', out), err

    with monkeypatch.context() as patched:
        patched.setattr(suites, "gauss_2f1_batch", scalar_batch)
        want = run()
    got = run()
    assert got == want
    assert got[0] == 1 and '"error": "ConvergenceError: ' in got[1]


def test_an_exhausted_batch_element_raises_the_scalar_error_unsummed(monkeypatch):
    # The lookup raises the error gauss_2f1 would, word for word, without
    # summing the series again to get it.
    policy = TruncationPolicy(max_total_degree=20, tail_tol=1e-13)
    args = [(1.5, 0.7, 1.1, 0.05), (1.5, 0.7, 1.1, 0.95)]
    with pytest.raises(ConvergenceError) as scalar:
        gauss_2f1(*args[1], policy)
    assert list(gauss_2f1_batch(*np.array(args).T, policy).exhausted) == [False, True]

    def refuse(*args):
        raise AssertionError("gauss_2f1 called")

    monkeypatch.setattr(suites, "gauss_2f1", refuse)
    value = suites._gauss_batch(args, policy)
    assert value(0) == gauss_2f1(*args[0], policy).value
    with pytest.raises(ConvergenceError) as batched:
        value(1)
    assert str(batched.value) == str(scalar.value)


def test_d1_known_defect_writes_its_report_with_one_error_row(capsys):
    # Pair 0001 meets the row ceiling of the d1 series: its route row, and
    # the informational row that reads the same series value, carry the
    # error, and the other 169 gating rows are written.
    argv = "verify kernels --domain d1 --p 2.5 --lambda 1 --points 50 --seed 20 --margin 0.05"
    code = main(argv.split())
    out, err = capsys.readouterr()
    report = json.loads(out)
    errors = [(r["case_id"], r["pass"], r["lhs"], r["rhs"], r["abs_err"], r["rel_err"])
              for r in report["rows"] if "error" in r]
    assert code == 1 and errors == [("d1/route/0001", False, None, None, None, None)]
    assert [r["case_id"] for r in report["informational"] if "error" in r] \
        == ["d1/alternate-operator-weights/0001"]
    error = next(r["error"] for r in report["rows"] if "error" in r)
    assert error.startswith("ConvergenceError: a series of 3 variables")
    assert report["summary"]["failed"] == 1 and report["summary"]["total"] == 170
    assert " failed=1 " in err and report["report_version"] == 2


def test_one_failing_evaluation_costs_only_its_rows(monkeypatch):
    # The series route raises on one pair: that pair's route row and the
    # informational row of the same series value carry the error, and every
    # other row is the unpatched run's. A ValueError, a usage error, still
    # ends the run.
    kwargs = dict(domain="d2", points=10, seed=3)
    want = run_kernel_suite(**kwargs)
    bad = sample_pairs(DomainSpec.d2(), 3, 10, 0.2)[1].nu
    series = suites.kernel_series_d2_nu

    def failing(nu, policy, error=ConvergenceError("no convergence")):
        if nu == bad:
            raise error
        return series(nu, policy)

    monkeypatch.setattr(suites, "kernel_series_d2_nu", failing)
    got = run_kernel_suite(**kwargs)
    for rows, broken in ((got.rows, "d2/route/0001"),
                         (got.informational, "d2/alternate-numerator/0001")):
        assert [r.case_id for r in rows if r.error] == [broken]
        assert next(r for r in rows if r.case_id == broken).error \
            == "ConvergenceError: no convergence"
    assert repr([r for r in got.rows if not r.error]) \
        == repr([r for r in want.rows if r.case_id != "d2/route/0001"])
    assert repr([r for r in got.informational if not r.error]) \
        == repr([r for r in want.informational if r.case_id != "d2/alternate-numerator/0001"])
    assert got.summary()["failed"] == 1
    assert got.summary()["max_rel_err"] == max(r.rel_err for r in got.rows if not r.error)
    monkeypatch.setattr(suites, "kernel_series_d2_nu",
                        partial(failing, error=ValueError("usage")))
    with pytest.raises(ValueError, match="usage"):
        run_kernel_suite(**kwargs)
