"""The identity suite's batched Gauss series against one scalar gauss_2f1
call per element: the same rows, and the same error at the same row."""

import numpy as np
import pytest

from bergkern import ConvergenceError, gauss_2f1, run_identity_suite, suites
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


@pytest.mark.parametrize("seed", [7, 22005])
def test_identity_suite_rows_match_scalar_series(monkeypatch, seed):
    batched = run_identity_suite(seed=seed)
    monkeypatch.setattr(suites, "gauss_2f1_batch", scalar_batch)
    scalar = run_identity_suite(seed=seed)
    assert repr(batched.rows) == repr(scalar.rows)
    assert repr(batched.informational) == repr(scalar.informational)
    failed = [(r.case_id, f"{r.rel_err:.3e}") for r in batched.rows if not r.passed]
    # seed 22005's one failing row is the multisum's own rounding error
    assert failed == ([("multisum-collapse/0087", "1.388e-10")] if seed == 22005 else [])


@pytest.mark.parametrize("argv", [
    ("--trials", "50", "--seed", "7", "--max-degree", "8"),
    ("--trials", "50", "--seed", "7", "--max-degree", "30"),
    ("--trials", "1", "--seed", "4", "--max-degree", "20"),  # a batched 2F1 first
    ("--trials", "3", "--seed", "0", "--max-degree", "60"),  # appell_fa first
])
def test_identity_suite_raises_the_scalar_error_at_its_row(monkeypatch, capsys, argv):
    argv = ["verify", "identities", *argv]
    with monkeypatch.context() as patched:
        patched.setattr(suites, "gauss_2f1_batch", scalar_batch)
        want = main(argv), capsys.readouterr().err
    got = main(argv), capsys.readouterr().err
    assert got == want
    assert got[0] == 1 and "ConvergenceError: " in got[1]


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
