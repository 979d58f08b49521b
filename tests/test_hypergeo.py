"""Tests for the series evaluators, closed 2F1 forms, and identity checks."""

import cmath
import math
import random

import pytest

from bergkern import (BranchError, ConvergenceError, PoleError, TruncationPolicy,
                      appell_fa, closed_2f1_family, closed_2f1_recurrence,
                      contiguous_relation_check, doubled_index_multisum,
                      fa_decomposition_rhs, fa_equal_params_closed, gauss_2f1,
                      kernel_series_d1_nu, kernel_series_d2_nu)
from bergkern import hypergeo, kernels

TIGHT = TruncationPolicy(max_total_degree=400, tail_tol=1e-13)


def rel(x, y):
    return abs(x - y) / max(abs(y), 1e-300)


def brute_2f1(a, b, c, z, terms):
    # independent oracle: plain term-by-term sum, no shells, no log scaling
    total = 0j
    term = 1.0 + 0j
    for m in range(terms):
        total += term
        term = term * (a + m) * (b + m) / ((c + m) * (m + 1)) * z
    return total


def brute_appell_2var(a, b, c, z, depth):
    total = 0j
    for m1 in range(depth):
        for m2 in range(depth - m1):
            t = 1.0
            for i in range(m1 + m2):
                t *= a + i
            for bi, ci, m in ((b[0], c[0], m1), (b[1], c[1], m2)):
                for i in range(m):
                    t *= (bi + i) / ((ci + i) * (i + 1))
            total += t * z[0] ** m1 * z[1] ** m2
    return total


def test_gauss_2f1_at_zero():
    assert gauss_2f1(1.3, 0.7, 2.1, 0.0).value == 1.0 + 0j


def test_gauss_2f1_geometric():
    assert rel(gauss_2f1(1.0, 1.0, 1.0, 0.5).value, 2.0) < 1e-12


def test_gauss_2f1_binomial():
    # F(2, b; b; z) = (1-z)^(-2)
    assert rel(gauss_2f1(2.0, 0.8, 0.8, 0.25).value, 16.0 / 9.0) < 1e-12


def test_gauss_2f1_against_brute_force():
    rng = random.Random(5)
    for _ in range(50):
        a = rng.uniform(0.5, 6.0)
        b = rng.uniform(0.5, 6.0)
        c = rng.uniform(0.5, 6.0)
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4))
        assert rel(gauss_2f1(a, b, c, z, TIGHT).value, brute_2f1(a, b, c, z, 250)) < 1e-12


def test_gauss_2f1_errors():
    with pytest.raises(ConvergenceError):
        gauss_2f1(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(PoleError):
        gauss_2f1(1.0, 1.0, 0.0, 0.5)
    with pytest.raises(PoleError):
        gauss_2f1(1.0, 1.0, -3.0, 0.5)
    with pytest.raises(ConvergenceError):
        # policy far too small for the decay rate
        gauss_2f1(1.0, 1.0, 1.0, 0.9, TruncationPolicy(max_total_degree=5, tail_tol=1e-13))


def test_appell_fa_at_zero_and_collapse_to_2f1():
    assert appell_fa(1.1, (0.5,), (1.5,), (0.0,)).value == 1.0 + 0j
    rng = random.Random(9)
    for _ in range(30):
        a = rng.uniform(0.5, 6.0)
        b = rng.uniform(0.5, 6.0)
        c = rng.uniform(0.5, 6.0)
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        one = appell_fa(a, (b,), (c,), (z,), TIGHT).value
        two = gauss_2f1(a, b, c, z, TIGHT).value
        assert rel(one, two) < 1e-14


def test_appell_fa_equal_parameter_value():
    got = appell_fa(1.0, (0.9, 1.7), (0.9, 1.7), (0.25, 0.25), TIGHT).value
    assert rel(got, 2.0) < 1e-12


def test_appell_fa_against_brute_force():
    rng = random.Random(13)
    for _ in range(10):
        a = rng.uniform(0.5, 4.0)
        b = (rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
        c = (rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
        z = (complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)),
             complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)))
        got = appell_fa(a, b, c, z, TIGHT).value
        ref = brute_appell_2var(a, b, c, z, 80)
        assert rel(got, ref) < 1e-10


def test_appell_fa_errors():
    with pytest.raises(ConvergenceError):
        appell_fa(1.0, (1.0, 1.0), (1.0, 1.0), (0.6, 0.5))
    with pytest.raises(PoleError):
        appell_fa(1.0, (1.0, 1.0), (1.0, -2.0), (0.1, 0.1))
    with pytest.raises(ValueError):
        appell_fa(1.0, (1.0,), (1.0, 2.0), (0.1, 0.1))


def test_appell_fa_terminating_series_against_mpmath():
    # b_1 = -2 makes a ratio exactly 0: every m_1 >= 3 term vanishes
    mpmath = pytest.importorskip("mpmath")
    a, b, c, z = 1.7, (-2, 1.5), (0.8, 2.2), (0.3 + 0.1j, -0.2 + 0.25j)
    with mpmath.workdps(30):
        ref = complex(mpmath.fsum(
            mpmath.rf(a, m1 + m2) * mpmath.rf(b[0], m1) * mpmath.rf(b[1], m2)
            / (mpmath.rf(c[0], m1) * mpmath.rf(c[1], m2)
               * mpmath.factorial(m1) * mpmath.factorial(m2))
            * mpmath.mpc(z[0]) ** m1 * mpmath.mpc(z[1]) ** m2
            for m1 in range(3) for m2 in range(200)))
    assert rel(appell_fa(a, b, c, z).value, ref) < 5e-14


def test_fa_equal_params_closed():
    assert fa_equal_params_closed(2.7, (0j, 0j)) == 1.0 + 0j
    assert rel(fa_equal_params_closed(1.0, (0.2, 0.3)), 2.0) < 1e-14
    assert rel(fa_equal_params_closed(3.0, (0.1, 0.2)), 0.7 ** -3) < 1e-14
    with pytest.raises(BranchError):
        fa_equal_params_closed(1.5, (1.2, 0.3))


def test_doubled_index_multisum_base_cases():
    assert doubled_index_multisum(1.3, 2.1, (0j,)).value == 1.0 + 0j
    got = doubled_index_multisum(1.0, 1.0, (0.03, 0.03), TIGHT).value
    assert rel(got, (1.0 - 0.24) ** -0.5) < 1e-10


def test_doubled_index_multisum_collapse_r1():
    rng = random.Random(21)
    for _ in range(40):
        a = rng.uniform(0.5, 6.0)
        c = rng.uniform(0.5, 6.0)
        x = complex(rng.uniform(-0.06, 0.06), rng.uniform(-0.04, 0.04))
        lhs = doubled_index_multisum(a, c, (x,), TIGHT).value
        rhs = gauss_2f1(a / 2, (a + 1) / 2, c, 4 * x, TIGHT).value
        assert rel(lhs, rhs) < 1e-10


def test_doubled_index_multisum_collapse_r2_r3():
    rng = random.Random(22)
    for _ in range(40):
        r = rng.choice((2, 3))
        a = rng.uniform(0.5, 6.0)
        c = rng.uniform(0.5, 6.0)
        raw = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(r)]
        scale = rng.uniform(0.0, 0.2) / max(sum(abs(v) for v in raw), 1e-9)
        x = tuple(v * scale for v in raw)
        lhs = doubled_index_multisum(a, c, x, TIGHT).value
        rhs = gauss_2f1(a / 2, (a + 1) / 2, c, 4 * sum(x), TIGHT).value
        assert rel(lhs, rhs) < 1e-10


def test_doubled_index_multisum_region_error():
    with pytest.raises(ConvergenceError):
        doubled_index_multisum(1.0, 1.0, (0.2, 0.1))


def test_closed_family_trivial_limits():
    # each variant must hit the series value 1 at z = 0
    for variant in ("i", "ii", "iii"):
        assert rel(closed_2f1_family(variant, 2.3, 0.0), 1.0) < 1e-14
    for variant in ("iv", "v"):
        assert rel(closed_2f1_recurrence(variant, 2.3, 0.0), 1.0) < 1e-14


def test_closed_family_spot_checks_vs_series():
    a, z = 1.5, 0.3
    assert rel(closed_2f1_family("ii", a, z),
               gauss_2f1((a + 3) / 2, (a + 4) / 2, a + 2, z, TIGHT).value) < 1e-10
    a, z = 3.0, 0.2
    assert rel(closed_2f1_family("i", a, z),
               gauss_2f1((a + 1) / 2, (a + 2) / 2, a, z, TIGHT).value) < 1e-10


def _random_admissible_z(rng):
    while True:
        z = cmath.rect(rng.uniform(0.0, 0.6), rng.uniform(0.0, 2 * math.pi))
        if (1 - z).real > 0.2:
            return z


def test_closed_family_i_iii_sweep():
    rng = random.Random(77)
    params = {"i": lambda a: ((a + 1) / 2, (a + 2) / 2, a),
              "ii": lambda a: ((a + 3) / 2, (a + 4) / 2, a + 2),
              "iii": lambda a: ((a + 3) / 2, (a + 4) / 2, a + 3)}
    for variant, f in params.items():
        for _ in range(60):
            a = rng.uniform(0.5, 6.0)
            z = _random_admissible_z(rng)
            aa, bb, cc = f(a)
            assert rel(closed_2f1_family(variant, a, z),
                       gauss_2f1(aa, bb, cc, z, TIGHT).value) < 1e-10


def test_recurrence_forms_match_series_and_direct_forms_do_not():
    rng = random.Random(78)
    for _ in range(60):
        a = rng.uniform(0.5, 6.0)
        z = _random_admissible_z(rng)
        s_iv = gauss_2f1((a + 3) / 2, (a + 4) / 2, a, z, TIGHT).value
        s_v = gauss_2f1((a + 2) / 2, (a + 3) / 2, a, z, TIGHT).value
        assert rel(closed_2f1_recurrence("iv", a, z), s_iv) < 1e-9
        assert rel(closed_2f1_recurrence("v", a, z), s_v) < 1e-9
    # the two-term displays are retained but rejected: far outside tolerance
    a, z = 2.5, 0.3
    s_iv = gauss_2f1((a + 3) / 2, (a + 4) / 2, a, z, TIGHT).value
    s_v = gauss_2f1((a + 2) / 2, (a + 3) / 2, a, z, TIGHT).value
    assert rel(closed_2f1_family("iv", a, z), s_iv) > 1e-3
    assert rel(closed_2f1_family("v", a, z), s_v) > 1e-3


def test_contiguous_relation_sample_points():
    for a, z in ((2.5, 0.3), (4.0, -0.4), (1.1, 0.05)):
        lhs, rhs = contiguous_relation_check(a, z, TIGHT)
        assert abs(lhs - rhs) / abs(lhs) < 1e-9


def test_contiguous_relation_alternate_coefficients_fail():
    lhs, rhs = contiguous_relation_check(2.5, 0.3, TIGHT, coefficients="alternate")
    assert abs(lhs - rhs) / abs(lhs) > 1e-3


def test_decomposition_trivial_and_collapse():
    assert rel(fa_decomposition_rhs(1.5, 0.8, 1.2, (0j, 0j)).value, 1.0) < 1e-13
    # with b1 = c1 the whole sum collapses to the equal-parameter product form
    got = fa_decomposition_rhs(1.4, 0.9, 0.9, (0.2, 0.25), TIGHT).value
    ref = appell_fa(1.4, (0.9, 0.7), (0.9, 0.7), (0.2, 0.25), TIGHT).value
    assert rel(got, ref) < 1e-10


def test_decomposition_matches_appell():
    got = fa_decomposition_rhs(1.2, 0.7, 1.4, (0.2, 0.3), TIGHT).value
    ref = appell_fa(1.2, (0.7, 0.9), (1.4, 0.9), (0.2, 0.3), TIGHT).value
    assert rel(got, ref) < 1e-8
    rng = random.Random(31)
    for _ in range(25):
        a = rng.uniform(0.5, 5.0)
        b1 = rng.uniform(0.5, 5.0)
        c1 = rng.uniform(0.5, 5.0)
        y = (complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)),
             complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)))
        c2 = rng.uniform(0.5, 5.0)
        got = fa_decomposition_rhs(a, b1, c1, y, TIGHT).value
        ref = appell_fa(a, (b1, c2), (c1, c2), y, TIGHT).value
        assert rel(got, ref) < 1e-8


def test_decomposition_three_variables():
    y = (0.15, 0.1 + 0.05j, 0.12 - 0.03j)
    got = fa_decomposition_rhs(1.3, 0.8, 1.6, y, TIGHT).value
    ref = appell_fa(1.3, (0.8, 1.1, 0.6), (1.6, 1.1, 0.6), y, TIGHT).value
    assert rel(got, ref) < 1e-8


def test_decomposition_evaluates_no_inner_series_past_its_stop():
    # the inner 2F1 of a shell past the stop degree need not converge, so
    # the series must not evaluate any ahead of the stop rule
    calls = []

    def counted(*args):
        calls.append(args)
        return gauss_2f1(*args)

    for a, b1, c1, y in ((1.2, 0.7, 1.4, (0.2, 0.3)),
                         (1.3, 0.8, 1.6, (0.15, 0.1 + 0.05j, 0.12 - 0.03j))):
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hypergeo, "gauss_2f1", counted)
            sv = fa_decomposition_rhs(a, b1, c1, y, TIGHT)
        assert len(calls) == sv.shells_used


# Near-boundary cases: the 3-variable sums pass the first block of the default
# row budget (degrees 0-27), the d1 and d2 kernel series span several blocks,
# and the last case raises ConvergenceError after several blocks.
_NEAR_D1 = (0.35 + 0.05j, 0.25, 0.12 - 0.05j, 0.5 + 0.1j)
_BLOCK_CASES = (
    lambda: appell_fa(1.5, (0.7, 1.3), (1.1, 0.6), (0.6 + 0.3j, -0.2 + 0.1j)),
    lambda: appell_fa(1.5, (0.7, 1.3, 0.9), (1.1, 0.6, 2.0),
                      (0.4 + 0.3j, -0.25 + 0.1j, 0.1 - 0.2j)),
    lambda: doubled_index_multisum(2.5, 1.3, (0.1 + 0.03j, -0.06 + 0.02j, 0.05 - 0.05j)),
    lambda: kernel_series_d2_nu((0.6 + 0.05j, 0.15 - 0.02j, 0.3 + 0.1j)),
    lambda: kernel_series_d1_nu(_NEAR_D1, 1.0, 2.0),
    lambda: kernel_series_d1_nu(_NEAR_D1, 1.0, 2.0, TruncationPolicy(120, 1e-10)),
)


def _clear_block_caches():
    for cache in (hypergeo._block_cached, kernels._d1_block, kernels._d2_block):
        cache.cache_clear()


def test_block_size_does_not_change_series(monkeypatch):
    used = []
    sum_shells = hypergeo._sum_shells

    def recorded(*args):
        sv = sum_shells(*args)
        used.append(sv.shells_used)
        return sv

    for module in (hypergeo, kernels):
        monkeypatch.setattr(module, "_sum_shells", recorded)

    def run_cases():
        out = []
        for case in _BLOCK_CASES:
            used.clear()
            try:
                value = case().value
            except ConvergenceError:
                value = None
            out.append((value, used.copy()))
        return out

    try:
        _clear_block_caches()
        default = run_cases()
        _clear_block_caches()
        monkeypatch.setattr(hypergeo, "_BLOCK_ROWS", 1)  # one shell per block
        single = run_cases()
    finally:
        monkeypatch.undo()
        _clear_block_caches()
    assert default[-2][1][0] > 100  # the d1 series spans several blocks
    assert default[-1][0] is None
    for (v_default, used_default), (v_single, used_single) in zip(default, single):
        assert used_default == used_single
        if v_default is None:
            assert v_single is None
        else:
            assert rel(v_single, v_default) < 1e-14


def test_truncation_refinement_is_monotone():
    # refining the stop tolerance never worsens the error against a converged value
    z = 0.4 + 0.2j
    converged = gauss_2f1(1.7, 2.2, 1.1, z, TruncationPolicy(1000, 1e-15)).value
    errs = []
    for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        v = gauss_2f1(1.7, 2.2, 1.1, z, TruncationPolicy(1000, tol)).value
        errs.append(abs(v - converged))
    assert all(e1 >= e2 - 1e-16 for e1, e2 in zip(errs, errs[1:]))


def test_tail_estimate_reflects_last_shell():
    sv = gauss_2f1(1.0, 1.0, 1.0, 0.5, TruncationPolicy(200, 1e-8))
    assert sv.tail_estimate <= 1e-8 * abs(sv.value) * 1.0001
    assert sv.shells_used > 5


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(max_total_degree=0)
    with pytest.raises(ValueError):
        TruncationPolicy(tail_tol=0.0)
    with pytest.raises(ValueError):
        TruncationPolicy(consecutive_small_shells=0)
