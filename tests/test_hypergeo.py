"""Tests for the series evaluators, closed 2F1 forms, and identity checks."""

import cmath
import itertools
import math
import random
import re
import warnings

import numpy as np
import pytest

from bergkern import (BergkernError, BranchError, ConvergenceError, DomainSpec, PoleError,
                      TruncationPolicy, appell_fa, closed_2f1_family, closed_2f1_recurrence,
                      doubled_index_multisum, fa_decomposition_rhs, fa_equal_params_closed,
                      gauss_2f1, kernel_series_d1_nu, kernel_series_d2_nu,
                      kernel_series_ellipsoid_nu, recurrence_coefficients, sample_pairs)
from bergkern import hypergeo, kernels, suites

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


def closure_2f1(a, b, c, z, policy=hypergeo.DEFAULT_POLICY):
    # reference: the earlier gauss_2f1, called back once per term, the terms
    # read as one iterable
    z = complex(z)
    term = 1.0 + 0j

    def shell(deg):
        nonlocal term
        if deg > 0:
            k = deg - 1
            term = term * ((a + k) * (b + k) / ((c + k) * deg)) * z
        return term

    return hypergeo._sum_shells(map(shell, itertools.count()), policy, "gauss_2f1")


def _outcome(fn, *args):
    try:
        sv = fn(*args)
    except ConvergenceError as exc:
        return "ConvergenceError", str(exc)
    return repr(sv.value), repr(sv.tail_estimate), sv.shells_used


def _bit_for_bit_cases():
    rng = random.Random(2024)
    cases = [(1.3, 0.7, 2.1, 0j), (2.5, -1.5, -2.5, 0.5), (-0.5, 3.0, -0.25, 0.3j)]
    for _ in range(320):
        a = rng.uniform(-3.0, 6.0)
        b = rng.uniform(-3.0, 6.0)
        c = rng.choice((rng.uniform(0.5, 6.0), -rng.randrange(4) - rng.uniform(0.1, 0.9)))
        z = cmath.rect(rng.uniform(0.0, 0.95), rng.uniform(-math.pi, math.pi))
        cases.append((a, b, c, z))
    # and a lower parameter whose c + 1 rounds to 1.0
    return cases + [(1.0, 1.0, 1.0, 0.95), (0.5, 0.5, 1.5, -0.95j), (1.0, 1.0, 1e-20, 0.5)]


def test_gauss_2f1_matches_the_per_term_callback_bit_for_bit():
    cases = _bit_for_bit_cases()
    outcomes = set()
    for policy in (hypergeo.DEFAULT_POLICY, TIGHT):
        for a, b, c, z in cases:
            got = _outcome(gauss_2f1, a, b, c, z, policy)
            assert got == _outcome(closure_2f1, a, b, c, z, policy), (a, b, c, z)
            outcomes.add(got[0] == "ConvergenceError")
    assert outcomes == {False, True}  # both summed and exhausted series compared
    short = TruncationPolicy(max_total_degree=5, tail_tol=1e-13)
    got = _outcome(gauss_2f1, 1.0, 1.0, 1.0, 0.9, short)
    assert got[0] == "ConvergenceError"
    assert got == _outcome(closure_2f1, 1.0, 1.0, 1.0, 0.9, short)


def test_gauss_2f1_batch_matches_the_scalar_bit_for_bit():
    # and terminating series (a or b a non-positive integer), whose terms
    # turn exactly zero, and a near -1, whose terms at 1e-12 give two small
    # shells and then large ones again
    cases = _bit_for_bit_cases() + [(-1.0, 2.0, 1.5, 0.5), (-2.0, -1.0, 0.5, -0.3 - 0.2j),
                                    (-1 + 1.12e-13, 25.7, 0.174, 0.372 - 0.0425j)]
    a, b, c, z = (np.array(v) for v in zip(*cases))
    outcomes = set()
    for policy in (hypergeo.DEFAULT_POLICY, TIGHT,
                   TruncationPolicy(max_total_degree=5, tail_tol=1e-13)):
        batch = hypergeo.gauss_2f1_batch(a, b, c, z, policy)
        for i, case in enumerate(cases):
            want = _outcome(gauss_2f1, *case, policy)
            if batch.exhausted[i]:
                assert want[0] == "ConvergenceError", case
            else:
                assert (repr(complex(batch.value[i])), repr(float(batch.tail_estimate[i])),
                        int(batch.shells_used[i])) == want, case
            outcomes.add(bool(batch.exhausted[i]))
    assert outcomes == {False, True}
    # inputs broadcast, and the results keep their shape
    grid = hypergeo.gauss_2f1_batch(np.add.outer([1.5, 2.5], np.arange(3)), 0.7, 1.9,
                                    np.array([0.3j, -0.4])[:, None], TIGHT)
    assert grid.value.shape == grid.shells_used.shape == (2, 3)
    assert repr(complex(grid.value[1, 2])) == repr(gauss_2f1(4.5, 0.7, 1.9, -0.4, TIGHT).value)
    empty = hypergeo.gauss_2f1_batch([], [], [], [])
    assert empty.value.shape == empty.exhausted.shape == (0,)


def test_gauss_2f1_batch_raises_the_scalar_errors():
    # the first bad element's error, as the scalar call raises it
    for case in ((1.0, 1.0, -2.0, 0.5), (1.0, 1.0, 2.0, 1.0), (1.0, 1.0, 2.0, 0.6 + 0.8j)):
        with pytest.raises(Exception) as scalar:
            gauss_2f1(*case)
        batch_args = [np.array([0.5, v, v]) for v in case[:3]] + [np.array([0.1, case[3], 0.99j])]
        with pytest.raises(scalar.type, match=re.escape(str(scalar.value))):
            hypergeo.gauss_2f1_batch(*batch_args)


@pytest.mark.parametrize("c, deg", ((1e-20, 1), (-1.0 + 2.0**-53, 2)), ids=["1e-20", "-1+2^-53"])
def test_gauss_2f1_lower_parameter_next_to_a_pole_is_summed(c, deg):
    # (c + deg) - 1 rounds to 0.0, but c is no pole: the degree-deg term
    # divides by c + (deg - 1), which is c's distance from the pole -(deg - 1)
    # exactly, and the scalar and the batch sum the series to mpmath's value
    mpmath = pytest.importorskip("mpmath")
    assert c + deg - 1 == 0.0 and c != round(c)
    got = gauss_2f1(1.0, 1.0, c, 0.5)
    with mpmath.workdps(40):
        want = complex(mpmath.hyp2f1(1, 1, mpmath.mpf(c), 0.5))
    assert rel(got.value, want) < 1e-12
    batch = hypergeo.gauss_2f1_batch(1.0, 1.0, np.array([0.5, c, 2.0]), 0.5)
    assert (repr(complex(batch.value[1])), repr(float(batch.tail_estimate[1])),
            int(batch.shells_used[1])) == (repr(got.value), repr(got.tail_estimate),
                                           got.shells_used)


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


def test_closed_family_names_the_bound_on_a_it_needs():
    # the lower parameter of "i", "ii" and "iii" is a, a+2 and a+3
    for variant, a, bound in (("i", -1.0, "0"), ("ii", -2.5, "-2"), ("iii", -3.0, "-3")):
        with pytest.raises(ValueError, match=re.escape(
                f"closed_2f1_family({variant!r}) requires a > {bound}, got {a}")):
            closed_2f1_family(variant, a, 0.3)


def test_recurrence_forms_match_series_and_direct_forms_do_not():
    rng = random.Random(78)
    for _ in range(60):
        a = rng.uniform(0.5, 6.0)
        z = _random_admissible_z(rng)
        s_iv = gauss_2f1((a + 3) / 2, (a + 4) / 2, a, z, TIGHT).value
        s_v = gauss_2f1((a + 2) / 2, (a + 3) / 2, a, z, TIGHT).value
        assert rel(closed_2f1_recurrence("iv", a, z), s_iv) < 1e-9
        assert rel(closed_2f1_recurrence("v", a, z), s_v) < 1e-9
    # the two-term displays are retained, privately, but rejected: far
    # outside tolerance
    a, z = 2.5, 0.3
    s_iv = gauss_2f1((a + 3) / 2, (a + 4) / 2, a, z, TIGHT).value
    s_v = gauss_2f1((a + 2) / 2, (a + 3) / 2, a, z, TIGHT).value
    assert rel(hypergeo._closed_2f1_display("iv", a, z), s_iv) > 1e-3
    assert rel(hypergeo._closed_2f1_display("v", a, z), s_v) > 1e-3


def test_closed_recurrence_raises_pole_error_at_a_pole():
    # a is the lower parameter of both 2F1s; at a non-positive integer the
    # recurrence and its coefficients raise PoleError, not ZeroDivisionError
    for a in (0.0, -1.0, -2.0):
        for variant in ("iv", "v"):
            with pytest.raises(PoleError):
                closed_2f1_recurrence(variant, a, 0.3)
        with pytest.raises(PoleError):
            recurrence_coefficients(a, 0.3 + 0j)
    # a valid negative a still matches the series
    a, z = -0.5, 0.3
    assert rel(closed_2f1_recurrence("iv", a, z),
               gauss_2f1((a + 3) / 2, (a + 4) / 2, a, z, TIGHT).value) < 1e-12
    assert rel(closed_2f1_recurrence("v", a, z),
               gauss_2f1((a + 2) / 2, (a + 3) / 2, a, z, TIGHT).value) < 1e-12


def _recurrence_family(a, z):
    # F((a+3)/2, (a+4)/2; c; z) at c = a, a+2 and a+3, by direct series
    return [gauss_2f1((a + 3) / 2, (a + 4) / 2, c, complex(z), TIGHT).value
            for c in (a, a + 2, a + 3)]


def test_contiguous_relation_sample_points():
    for a, z in ((2.5, 0.3), (4.0, -0.4), (1.1, 0.05)):
        lhs, f2, f3 = _recurrence_family(a, z)
        c2, c3 = recurrence_coefficients(a, complex(z))
        assert abs(lhs - (c2 * f2 + c3 * f3)) / abs(lhs) < 1e-9


def test_contiguous_relation_alternate_coefficients_fail():
    lhs, f2, f3 = _recurrence_family(2.5, 0.3)
    rhs = hypergeo._alternate_recurrence_rhs(2.5, complex(0.3), f2, f3)
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


def _decomposition_by_mpmath(mpmath, a, b1, c1, y, depth):
    # the formula as printed, at 30 digits: a sum over m_2..m_r with
    # m_2 + ... + m_r < depth, mpmath's 2F1 the inner factor of each term
    with mpmath.workdps(30):
        y1, rest = mpmath.mpc(y[0]), [mpmath.mpc(v) for v in y[1:]]
        gap = 1 - mpmath.fsum(rest)
        # the factors of each term that depend on M = m_2 + ... + m_r only
        front = [mpmath.rf(a, m) * mpmath.rf(b1, m) / mpmath.rf(c1, m) * y1 ** m
                 * mpmath.hyp2f1(a + m, b1 + m, c1 + m, y1) * gap ** -(a + m)
                 for m in range(depth)]
        powers = [[v ** m / mpmath.factorial(m) for m in range(depth)] for v in rest]
        total = mpmath.mpf(0)
        for ms in itertools.product(range(depth), repeat=len(rest)):
            if sum(ms) < depth:
                total += front[sum(ms)] * mpmath.fprod(p[m] for p, m in zip(powers, ms))
        return complex(total)


def test_decomposition_matches_the_printed_multi_index_sum():
    # Summed over one index, the series must give the printed multi-index
    # sum: for 2, 3 and 4 variables, rest variables that nearly cancel
    # (the shells are then far smaller than their terms), and a zero y_1 or
    # y_i. Every case has converged well within 30 degrees.
    mpmath = pytest.importorskip("mpmath")
    cases = ((1.2, 0.7, 1.4, (0.2 + 0.1j, 0.3 - 0.2j)),
             (1.3, 0.8, 1.6, (0.15, 0.1 + 0.05j, 0.12 - 0.03j)),
             (2.1, 1.5, 0.9, (-0.25 + 0.1j, 0.1j, 0.15 - 0.05j, -0.1)),
             (1.6, 2.4, 1.1, (0.3 - 0.1j, 0.2 + 0.1j, -0.2 - 0.1j + 1e-6j)),
             (0.9, 3.2, 2.7, (0.35 + 0.2j, 0.3 - 0.15j, -0.3 + 0.15j, 1e-7)),
             (1.7, 2.2, 3.1, (0.4 - 0.2j, 0.25j, 0j)),
             (2.5, 0.6, 1.3, (0j, 0.2, -0.1 + 0.3j)))
    for a, b1, c1, y in cases:
        ref = _decomposition_by_mpmath(mpmath, a, b1, c1, y, 30)
        assert rel(fa_decomposition_rhs(a, b1, c1, y, TIGHT).value, ref) < 1e-13, y


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


def test_decomposition_asks_for_no_inner_series_past_its_cap():
    # At a cap of 5 this series is still far from its stop: it sums and
    # raises at degree 5, and inner is called for degrees 0-5 only.
    calls = []

    def inner(deg):
        calls.append(deg)
        return 1.0

    with pytest.raises(ConvergenceError,
                       match="^fa_decomposition_rhs: policy exhausted at total degree 5 "):
        hypergeo._decomposition_series(1.2, 0.7, 1.4, (0.9, 0.05),
                                       TruncationPolicy(5, 1e-13), inner)
    assert calls == [0, 1, 2, 3, 4, 5]


def test_table_builders_take_the_length_last(monkeypatch):
    # Builders are called as build(arg, length), the length the last
    # positional argument, as the benchmark's tracer reads it.
    calls = []
    for module, name in ((hypergeo, "_ratio_logseq"), (kernels, "_powers_logseq")):
        build = getattr(module, name)

        def spy(*args, build=build, **kwargs):
            calls.append((args, kwargs))
            return build(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    appell_fa(1.5, (0.7, 1.3), (1.1, 0.6), (0.3, -0.2j))
    doubled_index_multisum(2.5, 1.3, (0.1 + 0.03j, -0.06 + 0.02j))
    kernel_series_d2_nu((0.3, 0.05, 0.1j))
    assert len(calls) >= 3
    for args, kwargs in calls:
        assert not kwargs and len(args) == 2 and isinstance(args[-1], int)


def test_decomposition_from_the_suite_table_matches_the_public_series():
    # The identity suite reads each shell's inner 2F1 from one batch over
    # degrees 0-31. An entry past the stop may use up the policy unread; a
    # shell past the table, or at a used-up entry, calls gauss_2f1 itself.
    degrees = np.arange(suites._DECOMPOSITION_DEGREES)
    used_up = TruncationPolicy(max_total_degree=40, tail_tol=1e-13)
    cases = {
        "entries past the stop used up": (1.2, 0.7, 1.4, (0.2, 0.3), used_up),
        "past the table": (5.0, 5.5, 0.8, (-0.29, 0.5 + 0.1j), TIGHT),
        "entry before the stop used up": (1.2, 0.7, 1.4, (0.2, 0.3),
                                          TruncationPolicy(max_total_degree=30, tail_tol=1e-13)),
    }
    outcomes = {}
    for name, (a, b1, c1, y, policy) in cases.items():
        table = hypergeo.gauss_2f1_batch((a + degrees)[None, :], b1 + degrees, c1 + degrees,
                                         y[0], policy)
        inner = suites._decomposition_inner(table, 0, a, b1, c1, y[0], policy)
        got = _outcome(hypergeo._decomposition_series, a, b1, c1, y, policy, inner)
        assert got == _outcome(fa_decomposition_rhs, a, b1, c1, y, policy), name
        outcomes[name] = got[-1], table.exhausted[0]
    shells, exhausted = outcomes["entries past the stop used up"]
    assert not exhausted[:shells].any() and exhausted[shells:].any()
    assert outcomes["past the table"][0] == 41
    assert outcomes["entry before the stop used up"][0].startswith("gauss_2f1: policy exhausted")


# --- front series: appell_fa and doubled_index_multisum ----------------------

def _key(outcome):
    # a series outcome by its bytes: value, tail and shells, or error and message
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    return repr(outcome.value), repr(outcome.tail_estimate), outcome.shells_used


def _front_draws(rng, n, count, radius):
    """count seeded F_A inputs of n variables, sum |z_i| up to radius; the
    first elements are a region error, a pole and a lower parameter of 1e-20."""
    draws = []
    for _ in range(count):
        a = rng.uniform(0.5, 6.0)
        b = tuple(rng.uniform(-2.0, 6.0) for _ in range(n))
        c = tuple(rng.uniform(0.5, 6.0) for _ in range(n))
        raw = [cmath.rect(rng.random(), rng.uniform(-math.pi, math.pi)) for _ in range(n)]
        scale = rng.uniform(0.0, radius) / sum(abs(v) for v in raw)
        draws.append((a, b, c, tuple(v * scale for v in raw)))
    a, b, c, z = draws[0]
    draws[0] = a, b, c, tuple(v * 1.5 / sum(abs(w) for w in z) for v in z)
    a, b, c, z = draws[1]
    draws[1] = a, b, c[:-1] + (-2.0,), z
    a, b, c, z = draws[2]
    draws[2] = a, b, (1e-20,) + c[1:], z
    return draws


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_front_batches_match_the_batch_of_one_and_the_scalar_call(n):
    # 200 seeded inputs per variable count, summed as one batch, as batches
    # of one, and by the public scalar calls, agree by repr and shells_used;
    # region, pole and used-up elements carry the scalar's error word for
    # word, and do not stop the batch.
    policy = TruncationPolicy(max_total_degree=60, tail_tol=1e-13)
    rng = random.Random(1000 + n)
    kinds = set()
    for family, batch, scalar, draws in (
            ("appell_fa", hypergeo.appell_fa_batch, appell_fa, _front_draws(rng, n, 200, 0.95)),
            ("doubled_index_multisum", hypergeo.doubled_index_multisum_batch,
             doubled_index_multisum,
             [(a, c[0], z) for a, b, c, z in _front_draws(rng, n, 200, 0.24)])):
        if family == "appell_fa" and n == 1:
            continue  # F_A^(1) is gauss_2f1, element by element
        columns = list(zip(*draws))
        together = batch(*columns, policy)
        assert len(together) == len(draws)
        for args, outcome in zip(draws, together):
            one = batch(*([v] for v in args), policy)[0]
            try:
                alone = scalar(*args, policy)
            except (ConvergenceError, PoleError) as exc:
                alone = exc
            assert _key(outcome) == _key(one) == _key(alone), (family, args)
            kinds.add(_key(outcome)[0] if isinstance(outcome, Exception)
                      else "value")
            if isinstance(outcome, Exception):
                kinds.add(str(outcome).split(" ")[1])
    assert {"value", "ConvergenceError", "PoleError", "requires", "policy"} <= kinds, kinds


def test_appell_fa_batch_of_one_variable_is_gauss_2f1():
    # F_A^(1) is the Gauss series: each element is gauss_2f1's own sum
    draws = [(1.5, (0.7,), (1.1,), (0.3 - 0.2j,)), (2.5, (1.0,), (-1.0,), (0.1,)),
             (1.0, (1.0,), (1.0,), (0.99,))]
    got = hypergeo.appell_fa_batch(*zip(*draws), TIGHT)
    assert _key(got[0]) == _key(gauss_2f1(1.5, 0.7, 1.1, 0.3 - 0.2j, TIGHT))
    assert _key(got[1]) == ("PoleError",
                            "appell_fa: lower parameter -1.0 is a non-positive integer")
    assert _key(got[2])[1].startswith("gauss_2f1: policy exhausted")


def _by_compositions(mpmath, front, seqs, depth):
    # the multi-index sum as printed: front[M] * prod_i seqs[i][m_i] over the
    # compositions (m_1, ..., m_n) of each M < depth, listed by itertools
    n = len(seqs)
    total = mpmath.mpf(0)
    for M in range(depth):
        for bars in itertools.combinations(range(M + n - 1), n - 1):
            ms = [hi - lo - 1 for lo, hi in zip((-1,) + bars, bars + (M + n - 1,))]
            total += front[M] * mpmath.fprod(seq[m] for seq, m in zip(seqs, ms))
    return complex(total)


def test_front_series_match_the_printed_multi_index_sum():
    # The convolution of the tables against the multi-index sum as printed,
    # at 40 digits, for 2, 3 and 4 variables, a = 150, lower parameters of
    # 1e-20, and zero variables, each equal by repr to the sum without it.
    # Every case has converged well within its depth. No RuntimeWarning
    # escapes.
    mpmath = pytest.importorskip("mpmath")
    fa_cases = (
        (1.2, (0.7, 2.1), (1.4, 0.6), (0.3 + 0.2j, -0.25 + 0.1j), 50),
        (2.1, (1.5, -0.6, 3.3), (0.9, 2.2, 1.7), (-0.2 + 0.1j, 0.15j, 0.1 - 0.05j), 40),
        (1.6, (2.4, 0.5, 1.9, 3.1), (1.1, 0.8, 2.6, 4.2),
         (0.08 - 0.03j, 0.05 + 0.04j, -0.06 - 0.01j, 0.04j), 30),
        (150.0, (0.7, 1.3), (1.1, 0.6), (0.02 + 0.01j, -0.015j), 45),
        (1.3, (0.9, 1.1, 2.0), (1e-20, 1.5, 0.8), (0.1 - 0.05j, -0.08, 0.06 + 0.07j), 35),
    )
    multisum_cases = (
        (2.5, 1e-20, (0.05 + 0.02j, 0j, -0.03 + 0.04j), 45),
        (3.7, 0.9, (0.04j, -0.05 + 0.01j, 0.03, 0.02 - 0.03j), 30),
    )
    with warnings.catch_warnings(), mpmath.workdps(40):
        warnings.simplefilter("error", RuntimeWarning)
        for a, b, c, z, depth in fa_cases:
            ref = _by_compositions(
                mpmath, [mpmath.rf(a, M) for M in range(depth)],
                [[mpmath.rf(bi, m) / (mpmath.rf(ci, m) * mpmath.factorial(m)) * mpmath.mpc(zi) ** m
                  for m in range(depth)] for bi, ci, zi in zip(b, c, z)], depth)
            got = appell_fa(a, b, c, z, TIGHT)
            assert got.shells_used < depth - 10, (a, z)
            assert rel(got.value, ref) < 1e-12, (a, z, rel(got.value, ref))
        for a, c, x, depth in multisum_cases:
            ref = _by_compositions(
                mpmath, [mpmath.rf(a, 2 * M) / mpmath.rf(c, M) for M in range(depth)],
                [[mpmath.mpc(xi) ** m / mpmath.factorial(m) for m in range(depth)] for xi in x],
                depth)
            got = doubled_index_multisum(a, c, x, TIGHT)
            assert got.shells_used < depth - 10, (a, x)
            assert rel(got.value, ref) < 1e-12, (a, x, rel(got.value, ref))
        x = multisum_cases[0][2]
        assert _key(doubled_index_multisum(2.5, 1e-20, x, TIGHT)) \
            == _key(doubled_index_multisum(2.5, 1e-20, (x[0], x[2]), TIGHT))
        got = appell_fa(2.1, (1.5, 4.0, 3.3), (0.9, 0.5, 1.7), (-0.2 + 0.1j, 0j, 0.1 - 0.05j),
                        TIGHT)
        assert _key(got) == _key(appell_fa(2.1, (1.5, 3.3), (0.9, 1.7),
                                           (-0.2 + 0.1j, 0.1 - 0.05j), TIGHT))


def test_front_series_converge_far_from_the_origin():
    # sum |z_i| = 0.99: about 2600 shells under a cap of 3000, against the
    # closed form of equal parameters, (1 - z_1 - z_2)^-a at 40 digits
    mpmath = pytest.importorskip("mpmath")
    a, b = 0.8, (1.7, 0.6)
    z = (cmath.rect(0.55, 0.1), cmath.rect(0.44, 0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = appell_fa(a, b, b, z, TruncationPolicy(3000, 1e-13))
    with mpmath.workdps(40):
        ref = complex((1 - mpmath.mpc(z[0]) - mpmath.mpc(z[1])) ** -mpmath.mpf(a))
    assert 2000 < got.shells_used < 3000
    assert rel(got.value, ref) < 1e-12


_FRONT_CASES = (
    lambda: appell_fa(1.5, (0.7, 1.3), (1.1, 0.6), (0.6 + 0.3j, -0.2 + 0.1j)),
    lambda: appell_fa(1.5, (0.7, 1.3), (1.1, 0.6), (0.3, -0.2j)),
    lambda: appell_fa(1.5, (0.7, 1.3, 0.9), (1.1, 0.6, 2.0),
                      (0.4 + 0.3j, -0.25 + 0.1j, 0.1 - 0.2j)),
    lambda: appell_fa(1.6, (2.4, 0.5, 1.9, 3.1), (1.1, 0.8, 2.6, 4.2),
                      (0.3 - 0.1j, 0.2 + 0.1j, -0.2 - 0.1j, 0.1j), TruncationPolicy(300, 1e-13)),
    lambda: doubled_index_multisum(2.5, 1.3, (0.1 + 0.03j, -0.06 + 0.02j, 0.05 - 0.05j)),
    lambda: doubled_index_multisum(5.96, 0.79, (-0.177 + 0.071j,), TIGHT),
    lambda: doubled_index_multisum(1.0, 1.0, (0.124, 0.124), TruncationPolicy(100, 1e-13)),
    lambda: hypergeo.appell_fa_batch(
        [1.2, 1.5, 2.0], [(0.7, 2.1), (1.0, -1.0), (3.0, 0.5)],
        [(1.4, 0.6), (0.5, 2.0), (1.0, 1.5)],
        [(0.3 + 0.2j, -0.25 + 0.1j), (0.5, 0.49j), (-0.1, 0.05j)], TIGHT),
)


def _front_outcome(case):
    try:
        got = case()
    except ConvergenceError as exc:
        return _key(exc)
    return [_key(v) for v in got] if isinstance(got, list) else _key(got)


@pytest.mark.parametrize("first", (1, 32, 10**9), ids=("one", "default", "full"))
def test_first_table_length_does_not_change_front_series(monkeypatch, first):
    # Tables built from 1 entry, from 32, or to the cap at once give the same
    # outcomes: every table entry and every merged entry is made per row and
    # does not depend on where a table ends, and the stop rule's run of small
    # shells carries across table ends. The cases reach several table
    # lengths, 4 variables, an exhausted cap and a mixed batch.
    want = [_front_outcome(case) for case in _FRONT_CASES]
    # the second stops at shell 32, its three small shells across the end of
    # the first tables
    assert [w[-1] for w in want[:6]] == [62, 33, 37, 44, 32, 208]
    assert want[6][0] == "ConvergenceError"
    monkeypatch.setattr(hypergeo, "_FIRST_TABLE_LENGTH", first)
    assert [_front_outcome(case) for case in _FRONT_CASES] == want


@pytest.mark.parametrize("chunk", (1, 7), ids=("one", "seven"))
def test_pair_chunk_does_not_change_front_series(monkeypatch, chunk):
    # A merge makes its entries a few at a time, about _PAIR_CHUNK elements
    # a pass. One entry a pass, seven elements or the default give the same
    # outcomes bit for bit: the cases above, and seeded batches of 2, 3 and
    # 4 variables with region, pole and used-up elements.
    policy = TruncationPolicy(max_total_degree=60, tail_tol=1e-13)
    rng = random.Random(77)
    batches = []
    for n in (2, 3, 4):
        draws = _front_draws(rng, n, 30, 0.9)
        batches.append(lambda draws=draws: hypergeo.appell_fa_batch(*zip(*draws), policy))
        draws = [(a, c[0], z) for a, b, c, z in _front_draws(rng, n, 30, 0.24)]
        batches.append(lambda draws=draws: hypergeo.doubled_index_multisum_batch(*zip(*draws),
                                                                                 policy))
    cases = _FRONT_CASES + tuple(batches)
    want = [_front_outcome(case) for case in cases]
    monkeypatch.setattr(hypergeo, "_PAIR_CHUNK", chunk)
    assert [_front_outcome(case) for case in cases] == want


def test_merge_is_the_truncated_convolution(monkeypatch):
    # _merge against sum_{j <= K} w[j] u[K - j] at 40 digits, for sequences
    # with zero entries and exponents thousands apart, so that products of
    # one entry lie more than 2^1023 below the largest; entries lo..hi-1 and
    # any pass size give the same bits.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    rows, length = 3, 12

    def table():
        re_, im_ = rng.uniform(-1.0, 1.0, (2, rows, length))
        return hypergeo._normalised(re_, im_, rng.integers(-3000, 3000, (rows, length)))

    def value(tab, r, m):
        return mpmath.mpc(tab.re[r, m], tab.im[r, m]) * mpmath.ldexp(1, int(tab.exp[r, m]))

    w, u = table(), table()
    for tab, r, ms in ((w, 1, [2, 5]), (w, 2, slice(None)), (u, 0, [0])):
        tab.re[r, ms], tab.im[r, ms], tab.exp[r, ms] = 0.0, 0.0, hypergeo._ZERO_EXP
    got = hypergeo._merge(w, u, 0, length)
    gaps = []
    with mpmath.workdps(40):
        for r in range(rows):
            for k in range(length):
                terms = [value(w, r, j) * value(u, r, k - j) for j in range(k + 1)
                         if w.exp[r, j] != hypergeo._ZERO_EXP
                         and u.exp[r, k - j] != hypergeo._ZERO_EXP]
                if not terms:
                    assert (got.re[r, k], got.im[r, k], got.exp[r, k]) \
                        == (0.0, 0.0, hypergeo._ZERO_EXP), (r, k)
                    continue
                exps = [w.exp[r, j] + u.exp[r, k - j] for j in range(k + 1)]
                gaps.append(max(exps) - min(e for e in exps if e > hypergeo._ZERO_EXP))
                assert 0.5 <= max(abs(got.re[r, k]), abs(got.im[r, k])) < 1.0
                err = abs(value(got, r, k) - mpmath.fsum(terms))
                assert err <= 1e-15 * mpmath.fsum(abs(t) for t in terms), (r, k)
    assert max(gaps) > 1023 and np.all(got.exp[2] == hypergeo._ZERO_EXP)
    for chunk in (1, 7, hypergeo._PAIR_CHUNK):
        monkeypatch.setattr(hypergeo, "_PAIR_CHUNK", chunk)
        for lo in (0, 5):
            part = hypergeo._merge(w, u, lo, length)
            for whole, piece in zip(got, part):
                assert np.array_equal(whole[:, lo:], piece)


def test_front_series_stop_at_the_row_ceiling(monkeypatch):
    # A merge holds one row per pair j <= K <= D, so a series of 2 or more
    # variables reaches degree 4651 within the row ceiling, 4 variables
    # too; past it, each element of a batch carries the ceiling's error.
    assert hypergeo._last_degree(1) == hypergeo._MAX_SERIES_ROWS - 1
    for n in (2, 3, 4):
        assert hypergeo._last_degree(n) == 4651
        assert math.comb(4653, 2) <= hypergeo._MAX_SERIES_ROWS < math.comb(4654, 2)
    monkeypatch.setattr(hypergeo, "_MAX_SERIES_ROWS", math.comb(23, 3))  # degree 58
    assert hypergeo._last_degree(4) == 58
    policy = TruncationPolicy(100, 1e-13)
    z4 = (0.3, 0.2, 0.2, 0.25)
    near = (0.05, 0.02j, -0.03, 0.01)
    got = hypergeo.appell_fa_batch([1.5, 1.5], [(1.0,) * 4] * 2, [(2.0,) * 4] * 2, [z4, near],
                                   policy)
    assert _key(got[0]) == ("ConvergenceError", "a series of 4 variables would reach past "
                            f"degree 58, the ceiling of {math.comb(23, 3)} rows")
    assert got[1].shells_used < 30
    with pytest.raises(ConvergenceError, match="4 variables would reach past degree 58,"):
        appell_fa(1.5, (1.0,) * 4, (2.0,) * 4, z4, policy)
    # a cap below the ceiling is the policy's error
    assert "policy exhausted at total degree 40" in str(hypergeo.appell_fa_batch(
        [1.5], [(1.0,) * 4], [(2.0,) * 4], [z4], TruncationPolicy(40, 1e-13))[0])


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, complex(0.01, math.nan)),
                         ids=("nan", "inf", "-inf", "nan-imag"))
def test_non_finite_parameters_and_arguments_are_value_errors(bad):
    # before any shell: a nan ran doubled_index_multisum to its cap
    calls = {
        "gauss_2f1 a": lambda: gauss_2f1(abs(bad), 1.0, 1.5, 0.3),
        "gauss_2f1 z": lambda: gauss_2f1(1.0, 1.0, 1.5, bad),
        "gauss_2f1_batch": lambda: hypergeo.gauss_2f1_batch([1.0, 1.0], 1.0, 1.5, [0.3, bad]),
        "appell_fa": lambda: appell_fa(1.0, (1.0, 1.0), (1.5, 2.0), (0.1, bad)),
        "appell_fa b": lambda: appell_fa(1.0, (1.0, abs(bad)), (1.5, 2.0), (0.1, 0.1)),
        "appell_fa_batch": lambda: hypergeo.appell_fa_batch(
            [1.0, 1.0], [(1.0, 1.0)] * 2, [(1.5, 2.0)] * 2, [(0.1, 0.1), (0.1, bad)]),
        "multisum": lambda: doubled_index_multisum(1, 1, (bad, 0.01, 0.01)),
        "multisum c": lambda: doubled_index_multisum(1, abs(bad), (0.01, 0.01, 0.01)),
        "multisum_batch": lambda: hypergeo.doubled_index_multisum_batch(
            [1.0, 1.0], [1.0, 1.0], [(0.01, 0.01), (bad, 0.01)]),
        "decomposition": lambda: fa_decomposition_rhs(1.0, 1.0, 1.5, (0.1, bad)),
        "decomposition a": lambda: fa_decomposition_rhs(abs(bad), 1.0, 1.5, (0.1, 0.1)),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="needs finite parameters and arguments"):
            call()


def test_front_rows_that_failed_in_log_form_agree_with_mpmath():
    # Two identity rows that failed while front terms were exponentials of
    # large logs, each series side against mpmath at 40 digits.
    mpmath = pytest.importorskip("mpmath")
    # verify identities --seed 22005, multisum-collapse/0087 (was 1.388e-10)
    a, c, x = 5.961533940675356, 0.7904283730957611, -0.1770991541945385 + 0.07092977711380732j
    with mpmath.workdps(40):
        ref = complex(mpmath.hyp2f1(mpmath.mpf(a) / 2, (mpmath.mpf(a) + 1) / 2, c,
                                    4 * mpmath.mpc(x)))
    assert rel(doubled_index_multisum(a, c, (x,), TIGHT).value, ref) < 1e-11
    assert rel(gauss_2f1(a / 2, (a + 1) / 2, c, 4 * x, TIGHT).value, ref) < 1e-11
    # verify identities --seed 39, decomposition/0176 (was 2.11e-10, the F_A
    # side off). Its shells cancel 9e5-fold: the exact shells, each rounded
    # to a double and summed exactly, are off by 1.1e-11 already, so the F_A
    # side is held to 5e-11.
    a, b1, c1, shared = 5.722819955508668, 5.852144374073099, 0.667570091969262, 5.392481174567001
    y = (-0.2502587706110284 - 0.0980445505155504j, -0.2827896061632319 + 0.01183670696033055j)
    with mpmath.workdps(40):
        ref = complex(mpmath.appellf2(a, b1, shared, c1, shared, y[0], y[1]))
    assert rel(fa_decomposition_rhs(a, b1, c1, y, TIGHT).value, ref) < 1e-11
    assert rel(appell_fa(a, (b1, shared), (c1, shared), y, TIGHT).value, ref) < 5e-11


# Near-boundary cases: the d1, d2 and ellipsoid kernel series span several
# blocks, and the last case raises ConvergenceError after several blocks.
_NEAR_D1 = (0.35 + 0.05j, 0.25, 0.12 - 0.05j, 0.5 + 0.1j)
_BLOCK_CASES = (
    lambda: kernel_series_d2_nu((0.6 + 0.05j, 0.15 - 0.02j, 0.3 + 0.1j)),
    lambda: kernel_series_ellipsoid_nu((cmath.rect(0.85, 0.3), cmath.rect(0.5, -0.7)), (2, 3)),
    lambda: kernel_series_ellipsoid_nu((0.45 - 0.2j, -0.4 + 0.1j, 0.2j), (1, 2, 1)),
    lambda: kernel_series_d1_nu(_NEAR_D1, 1.0, 2.0),
    lambda: kernel_series_d1_nu(_NEAR_D1, 1.0, 2.0, TruncationPolicy(120, 1e-10)),
)


def _clear_block_caches():
    for cache in (hypergeo._blocks, kernels._coefficients):
        cache.cache_clear()


def held_bytes(store):
    """The bytes a store of held sequences counts."""
    return sum(seq.nbytes for seq in store._held.values())


# Past the deepest block a case asks for: the (2,3) ellipsoid's scaled cap of
# 3000 degrees plus one block.
_FULL_TABLE_LENGTH = 4000


def _full_length_powers(xs, length, build=kernels._powers_logseq):
    # every block's powers built to one fixed length, then cut to its own
    return build(xs, _FULL_TABLE_LENGTH)[:, :length]


# Block and power settings that must all give the same shells: the defaults
# (degree- and row-bounded blocks, powers built to each block's end), one
# shell per block by rows and by degrees, blocks bounded by rows alone, and
# powers cut from full-length builds.
_BLOCK_SETTINGS = {
    "default": (),
    "rows-1": ((hypergeo, "_BLOCK_ROWS", 1),),
    "degrees-1": ((hypergeo, "_BLOCK_DEGREES", 1),),
    "degrees-400": ((hypergeo, "_BLOCK_DEGREES", 400),),
    "full-tables": ((kernels, "_powers_logseq", _full_length_powers),),
}


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
                value = repr(case().value)
            except ConvergenceError:
                value = None
            out.append((value, used.copy()))
        return out

    results = {}
    try:
        for name, patches in _BLOCK_SETTINGS.items():
            with pytest.MonkeyPatch.context() as mp:
                for module, attr, value in patches:
                    mp.setattr(module, attr, value)
                _clear_block_caches()
                results[name] = run_cases()
    finally:
        monkeypatch.undo()
        _clear_block_caches()
    default = results["default"]
    assert default[-2][1][0] > 100  # the d1 series spans several blocks
    for name, got in results.items():
        assert got[-1][0] is None, name  # the capped d1 series still raises
        assert got == default, name
    # the rows-1 setting reaches the d1 blocks: each holds one shell
    spans = []
    gather = kernels._shell_gather

    def recorded_gather(seqs, block, *rest):
        spans.append(len(block.sizes))
        return gather(seqs, block, *rest)

    try:
        monkeypatch.setattr(hypergeo, "_BLOCK_ROWS", 1)
        monkeypatch.setattr(kernels, "_shell_gather", recorded_gather)
        _clear_block_caches()
        kernel_series_d1_nu(_NEAR_D1, 1.0, 2.0)
    finally:
        monkeypatch.undo()
        _clear_block_caches()
    assert len(spans) == default[-2][1][0] and set(spans) == {1}


def _series_runs(monkeypatch):
    """run(case) -> (the value, or the BergkernError raised, and the
    shells_used of every series summed), with _sum_shells recorded as
    kernels sees it."""
    used = []
    sum_shells = kernels._sum_shells

    def recorded(*args):
        sv = sum_shells(*args)
        used.append(sv.shells_used)
        return sv

    monkeypatch.setattr(kernels, "_sum_shells", recorded)

    def run(case):
        used.clear()
        try:
            value = case().value
        except BergkernError as exc:
            value = exc
        return value, used.copy()

    return run


def _both_paths(monkeypatch, run, case):
    """run(case) with the default range rule, and with every block forced
    into log/phase form."""
    default = run(case)
    with monkeypatch.context() as mp:
        mp.setattr(kernels, "_DIRECT_MAX_LOG", -math.inf)
        forced = run(case)
    return default, forced


def _sweep_cases(seed: int):
    # seeded d1, d2 and ellipsoid pairs at margins 0.05-0.4, as the library
    # evaluates them
    rng = random.Random(seed)
    margins = (0.05, 0.1, 0.2, 0.4)
    cases = []
    for spec, series in (
            (DomainSpec.d1(2.0, 2.0), lambda nu: kernel_series_d1_nu(nu, 2.0, 2.0)),
            (DomainSpec.d1(1.0, 3.0), lambda nu: kernel_series_d1_nu(nu, 1.0, 3.0)),
            (DomainSpec.d2(), kernel_series_d2_nu),
            (DomainSpec.ellipsoid((1, 1)), lambda nu: kernel_series_ellipsoid_nu(nu, (1, 1))),
            (DomainSpec.ellipsoid((2, 3)), lambda nu: kernel_series_ellipsoid_nu(nu, (2, 3))),
            (DomainSpec.ellipsoid((1, 2, 1)),
             lambda nu: kernel_series_ellipsoid_nu(nu, (1, 2, 1)))):
        for margin in margins:
            for pair in sample_pairs(spec, rng.randrange(2**31), 2, margin):
                cases.append(lambda nu=pair.nu, series=series: series(nu))
    return cases


# pairs with an exactly zero nu_j, whose log is -inf in log/phase form
_ZERO_CASES = [
    lambda: kernel_series_ellipsoid_nu((0.3 + 0.1j, 0), (2, 3)),
    lambda: kernel_series_ellipsoid_nu((0, 0.2), (0.3, 0.4)),
    lambda: kernel_series_ellipsoid_nu((0.1, 0, 0.05j), (2, 2, 2)),
]


def test_direct_products_match_the_log_phase_form(monkeypatch):
    # Below the range bound a block is gathered as direct complex products;
    # with the bound at -inf every block is gathered in log/phase form. The
    # two agree to 1e-12 and stop at the same shell, with no RuntimeWarning,
    # on every seeded pair, on pairs with a zero variable and on the
    # near-boundary block cases.
    run = _series_runs(monkeypatch)
    assert kernels._DIRECT_MAX_LOG == 600.0
    for case in _sweep_cases(29) + _ZERO_CASES + list(_BLOCK_CASES):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (got, got_used), (want, want_used) = _both_paths(monkeypatch, run, case)
        assert got_used == want_used
        if isinstance(want, BergkernError):
            assert repr(got) == repr(want)
        else:
            assert got_used and rel(got, want) <= 1e-12, (got, want)
    # the last block case uses up its cap on both paths
    assert isinstance(got, ConvergenceError) and repr(got) == repr(want)


def test_blocks_past_the_range_bound_keep_the_log_phase_form(monkeypatch):
    # (0.3, 0.4) ellipsoid pairs at rho = |nu1|^0.3 + |nu2|^0.4 = 0.98 need
    # 415-489 shells, whose log-coefficients reach past 709, where exp
    # overflows: those blocks stay in log/phase form, with no RuntimeWarning
    # (an error in this suite), and the value is the all-log/phase one.
    run = _series_runs(monkeypatch)
    peaks = []
    gather = kernels._shell_gather

    def recorded(powers, block, log_coef):
        peaks.append(float(log_coef.max()))
        return gather(powers, block, log_coef)

    monkeypatch.setattr(kernels, "_shell_gather", recorded)
    shells = []
    for s in (0.2, 0.5, 0.8):
        nu = ((0.98 * s) ** (1 / 0.3), (0.98 * (1 - s)) ** (1 / 0.4))
        peaks.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (got, got_used), (want, want_used) = _both_paths(
                monkeypatch, run, lambda nu=nu: kernel_series_ellipsoid_nu(nu, (0.3, 0.4)))
        assert max(peaks) > 709 and min(peaks) <= kernels._DIRECT_MAX_LOG
        assert got_used == want_used
        assert rel(got, want) <= 1e-12, (s, got, want)
        shells += got_used
    assert shells == [489, 452, 415]


def test_a_failed_block_build_leaves_the_sequences_whole(monkeypatch):
    # A block build that raises, here MemoryError at the third block of a d1
    # series, propagates and leaves the shared sequences as they were: the
    # next evaluation builds that block again, from the same degree, and
    # reads on past it to the value of a series that never failed.
    _clear_block_caches()
    ref = kernel_series_d1_nu(_NEAR_D1, 1.0, 2.0)
    _clear_block_caches()
    built = []
    build = hypergeo._build_block

    def failing(nvars, lo):
        built.append(lo)
        if len(built) == 3:
            raise MemoryError("no room for one more block")
        return build(nvars, lo)

    monkeypatch.setattr(hypergeo, "_build_block", failing)
    try:
        with pytest.raises(MemoryError):
            kernel_series_d1_nu(_NEAR_D1, 1.0, 2.0)
        again = kernel_series_d1_nu(_NEAR_D1, 1.0, 2.0)
    finally:
        monkeypatch.undo()
        _clear_block_caches()
    assert built[2] == built[3] and len(built) > 4
    assert repr(again) == repr(ref)


def test_row_ceiling_bounds_each_series_by_its_variables():
    ceiling = hypergeo._MAX_SERIES_ROWS
    assert ceiling == math.comb(403, 3)
    # the last degree D of each variable count, C(D + n, n) rows through it:
    # a block ends there, and one past it raises; 3 variables end at 400
    for nvars, last in ((1, ceiling - 1), (2, 4651), (3, 400), (4, 124)):
        assert math.comb(last + nvars, nvars) <= ceiling < math.comb(last + 1 + nvars, nvars)
        assert hypergeo._build_block(nvars, last).hi == last + 1
        with pytest.raises(ConvergenceError,
                           match=f"{nvars} variables would reach past degree {last},"):
            hypergeo._build_block(nvars, last + 1)
    # so does the shared 3-variable sequence once it has held that block
    _clear_block_caches()
    held = hypergeo._blocks(3)._items
    try:
        with pytest.raises(ConvergenceError, match="past degree 400"):
            for _ in hypergeo._blocks(3):
                pass
        assert held[-1].hi == 401 and sum(len(b.comps) for b in held) == ceiling
    finally:
        _clear_block_caches()
    # 2 variables reach far beyond the 1000-degree kernel cap
    block = hypergeo._build_block(2, 900)
    assert block.hi > 900 and block.sizes[0] == 901


def test_d1_series_stops_at_the_row_ceiling(monkeypatch):
    # With the ceiling at degree 20, a d1 series under a 1000-degree cap
    # gathers shells up to degree 20, then raises, like a 20-degree cap.
    # A series that stops earlier is unchanged.
    his = []
    build = hypergeo._build_block

    def recorded(*args):
        block = build(*args)
        his.append(block.hi)
        return block

    wide = TruncationPolicy(1000, 1e-10)
    _clear_block_caches()
    monkeypatch.setattr(hypergeo, "_MAX_SERIES_ROWS", math.comb(23, 3))
    monkeypatch.setattr(hypergeo, "_build_block", recorded)
    try:
        with pytest.raises(ConvergenceError, match="past degree 20"):
            kernel_series_d1_nu(_NEAR_D1, 1.0, 2.0, wide)
        assert max(his) == 21
        with pytest.raises(ConvergenceError):
            kernel_series_d1_nu(_NEAR_D1, 1.0, 2.0, TruncationPolicy(20, 1e-10))
        near_zero = (0.01, 0.02j, 0.005, -0.01)
        kernels._coefficients.cache_clear()
        assert repr(kernel_series_d1_nu(near_zero, 1.0, 2.0, wide).value) \
            == repr(kernel_series_d1_nu(near_zero, 1.0, 2.0, TruncationPolicy(20, 1e-10)).value)
    finally:
        monkeypatch.undo()
        _clear_block_caches()


def test_ellipsoid_rows_count_against_the_row_ceiling(monkeypatch):
    # Under a ceiling of C(23, 3) = 1771 rows a (2,2,2) ellipsoid, a series
    # of 3 variables, stops at degree 20, and its held blocks hold exactly
    # the rows through degree 20. A 4-variable ellipsoid, which stops at
    # degree 11, holds the rows through degree 11 in blocks of its own, as
    # both fit the bound on held blocks.
    gathered = []
    gather = kernels._shell_gather

    def recorded(seqs, block, *rest):
        gathered.append(len(block.comps))
        return gather(seqs, block, *rest)

    _clear_block_caches()
    monkeypatch.setattr(hypergeo, "_MAX_SERIES_ROWS", math.comb(23, 3))
    monkeypatch.setattr(hypergeo, "_BLOCK_ROWS", 64)  # several blocks
    monkeypatch.setattr(kernels, "_shell_gather", recorded)
    try:
        with pytest.raises(ConvergenceError, match="3 variables would reach past degree 20"):
            kernel_series_ellipsoid_nu((0.55, 0.55j, -0.55), (2, 2, 2))
        assert sum(gathered) == math.comb(23, 3)
        held = kernels._coefficients(kernels._ellipsoid_block, 3, (2.0, 2.0, 2.0), 0)._items
        count3 = len(held)
        assert count3 == len(gathered) > 1
        assert all(len(log_coef) == len(block.comps)
                   for log_coef, block in zip(held, hypergeo._blocks(3)._items))
        gathered.clear()
        with pytest.raises(ConvergenceError, match="4 variables would reach past degree 11"):
            kernel_series_ellipsoid_nu((0.45, 0.45j, -0.45, 0.45), (2, 2, 2, 2))
        assert sum(gathered) == math.comb(15, 4)
        assert sum(len(block.comps) for block in hypergeo._blocks(4)._items) == sum(gathered)
        assert len(kernels._coefficients._held) == 2
        assert len(held) == len(hypergeo._blocks(3)._items) == count3
    finally:
        monkeypatch.undo()
        _clear_block_caches()


def test_held_blocks_stay_within_their_bound(monkeypatch):
    # The composition blocks held take at most max_bytes. A 4-variable series
    # that grows past it drops the 3-variable blocks, never its own; the next
    # 3-variable series drops the 4-variable blocks as it grows. Values are
    # those under the default bound.
    series = [lambda: kernel_series_ellipsoid_nu((0.4, 0.4j, -0.4), (2, 2, 2)),
              lambda: kernel_series_ellipsoid_nu((0.35, 0.35j, -0.35, 0.35), (2, 2, 2, 2))]
    cache = hypergeo._blocks
    assert cache.max_bytes == hypergeo._HELD_BYTES
    monkeypatch.setattr(hypergeo, "_BLOCK_ROWS", 64)  # several blocks
    _clear_block_caches()
    try:
        ref = [repr(evaluate()) for evaluate in series]
        four = sum(block.comps.nbytes for block in cache(4)._items)
        _clear_block_caches()
        monkeypatch.setattr(cache, "max_bytes", four // 2)
        held = []
        for i, evaluate in enumerate(series + series):
            kernels._coefficients.cache_clear()  # so each series asks for blocks
            assert repr(evaluate()) == ref[i % 2]
            held.append(list(cache._held))
            assert held_bytes(cache) == sum(block.comps.nbytes
                                            for block in cache(*held[-1][-1])._items)
        assert held == [[(3,)], [(4,)], [(3,)], [(4,)]]
        assert held_bytes(cache) == four > cache.max_bytes
    finally:
        monkeypatch.undo()
        _clear_block_caches()


def test_stacked_ratio_logseq_rows_match_one_sequence_builds():
    # The doubled-index tables with one x_i = 0 (a zero ratio): every row of
    # the one stacked build equals its own 1-D build bit for bit, a shorter
    # build is an exact prefix of a longer one, across the renormalisation
    # every _RENORM_STEPS entries too, and each entry is the product of its
    # ratios to round-off, far past where the entries leave the range of a
    # double. No RuntimeWarning may escape (the suite turns them into errors).
    a, c = 2.5, 1.3
    xs = (0.1 + 0.03j, 0j, -0.06 + 0.02j)
    rows = [lambda m, x=x: np.broadcast_to(x, m.shape) for x in xs] \
        + [lambda m: (a + 2 * m) * (a + 2 * m + 1) / ((c + m) * (m + 1))]
    stacked = lambda m: np.stack([row(m) for row in rows])
    length = 2 * hypergeo._RENORM_STEPS + 100
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        full = hypergeo._ratio_logseq(stacked, length)
        assert full.re.shape == full.im.shape == full.exp.shape == (4, length)
        assert (full.re[1, 0], full.im[1, 0], full.exp[1, 0]) == (0.5, 0.0, 1)
        assert not full.re[1, 1:].any() and not full.im[1, 1:].any()
        assert np.all(full.exp[1, 1:] == hypergeo._ZERO_EXP)
        for i, row in enumerate(rows):
            one = hypergeo._ratio_logseq(lambda m, row=row: row(m)[None], length)
            for got, want in zip(full, one):
                assert np.array_equal(got[i], want[0])
        for short in (1, 2, 32, 64, hypergeo._RENORM_STEPS + 1, hypergeo._RENORM_STEPS + 2):
            table = hypergeo._ratio_logseq(stacked, short)
            for got, want in zip(table, full):
                assert np.array_equal(got, want[:, :short])
    top = np.maximum(np.abs(full.re), np.abs(full.im))
    assert np.all((top[top > 0] >= 0.5) & (top[top > 0] < 1.0))
    assert full.exp[0, -1] < -1100 and full.exp[3, -1] > 1100  # past the range of a double
    # against the running product in Python, scaled by 2^-64 at each step so
    # it stays a normal double
    for row in (0, 2, 3):
        run, shift = 1 + 0j, 0
        for m, r in enumerate(rows[row](np.arange(length - 1)).tolist(), 1):
            run *= r
            while abs(run) < 2.0**-64:
                run, shift = run * 2.0**64, shift - 64
            while abs(run) > 2.0**64:
                run, shift = run * 2.0**-64, shift + 64
            got = complex(full.re[row, m], full.im[row, m]) * 2.0**(int(full.exp[row, m]) - shift)
            assert abs(got - run) <= 1e-13 * abs(run), (row, m)
    # the zero variable only adds zero terms
    with_zero = doubled_index_multisum(a, c, xs)
    without = doubled_index_multisum(a, c, (xs[0], xs[2]))
    assert with_zero.shells_used == without.shells_used
    assert repr(with_zero.value) == repr(without.value)


def test_tables_on_demand_cover_each_request_and_stop_at_the_cap(monkeypatch):
    # A front series builds its tables on demand: one that uses up its cap
    # doubles them from 32 entries, and never past the cap's shell.
    lengths = []
    ratio_logseq = hypergeo._ratio_logseq

    def spy(arg, length):
        lengths.append(length)
        return ratio_logseq(arg, length)

    monkeypatch.setattr(hypergeo, "_ratio_logseq", spy)
    cap = 100
    with pytest.raises(ConvergenceError, match=f"exhausted at total degree {cap} "):
        doubled_index_multisum(1.0, 1.0, (0.124, 0.124), TruncationPolicy(cap, 1e-13))
    assert lengths == [32, 64, cap + 1]


def test_series_tables_are_sized_by_the_shells_summed(monkeypatch):
    # A series that stops within 20 shells builds its tables once, to 64
    # entries at most, not to the degree cap.
    cases = (
        (hypergeo, "_ratio_logseq",
         lambda: appell_fa(1.7, (1.0, 1.0), (0.5, 1.0 / 3.0), (0.2 + 0.1j, -0.15 + 0.05j),
                           kernels.KERNEL_POLICY).shells_used),
        (kernels, "_powers_logseq",
         lambda: kernel_series_d2_nu((0.1 + 0.02j, 0.005, 0.02j)) and used[-1]),
    )
    used = []
    sum_shells = hypergeo._sum_shells

    def recorded(*args):
        sv = sum_shells(*args)
        used.append(sv.shells_used)
        return sv

    monkeypatch.setattr(kernels, "_sum_shells", recorded)
    for module, name, run in cases:
        lengths = []
        build = getattr(module, name)

        def spy(arg, length, build=build):
            lengths.append(length)
            return build(arg, length)

        monkeypatch.setattr(module, name, spy)
        assert run() <= 20, name
        assert len(lengths) == 1 and lengths[0] <= 64, (name, lengths)


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


@pytest.mark.parametrize("cap", (2.5, math.inf, math.nan), ids=str)
def test_policy_degree_cap_is_an_integer(cap):
    # a float cap failed deep in gauss_2f1_batch (2.5) or an ellipsoid
    # series (inf, nan), or let a d2 series run with no cap at all
    with pytest.raises(ValueError, match="integer"):
        TruncationPolicy(max_total_degree=cap)
