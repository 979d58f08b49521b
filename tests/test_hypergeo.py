"""Tests for the series evaluators, closed 2F1 forms, and identity checks."""

import cmath
import math
import random
import re

import numpy as np
import pytest

from bergkern import (BranchError, ConvergenceError, PoleError, TruncationPolicy,
                      appell_fa, closed_2f1_family, closed_2f1_recurrence,
                      doubled_index_multisum, fa_decomposition_rhs, fa_equal_params_closed,
                      gauss_2f1, kernel_series_d1_nu, kernel_series_d2_nu,
                      kernel_series_ellipsoid_nu, recurrence_coefficients)
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
    # reference: the earlier gauss_2f1, called back once per term, each call
    # returning a 1-tuple
    z = complex(z)
    term = 1.0 + 0j

    def shell(deg):
        nonlocal term
        if deg > 0:
            term = term * ((a + deg - 1) * (b + deg - 1)) / ((c + deg - 1) * deg) * z
        return (term,)

    return hypergeo._sum_shells(shell, policy, "gauss_2f1")


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
    return cases + [(1.0, 1.0, 1.0, 0.95), (0.5, 0.5, 1.5, -0.95j)]


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
    for case in ((1.0, 1.0, -2.0, 0.5), (1.0, 1.0, 2.0, 1.0), (1.0, 1.0, 2.0, 0.6 + 0.8j),
                 (1.0, 1.0, 1e-20, 0.5)):  # (1e-20 + 1) - 1 rounds to a pole
        with pytest.raises(Exception) as scalar:
            gauss_2f1(*case)
        batch_args = [np.array([0.5, v, v]) for v in case[:3]] + [np.array([0.1, case[3], 0.99j])]
        with pytest.raises(scalar.type, match=re.escape(str(scalar.value))):
            hypergeo.gauss_2f1_batch(*batch_args)


@pytest.mark.parametrize("c, deg", ((1e-20, 1), (-1.0 + 2.0**-53, 2)), ids=["1e-20", "-1+2^-53"])
def test_gauss_2f1_lower_parameter_rounding_to_a_pole_is_a_pole_error(c, deg):
    # c + deg - 1 rounds to 0.0, so the degree-deg term would divide by zero:
    # the scalar and the batch raise the same PoleError, not ZeroDivisionError
    assert c + deg - 1 == 0.0 and c != round(c)
    with pytest.raises(PoleError, match=f"rounds to a pole, .* at degree {deg}$") as scalar:
        gauss_2f1(1.0, 1.0, c, 0.5)
    with pytest.raises(PoleError) as batch:
        hypergeo.gauss_2f1_batch(1.0, 1.0, np.array([0.5, c, 2.0]), 0.5)
    assert str(batch.value) == str(scalar.value)


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
    # raises at degree 5, and inner is called for degrees 0-5 only, although
    # the block it gathers runs further.
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
    fa_decomposition_rhs(1.2, 0.7, 1.4, (0.2, 0.3))
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


# Near-boundary cases: the 3-variable sums pass the first block of the default
# row budget (degrees 0-27), the d1, d2 and ellipsoid kernel series span
# several blocks, and the last case raises ConvergenceError after several blocks.
_NEAR_D1 = (0.35 + 0.05j, 0.25, 0.12 - 0.05j, 0.5 + 0.1j)
_BLOCK_CASES = (
    lambda: appell_fa(1.5, (0.7, 1.3), (1.1, 0.6), (0.6 + 0.3j, -0.2 + 0.1j)),
    lambda: appell_fa(1.5, (0.7, 1.3, 0.9), (1.1, 0.6, 2.0),
                      (0.4 + 0.3j, -0.25 + 0.1j, 0.1 - 0.2j)),
    lambda: doubled_index_multisum(2.5, 1.3, (0.1 + 0.03j, -0.06 + 0.02j, 0.05 - 0.05j)),
    lambda: kernel_series_d2_nu((0.6 + 0.05j, 0.15 - 0.02j, 0.3 + 0.1j)),
    lambda: kernel_series_ellipsoid_nu((cmath.rect(0.85, 0.3), cmath.rect(0.5, -0.7)), (2, 3)),
    lambda: kernel_series_ellipsoid_nu((0.45 - 0.2j, -0.4 + 0.1j, 0.2j), (1, 2, 1)),
    lambda: kernel_series_d1_nu(_NEAR_D1, 1.0, 2.0),
    lambda: kernel_series_d1_nu(_NEAR_D1, 1.0, 2.0, TruncationPolicy(120, 1e-10)),
)


def _clear_block_caches():
    for cache in (hypergeo._block_cached, kernels._d1_block, kernels._d2_block,
                  kernels._ellipsoid_block):
        cache.cache_clear()


# Past the deepest block a case asks for: the (2,3) ellipsoid's scaled cap of
# 3000 degrees plus one block.
_FULL_TABLE_LENGTH = 4000


def _full_length_tables(build, arg):
    # every table built to one fixed length up front, as before demand sizing
    table = build(arg, _FULL_TABLE_LENGTH)
    return lambda hi: table


# Block and table settings that must all give the same shells: the defaults
# (degree- and row-bounded blocks, tables built on demand), one shell per
# block by rows and by degrees, blocks bounded by rows alone, and full-length
# tables.
_BLOCK_SETTINGS = {
    "default": (),
    "rows-1": ((hypergeo, "_BLOCK_ROWS", 1),),
    "degrees-1": ((hypergeo, "_BLOCK_DEGREES", 1),),
    "degrees-400": ((hypergeo, "_BLOCK_DEGREES", 400),),
    "full-tables": ((hypergeo, "_tables_on_demand", _full_length_tables),
                    (kernels, "_tables_on_demand", _full_length_tables)),
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


def test_row_ceiling_bounds_each_series_by_its_variables():
    ceiling = hypergeo._MAX_SERIES_ROWS
    assert ceiling == math.comb(403, 3)
    assert hypergeo._last_degree(3, ceiling) == 400
    for nvars in (1, 2, 3, 4):
        last = hypergeo._last_degree(nvars, ceiling)
        assert math.comb(last + nvars, nvars) <= ceiling < math.comb(last + 1 + nvars, nvars)
    # a 3-variable block ends at degree 400; one past it raises
    assert hypergeo._shell_block(3, 400).hi == 401
    with pytest.raises(ConvergenceError, match="past degree 400"):
        hypergeo._shell_block(3, 401)
    # 2 variables reach far beyond the 1000-degree kernel cap
    block = hypergeo._shell_block(2, 900)
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
    monkeypatch.setattr(hypergeo, "_block_cached", recorded)
    try:
        with pytest.raises(ConvergenceError, match="past degree 20"):
            kernel_series_d1_nu(_NEAR_D1, 1.0, 2.0, wide)
        assert max(his) == 21
        with pytest.raises(ConvergenceError):
            kernel_series_d1_nu(_NEAR_D1, 1.0, 2.0, TruncationPolicy(20, 1e-10))
        near_zero = (0.01, 0.02j, 0.005, -0.01)
        kernels._d1_block.cache_clear()
        assert repr(kernel_series_d1_nu(near_zero, 1.0, 2.0, wide).value) \
            == repr(kernel_series_d1_nu(near_zero, 1.0, 2.0, TruncationPolicy(20, 1e-10)).value)
    finally:
        monkeypatch.undo()
        _clear_block_caches()


def test_ellipsoid_rows_count_against_the_row_ceiling(monkeypatch):
    # Under a ceiling of C(23, 3) = 1771 rows a (2,2,2) ellipsoid, a series
    # of 3 variables, stops at degree 20, and its cached blocks hold exactly
    # the rows through degree 20. A 4-variable ellipsoid, which stops at
    # degree 11, caches no block.
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
        held = kernels._ellipsoid_block.cache_info().currsize
        assert held == len(gathered) > 1
        assert hypergeo._block_cached.cache_info().currsize == held
        gathered.clear()
        with pytest.raises(ConvergenceError, match="4 variables would reach past degree 11"):
            kernel_series_ellipsoid_nu((0.45, 0.45j, -0.45, 0.45), (2, 2, 2, 2))
        assert sum(gathered) == math.comb(15, 4)
        assert kernels._ellipsoid_block.cache_info().currsize == held
        assert hypergeo._block_cached.cache_info().currsize == held
    finally:
        monkeypatch.undo()
        _clear_block_caches()


def _ratio_logseq_1d(ratio_fn, length):
    # one sequence per call, as built before sequences were stacked in rows
    r = np.asarray(ratio_fn(np.arange(length - 1)), dtype=complex)
    mag = np.abs(r)
    logmag = np.zeros(length)
    phase = np.ones(length, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.cumsum(np.log(mag), out=logmag[1:])
        np.cumprod(np.where(mag > 0.0, r / mag, 1.0), out=phase[1:])
    return logmag, phase


def test_stacked_ratio_logseq_rows_match_one_sequence_builds():
    # The doubled-index sequences with one x_i = 0 (a zero ratio): every row
    # of the one stacked build equals its own 1-D build bit for bit, and a
    # shorter build is an exact prefix of a longer one. No RuntimeWarning
    # may escape (the suite turns them into errors).
    a, c = 2.5, 1.3
    xs = (0.1 + 0.03j, 0j, -0.06 + 0.02j)
    rows = [lambda m, x=x: x / (m + 1) for x in xs] \
        + [lambda m: (a + 2 * m) * (a + 2 * m + 1) / (c + m)]
    stacked = lambda m: np.vstack([row(m) for row in rows])
    full = hypergeo._ratio_logseq(stacked, 401)
    assert full.logmag.shape == full.phase.shape == (4, 401)
    assert full.logmag[1, 0] == 0.0 and np.all(full.logmag[1, 1:] == -np.inf)
    for i, row in enumerate(rows):
        logmag, phase = _ratio_logseq_1d(row, 401)
        assert np.array_equal(full.logmag[i], logmag)
        assert np.array_equal(full.phase[i], phase)
    for length in (1, 2, 32, 64):
        short = hypergeo._ratio_logseq(stacked, length)
        assert np.array_equal(short.logmag, full.logmag[:, :length])
        assert np.array_equal(short.phase, full.phase[:, :length])
    # the zero variable only adds zero terms
    with_zero = doubled_index_multisum(a, c, xs)
    without = doubled_index_multisum(a, c, (xs[0], xs[2]))
    assert with_zero.shells_used == without.shells_used
    assert repr(with_zero.value) == repr(without.value)


def test_tables_on_demand_cover_each_request_and_stop_at_the_cap(monkeypatch):
    # First build to the first request; then at double length, or at the
    # request if that is longer: each build is at most max(hi, 2 * previous).
    built = []

    def build(ratio_fn, length):
        built.append(length)
        return hypergeo._ratio_logseq(ratio_fn, length)

    tables = hypergeo._tables_on_demand(build, lambda m: np.vstack((m + 1.0, m - 2.0)))
    for hi in (5, 3, 6, 10, 30, 61, 100):
        n = len(built)
        assert tables(hi).logmag.shape == (2, built[-1]) and built[-1] >= hi
        if len(built) > n > 0:
            assert built[-1] <= max(hi, 2 * built[-2])
    assert built == [5, 10, 30, 61, 122]
    # With no cap of their own, the tables of a series that uses up its cap
    # stay within twice its last block.
    lengths = []
    ratio_logseq = hypergeo._ratio_logseq

    def spy(arg, length):
        lengths.append(length)
        return ratio_logseq(arg, length)

    monkeypatch.setattr(hypergeo, "_ratio_logseq", spy)
    cap = 100
    with pytest.raises(ConvergenceError, match=f"exhausted at total degree {cap} "):
        doubled_index_multisum(1.0, 1.0, (0.124, 0.124), TruncationPolicy(cap, 1e-13))
    assert lengths and max(lengths) < 2 * (cap + 1 + hypergeo._BLOCK_DEGREES)


def test_series_tables_are_sized_by_the_shells_summed(monkeypatch):
    # A series that stops within 20 shells builds its tables once, to its
    # first block's span, not to the degree cap.
    cases = (
        (hypergeo, "_ratio_logseq",
         lambda: appell_fa(1.7, (1.0, 1.0), (0.5, 1.0 / 3.0), (0.2 + 0.1j, -0.15 + 0.05j),
                           kernels.KERNEL_POLICY)),
        (kernels, "_powers_logseq",
         lambda: kernel_series_d2_nu((0.1 + 0.02j, 0.005, 0.02j))),
    )
    used = []
    sum_shells = hypergeo._sum_shells

    def recorded(*args):
        sv = sum_shells(*args)
        used.append(sv.shells_used)
        return sv

    for module in (hypergeo, kernels):
        monkeypatch.setattr(module, "_sum_shells", recorded)
    for module, name, run in cases:
        lengths = []
        build = getattr(module, name)

        def spy(arg, length, build=build):
            lengths.append(length)
            return build(arg, length)

        used.clear()
        monkeypatch.setattr(module, name, spy)
        run()
        assert len(used) == 1 and used[0] <= 20, name
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
