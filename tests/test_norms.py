"""Tests for closed-form monomial norms against the quadrature oracle."""

import itertools
import math
import random
import threading

import pytest

from bergkern import (DomainSpec, QuadratureError, d1_exponents, norm_closed, norm_d1, norm_d2,
                      norm_quadrature, run_norm_suite)
from bergkern import norms

D2 = DomainSpec.d2()


def rel(x, y):
    return abs(x - y) / abs(y)


def test_theta_moment_closed_values():
    moment = norms._theta_moment.__wrapped__
    for (sin_exp, cos_exp), want in (((0, 0), math.pi / 2), ((1, 1), 0.5),
                                     ((2, 0), math.pi / 4)):
        assert rel(math.exp(moment(sin_exp, cos_exp)), want) < 1e-14


def log_beta_moment(sin_exp, cos_exp):
    # log of B((s+1)/2, (c+1)/2) / 2, the theta moment, by mpmath; as a log,
    # because some moments are below the smallest double
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.beta(mpmath.mpf(sin_exp + 1) / 2,
                                            mpmath.mpf(cos_exp + 1) / 2) / 2))


def test_theta_moment_against_mpmath_beta():
    for sin_exp, cos_exp in ((5, 1001), (41, 61), (7, 1e4), (1005, 1001), (2405, 801)):
        want = log_beta_moment(sin_exp, cos_exp)
        assert abs(norms._theta_moment.__wrapped__(sin_exp, cos_exp) - want) < 1e-12


@pytest.mark.parametrize("sin_exp, cos_exp", [(1e5, 3), (3, 1e5), (2e4, 2e4)])
def test_theta_moment_is_exact_where_an_end_of_the_integrand_is_flat(sin_exp, cos_exp):
    # The integrand peaks next to pi/2 (or 0), where sin (or cos) is near 1:
    # log sin there must not come from two logs that cancel. At (2e4, 2e4),
    # whose log is -13867.7, 1e-14 asks for the double nearest the exact log.
    want = log_beta_moment(sin_exp, cos_exp)
    assert abs(norms._theta_moment.__wrapped__(sin_exp, cos_exp) - want) < 1e-14


def test_theta_moment_refuses_a_step_past_the_finest(monkeypatch):
    # exponent sums up to 2^24 - 1 take the finest step, 2^-14, and one more
    # would need 2^-15: that raises before any node table is built
    sin_exp, cos_exp = 2.0**24 - 2, 1.0
    want = log_beta_moment(sin_exp, cos_exp)
    assert abs(norms._theta_moment.__wrapped__(sin_exp, cos_exp) - want) < 1e-8
    monkeypatch.setattr(norms, "_tanh_sinh_nodes", None)
    with pytest.raises(QuadratureError):
        norms._theta_moment.__wrapped__(sin_exp + 1, cos_exp)
    with pytest.raises(QuadratureError):
        norm_quadrature(D2, (10**12, 0, 0))


def test_norm_d2_direct_substitutions():
    assert rel(norm_d2((0, 0, 0)), math.pi**3 / 15.0) < 1e-14
    assert rel(norm_d2((-2, 0, 0)), math.pi**3 / 3.0) < 1e-14


def test_norm_d2_admissibility():
    with pytest.raises(ValueError):
        norm_d2((0, -1, 0))
    with pytest.raises(ValueError):
        norm_d2((-3, 0, 0))
    with pytest.raises(ValueError):
        norm_d2((0, 0))
    # one step below the Laurent edge both routes must refuse
    with pytest.raises(ValueError):
        norm_quadrature(D2, (-4, 1, 0))


def test_norm_d2_against_oracle_spot():
    for alpha in ((1, 1, 1), (-1, 2, 0), (-2, 0, 0), (4, 0, 3)):
        assert rel(norm_d2(alpha), norm_quadrature(D2, alpha)) < 1e-8


def test_norm_d2_oracle_grid():
    worst = 0.0
    for a2 in range(5):
        for a3 in range(5):
            for a1 in range(-2 - a2 - a3, 7):
                q = norm_quadrature(D2, (a1, a2, a3))
                worst = max(worst, rel(norm_d2((a1, a2, a3)), q))
                assert q > 0.0
    assert worst < 1e-8


def test_norm_d1_direct_substitution():
    assert rel(norm_d1((0, 0, 0, 0), 1.0, 2.0), math.pi**4 / 24.0) < 1e-14


def test_norms_at_exact_gamma_values():
    # lgamma(1) = lgamma(2) = 0 exactly, so every gamma of d2 (-2, 0, 0) cancels
    assert norm_d2((-2, 0, 0)) == math.pi**3 / 3
    # Gamma(1) Gamma(5) / Gamma(6) = 1/5
    assert rel(norm_d2((2, 0, 0)), math.pi**3 / 35) < 1e-14
    # s = 5/4: Gamma(3/2) / Gamma(5/2) = 2/3, at half-integer arguments
    assert rel(norm_d1((0, 0, 0, 0), 16.0, 8.0), math.pi**4 / 33) < 1e-14


def test_norm_d1_gamma_ratio_is_a_rising_product():
    # Gamma(x) / Gamma(x + n) = 1 / (x)_n with x = 2s - a3 - 1 and n = a3 + 1,
    # so at alpha = (0, 0, n-1, 0) the norm is pi^4 (n-1)! / ((x)_n p (s + 1/lam));
    # x = n + 4/p + 2/lam = n + 1, n + 0.5, n + 1e-3 and n + 2.25
    for p, lam, n in ((8.0, 4.0, 10), (16.0, 8.0, 20), (8000.0, 4000.0, 5), (4.0, 1.6, 40)):
        alpha = (0, 0, n - 1, 0)
        s, _ = d1_exponents(alpha, p, lam)
        rising = math.prod(2 * s - n + k for k in range(n))
        want = math.pi**4 * math.factorial(n - 1) / (rising * p * (s + 1 / lam))
        assert rel(norm_d1(alpha, p, lam), want) < 1e-13


def test_norm_gamma_arguments_stay_in_domain():
    # math.lgamma raises only at its poles (it returns a value at -1.5), so
    # the index and parameter checks keep every argument >= 1
    for bad in (0.0, -1.5):
        with pytest.raises(ValueError):
            norm_d1((0, 0, 0, 0), bad, 2.0)
        with pytest.raises(ValueError):
            norm_d1((0, 0, 0, 0), 1.0, bad)
    # on the d2 Laurent edge the smallest argument is exactly 1
    for a2, a3 in itertools.product(range(5), repeat=2):
        want = math.pi**3 / ((a2 + 1) * (a3 + 1) * (a2 + a3 + 3))
        assert rel(norm_d2((-2 - a2 - a3, a2, a3)), want) < 1e-14
    # as p and lam grow, s falls to 1 and 2s - 1 to 1
    s = 1.0 + 3e-6
    assert rel(norm_d1((0, 0, 0, 0), 1e6, 1e6),
               math.pi**4 / ((2 * s - 1) * 1e6 * (s + 1e-6))) < 1e-14


def test_norm_d1_admissibility():
    with pytest.raises(ValueError):
        norm_d1((-1, 0, 0, 0), 1.0, 2.0)
    with pytest.raises(ValueError):
        norm_d1((0, 0, 0), 1.0, 2.0)
    with pytest.raises(ValueError):
        norm_d1((0, 0, 0, 0), -1.0, 2.0)
    with pytest.raises(ValueError):
        norm_d1((0, 0, 0, 0), 1.0, math.inf)


def test_norm_d1_against_oracle_spot():
    spec = DomainSpec.d1(2.0, 2.0)
    assert rel(norm_d1((0, 0, 0, 0), 2.0, 2.0), norm_quadrature(spec, (0, 0, 0, 0))) < 1e-8


def test_norm_d1_oracle_grid():
    worst = 0.0
    for p, lam in itertools.product((0.5, 1.0, 2.0, 2.5), (1.0, 2.0, 3.0)):
        spec = DomainSpec.d1(p, lam)
        for alpha in itertools.product(range(0, 4), repeat=4):
            q = norm_quadrature(spec, alpha)
            worst = max(worst, rel(norm_d1(alpha, p, lam), q))
            assert q > 0.0
    assert worst < 1e-8


def test_norm_d1_decreases_in_alpha4():
    for p, lam in ((1.0, 2.0), (2.5, 1.0)):
        for base in itertools.product(range(0, 3), repeat=3):
            values = [norm_d1((*base, a4), p, lam) for a4 in range(5)]
            assert all(x > y for x, y in zip(values, values[1:]))


def test_norms_positive():
    assert norm_d2((-2, 3, 1)) > 0.0
    assert norm_d1((3, 1, 2, 0), 0.5, 3.0) > 0.0


def test_norm_closed_dispatch():
    assert norm_closed(D2, (0, 0, 0)) == norm_d2((0, 0, 0))
    spec = DomainSpec.d1(1.0, 2.0)
    assert norm_closed(spec, (0, 0, 0, 0)) == norm_d1((0, 0, 0, 0), 1.0, 2.0)
    with pytest.raises(ValueError):
        norm_closed(DomainSpec.ellipsoid((1.0, 1.0)), (0, 0))
    with pytest.raises(ValueError):
        norm_quadrature(DomainSpec.ellipsoid((1.0, 1.0)), (0, 0))


# --- the theta-moment cache ------------------------------------------------------

def test_each_distinct_theta_moment_is_integrated_once(monkeypatch):
    # each integration reads its node table once
    calls = []
    real = norms._tanh_sinh_nodes
    monkeypatch.setattr(norms, "_tanh_sinh_nodes",
                        lambda level: calls.append(level) or real(level))
    # d1 depends on alpha through (a1+a2, a3, a4) and on (p, lam) through the
    # cosine exponent only; d2 through (a1+a2+a3, a2); 3 pairs are shared
    for domains, expected in ((("d1",), 498), (("d2",), 75), (("d2", "d1"), 570)):
        norms._theta_moment.cache_clear()
        calls.clear()
        for domain in domains:
            run_norm_suite(domain)
        assert len(calls) == expected, domains
        assert norms._theta_moment.cache_info().currsize == expected


def _theta_exponents(spec, alpha):
    # the oracle's (sine, cosine) exponents, restated in the same float order
    if spec.kind == "d2":
        a1, a2, a3 = alpha
        return 2 * (a1 + a2 + a3) + 5, 2 * a2 + 1
    a1, a2, a3, a4 = alpha
    big_a = (2 * a1 + 2 * a2 + 4) / spec.p
    big_b = (2 * a4 + 2) / spec.lam
    return 2 * a3 + 1, 2 * big_a + 2 * a3 + 2 * big_b + 1


def test_cached_oracle_equals_a_fresh_quadrature(monkeypatch):
    # a key that rounded the exponents would hand one integrand another's value
    rng = random.Random(11)
    cases = [(D2, alpha) for alpha in ((-2, 0, 0), (1, 1, 1), (-5, 1, 2), (6, 4, 4))]
    cases += [(DomainSpec.d1(p, lam), tuple(rng.randrange(4) for _ in range(4)))
              for p, lam in ((0.5, 1.0), (2.5, 3.0), (0.7, 1.3), (1.0, 2.0))
              for _ in range(6)]
    # cosine exponents 1e-9 apart in relative terms, which a rounded key merges
    cases += [(DomainSpec.d1(0.7 * (1.0 + k * 1e-9), 1.3), (1, 2, 0, 3)) for k in range(3)]
    norms._theta_moment.cache_clear()
    for spec, alpha in cases:
        norm_quadrature(spec, alpha)  # fill the cache first
    seen = []
    cached = norms._theta_moment
    monkeypatch.setattr(norms, "_theta_moment",
                        lambda s, c: seen.append((s, c, cached(s, c))) or seen[-1][2])
    for spec, alpha in cases:
        norm_quadrature(spec, alpha)
    assert len(seen) == len(cases)
    for (spec, alpha), (s, c, value) in zip(cases, seen):
        sin_exp, cos_exp = _theta_exponents(spec, alpha)
        assert (s, c) == (sin_exp, cos_exp)
        assert repr(value) == repr(cached.__wrapped__(sin_exp, cos_exp))


def test_int_and_float_exponents_share_one_entry():
    # d2 (-5, 3, 0) and d1 (0, 0, 0, 0) at p = lam = 2 both integrate
    # sin^1 cos^7, d2 from int exponents and d1 from float ones
    norms._theta_moment.cache_clear()
    norm_quadrature(D2, (-5, 3, 0))
    norm_quadrature(DomainSpec.d1(2.0, 2.0), (0, 0, 0, 0))
    info = norms._theta_moment.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # and an int exponent integrates to the same bits as its float
    fresh = norms._theta_moment.__wrapped__
    for sin_exp, cos_exp in itertools.product((1, 5, 13, 21), (1, 7, 21)):
        assert repr(fresh(sin_exp, cos_exp)) == repr(fresh(float(sin_exp), float(cos_exp)))


def _report_json(report):
    report.wall_time_ms = 0
    return report.to_json()


def test_norm_report_does_not_depend_on_what_the_cache_holds():
    norms._theta_moment.cache_clear()
    cold = _report_json(run_norm_suite("d1"))
    norms._theta_moment.cache_clear()
    run_norm_suite("d2")
    assert _report_json(run_norm_suite("d1")) == cold


def test_threads_sharing_the_cache_get_the_serial_values():
    grid = [(DomainSpec.d1(p, lam), alpha)
            for p, lam in itertools.product((0.5, 1.0, 2.0, 2.5), (1.0, 2.0, 3.0))
            for alpha in itertools.product(range(4), repeat=4)]
    norms._theta_moment.cache_clear()
    serial = [norm_quadrature(spec, alpha) for spec, alpha in grid]
    norms._theta_moment.cache_clear()
    results = [None] * 4
    barrier = threading.Barrier(4)

    def work(k):
        barrier.wait()
        results[k] = [norm_quadrature(spec, alpha) for spec, alpha in grid]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(list(map(repr, r)) == list(map(repr, serial)) for r in results)


def test_quadrature_raises_where_the_theta_integrand_underflows():
    # the oracle norm is below the smallest double, never a value to compare
    # with the closed norm
    with pytest.raises(QuadratureError):
        norm_quadrature(D2, (400, 400, 400))


def test_deep_norm_grids_pass():
    # tiny theta moments keep their relative accuracy
    for domain, max_index in (("d2", 12), ("d1", 5)):
        report = run_norm_suite(domain, max_index=max_index)
        assert report.rows and all(row.passed for row in report.rows), domain


def test_every_norm_row_can_fail(monkeypatch):
    # an oracle that integrates cos^(c+1) in place of cos^c fails every row
    real = norms._theta_moment
    monkeypatch.setattr(norms, "_theta_moment", lambda s, c: real(s, c + 1.0))
    report = run_norm_suite("d2")
    assert report.rows and not any(row.passed for row in report.rows)


def test_a_fractional_index_is_refused_not_truncated():
    # int() would read 0.9 as 0 and 1.5 as 1; norm_d1 gave a value of
    # neither index, its log-gammas at the truncated index and its exponents
    # at the raw one
    for call in (lambda: norm_d2((0.9, 0, 0)), lambda: norm_d1((1.5, 0, 0, 0), 1.0, 2.0),
                 lambda: norm_quadrature(DomainSpec.d2(), (0.7, 0.2, 0)),
                 lambda: norm_quadrature(DomainSpec.d1(1.0, 2.0), (0, 0, 2.5, 0)),
                 lambda: norm_d2((math.inf, 0, 0)), lambda: norm_d1((0, math.nan, 0, 0), 1, 2)):
        with pytest.raises(ValueError, match="integer"):
            call()
    # an integral float is its integer
    assert norm_d2((1.0, 0.0, 2.0)) == norm_d2((1, 0, 2))
    assert norm_d1((1.0, 2, 0.0, 1), 1.0, 2.0) == norm_d1((1, 2, 0, 1), 1.0, 2.0)
