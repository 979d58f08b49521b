"""Tests for closed-form vs series kernel routes on d1, d2, and ellipsoids."""

import math
import os
import random
import subprocess
import sys
import threading

import numpy as np
import pytest

from bergkern import (ConvergenceError, DomainSpec, OperatorWeights, RegionError,
                      SingularityError, TruncationPolicy, diagonal_pair,
                      kernel_closed_d1, kernel_closed_d1_nu, kernel_closed_d2,
                      kernel_closed_d2_nu, kernel_series_d1, kernel_series_d1_nu,
                      kernel_series_d2, kernel_series_d2_nu, kernel_series_ellipsoid_nu,
                      norm_d1, norm_d2, potential_closed_d1, potential_series_d1,
                      sample_interior, sample_pairs)
from bergkern import hypergeo, kernels
from bergkern.kernels import _kernel_closed_d2_alternate

D2_SPOT = 2816.0 / (27.0 * math.pi**3)  # frozen from the Laurent-series oracle


def rel(x, y):
    return abs(x - y) / max(abs(y), 1e-300)


# --- coefficient identities ---------------------------------------------------

def shell_log_coef(table, row):
    """Log-coefficient of one exponent row in the one-shell block table of
    its degree."""
    deg = sum(row)
    block, log_coef = table(deg, deg + 1)
    return log_coef[np.flatnonzero((block.comps == row).all(axis=1))[0]]


def test_d1_coefficient_is_reciprocal_norm():
    # the (nu1+nu2)^q coefficient times the binomial q!/(a1! a2!) is the
    # coefficient of nu^alpha
    rng = random.Random(17)
    for _ in range(50):
        a1, a2, a3, a4 = alpha = tuple(rng.randrange(0, 8) for _ in range(4))
        p = rng.choice((0.5, 1.0, 2.0, 2.5))
        lam = rng.choice((1.0, 2.0, 3.0))
        q = a1 + a2
        lc = shell_log_coef(lambda lo, top: kernels._d1_block(p, lam, True, lo, top), (q, a3, a4))
        coeff = math.exp(lc) * (p / math.pi**4) * math.comb(q, a1)
        assert rel(coeff, 1.0 / norm_d1(alpha, p, lam)) < 1e-12


def test_d2_coefficient_is_reciprocal_norm():
    rng = random.Random(18)
    for _ in range(50):
        k = rng.randrange(0, 10)
        a2 = rng.randrange(0, 6)
        a3 = rng.randrange(0, 6)
        r = k + a2
        coeff = math.exp(shell_log_coef(kernels._d2_block, (r, a3))) \
            * math.comb(r, k) / math.pi**3
        assert rel(coeff, 1.0 / norm_d2((k - 2 - a2 - a3, a2, a3))) < 1e-12


# --- d1 potential --------------------------------------------------------------

def test_potential_at_zero_matches_series_head():
    for p, lam in ((1.0, 2.0), (2.0, 1.0), (2.5, 1.5)):
        closed = potential_closed_d1((0j, 0j, 0j, 0j), p, lam)
        assert rel(closed, 4.0 / p + 2.0 / lam + 1.0) < 1e-13
        series = potential_series_d1((0j, 0j, 0j, 0j), p, lam)
        assert rel(series.value, closed) < 1e-13


def test_potential_closed_matches_series_oracle():
    rng = random.Random(23)
    policy = TruncationPolicy(max_total_degree=400, tail_tol=1e-12)
    for _ in range(10):
        nu = tuple(complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
                   for _ in range(4))
        for p, lam in ((1.0, 2.0), (2.0, 2.0)):
            closed = potential_closed_d1(nu, p, lam)
            series = potential_series_d1(nu, p, lam, policy)
            assert rel(closed, series.value) < 1e-8


def test_potential_real_positive_on_diagonal():
    for z in sample_interior(DomainSpec.d1(1.0, 2.0), 29, 20, 0.1):
        nu = diagonal_pair(z).nu
        g = potential_closed_d1(nu, 1.0, 2.0)
        assert abs(g.imag) <= 1e-12 * abs(g)
        assert g.real > 0.0


def test_potential_gradient_vs_finite_differences():
    from bergkern import dual_var
    rng = random.Random(31)
    h = 1e-5
    for _ in range(100):
        nu = tuple(complex(rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04))
                   for _ in range(4))
        p = rng.choice((1.0, 2.0))
        lam = rng.choice((1.0, 2.0))
        g = potential_closed_d1(tuple(dual_var(v, j) for j, v in enumerate(nu)), p, lam)
        for j in range(4):
            up = list(nu)
            dn = list(nu)
            up[j] += h
            dn[j] -= h
            fd = (potential_closed_d1(tuple(up), p, lam)
                  - potential_closed_d1(tuple(dn), p, lam)) / (2 * h)
            assert rel(g.grad[j], fd) < 1e-6


def test_potential_region_errors():
    with pytest.raises(RegionError):
        potential_closed_d1((0j, 0j, 0.3 + 0j, 0j), 1.0, 2.0)
    with pytest.raises(RegionError):
        potential_closed_d1((0.9 + 0j, 0.9 + 0j, 0j, 0j), 1.0, 2.0)  # mu1+mu2 >= 1
    with pytest.raises(RegionError):
        potential_closed_d1((0j, 0j, 0j, 1.1 + 0j), 1.0, 1.0)  # mu4 >= 1


# --- d1 kernel routes ----------------------------------------------------------

def test_kernel_d1_at_zero_matches_head_coefficient():
    for p, lam in ((1.0, 2.0), (2.0, 1.0)):
        closed = kernel_closed_d1_nu((0j, 0j, 0j, 0j), p, lam)
        series = kernel_series_d1_nu((0j, 0j, 0j, 0j), p, lam)
        head = 1.0 / norm_d1((0, 0, 0, 0), p, lam)
        assert rel(closed.value, head) < 1e-13
        assert rel(series.value, head) < 1e-13
    # p=1, lam=2 head is 24/pi^4
    assert rel(kernel_series_d1_nu((0j,) * 4, 1.0, 2.0).value, 24.0 / math.pi**4) < 1e-13


def test_kernel_d1_routes_agree_on_sampled_pairs():
    for p, lam in ((1.0, 2.0), (2.0, 2.0)):
        pairs = sample_pairs(DomainSpec.d1(p, lam), 42, 10, 0.2)
        for pr in pairs:
            closed = kernel_closed_d1(pr, p, lam)
            series = kernel_series_d1(pr, p, lam)
            assert rel(closed.value, series.value) < 1e-6


def test_kernel_d1_alternate_weights_fail_route_agreement():
    nu = (0.04 + 0.01j, 0.03 + 0j, 0.02 - 0.02j, 0.05 + 0.02j)
    series = kernel_series_d1_nu(nu, 1.0, 2.0)
    good = kernel_closed_d1_nu(nu, 1.0, 2.0)
    bad = kernel_closed_d1_nu(nu, 1.0, 2.0, weights=OperatorWeights.alternate_d1(1.0, 2.0))
    assert rel(good.value, series.value) < 1e-10
    assert rel(bad.value, series.value) > 1e-2


def test_kernel_d1_hermitian_symmetry():
    pairs = sample_pairs(DomainSpec.d1(2.0, 1.0), 7, 10, 0.2)
    for pr in pairs:
        fwd = kernel_closed_d1(pr, 2.0, 1.0).value
        from bergkern import PointPair
        rev = kernel_closed_d1(PointPair(pr.zeta, pr.z), 2.0, 1.0).value
        assert abs(fwd - rev.conjugate()) <= 1e-12 * abs(fwd)


def test_kernel_d1_diagonal_positive():
    for z in sample_interior(DomainSpec.d1(1.0, 1.0), 13, 20, 0.1):
        k = kernel_closed_d1(diagonal_pair(z), 1.0, 1.0).value
        assert k.real > 0.0
        assert abs(k.imag) <= 1e-10 * abs(k)


def test_kernel_d1_nu3_continuity():
    rng = random.Random(37)
    for _ in range(20):
        base = tuple(complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
                     for _ in range(4))
        at0 = kernel_closed_d1_nu((base[0], base[1], 0j, base[3]), 1.0, 2.0).value
        near0 = kernel_closed_d1_nu((base[0], base[1], 1e-8 + 0j, base[3]), 1.0, 2.0).value
        assert rel(near0, at0) < 1e-6


def test_kernel_d1_series_thread_safe_on_fresh_parameters():
    # Four threads build the shell tables of each fresh (p, lam) at once; a
    # shared table grown by check-then-append would hand some of them shells
    # of the wrong degree. The serial values come from a separate process, so
    # they cannot read tables the threads built.
    params = [(1.05 + i / 61, 1.15 + i / 53) for i in range(30)]
    nus = [(0.03 * s + 0.01j, 0.02 * s, 0.01 * s - 0.01j, 0.05 * s) for s in (1, 2, 3, 4)]
    code = ("from bergkern import kernel_series_d1_nu\n"
            f"for p, lam in {params!r}:\n"
            f"    for nu in {nus!r}:\n"
            "        print(repr(kernel_series_d1_nu(nu, p, lam).value))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    serial = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=300).stdout.split()
    threaded = [None] * len(serial)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i, (p, lam) in enumerate(params):
            start = threading.Barrier(len(nus), timeout=60)

            def work(j, p=p, lam=lam, i=i, start=start):
                start.wait()
                threaded[i * len(nus) + j] = kernel_series_d1_nu(nus[j], p, lam).value

            threads = [threading.Thread(target=work, args=(j,)) for j in range(len(nus))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [repr(v) for v in threaded] == serial


def test_shell_table_cache_is_bounded():
    cache = kernels._d1_block
    size = cache.cache_info().maxsize
    for i in range(size + 1):
        kernel_series_d1_nu((0j,) * 4, 1.0 + i / size, 2.0)
    assert cache.cache_info().currsize <= size


# --- d2 kernel routes ----------------------------------------------------------

def test_kernel_d2_spot_value():
    closed = kernel_closed_d2_nu((0.25, 0.0, 0.0))
    series = kernel_series_d2_nu((0.25, 0.0, 0.0), TruncationPolicy(400, 1e-12))
    assert rel(closed.value, D2_SPOT) < 1e-13
    assert rel(series.value, D2_SPOT) < 1e-10
    # the shorter rational display disagrees with the series route
    assert rel(_kernel_closed_d2_alternate((0.25, 0.0, 0.0)), D2_SPOT) > 0.3


def test_kernel_d2_routes_agree_on_sampled_pairs():
    pairs = sample_pairs(DomainSpec.d2(), 42, 25, 0.2)
    for pr in pairs:
        closed = kernel_closed_d2(pr)
        series = kernel_series_d2(pr)
        assert rel(closed.value, series.value) < 1e-6


def test_kernel_d2_hermitian_and_positive():
    from bergkern import PointPair
    pairs = sample_pairs(DomainSpec.d2(), 3, 10, 0.2)
    for pr in pairs:
        fwd = kernel_closed_d2(pr).value
        rev = kernel_closed_d2(PointPair(pr.zeta, pr.z)).value
        assert abs(fwd - rev.conjugate()) <= 1e-12 * abs(fwd)
    for z in sample_interior(DomainSpec.d2(), 19, 20, 0.1):
        k = kernel_closed_d2(diagonal_pair(z)).value
        assert k.real > 0.0
        assert abs(k.imag) <= 1e-10 * abs(k)


def test_kernel_d2_guards():
    with pytest.raises(ValueError):
        kernel_closed_d2_nu((0.0, 0.1, 0.05))
    with pytest.raises(SingularityError):
        kernel_closed_d2_nu((0.25, 0.0, 0.25))     # nu1 == nu3
    with pytest.raises(SingularityError):
        kernel_closed_d2_nu((0.5, 0.25, 0.1))      # nu1 - nu1^2 - nu2 == 0
    with pytest.raises(ValueError):
        kernel_series_d2_nu((0.0, 0.1, 0.0))
    with pytest.raises(ConvergenceError):
        kernel_series_d2_nu((0.1, 0.2, 0.05))      # |nu1| + |nu2/nu1| >= 1


def test_kernel_d2_series_truncation_self_consistency():
    # halving the tolerance never moves the value by more than the reported tail
    nu = (0.2 + 0.02j, 0.01 - 0.01j, 0.03j)
    for tail_tol in (1e-6, 1e-8, 1e-10):
        loose = kernel_series_d2_nu(nu, TruncationPolicy(400, tail_tol))
        halved = kernel_series_d2_nu(nu, TruncationPolicy(400, tail_tol / 2))
        assert abs(loose.value - halved.value) <= max(loose.tail_estimate, 1e-300)


# --- ellipsoid -----------------------------------------------------------------

def test_ellipsoid_at_zero():
    got = kernel_series_ellipsoid_nu((0j, 0j), (1, 1)).value
    assert rel(got, 2.0 / math.pi**2) < 1e-13


def test_ellipsoid_unit_ball_collapse():
    rng = random.Random(41)
    for _ in range(25):
        nu = (complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)),
              complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)))
        if abs(nu[0]) + abs(nu[1]) >= 0.9:
            continue
        got = kernel_series_ellipsoid_nu(nu, (1, 1), TruncationPolicy(400, 1e-12)).value
        ref = (2.0 / math.pi**2) * (1 - nu[0] - nu[1]) ** -3
        assert rel(got, ref) < 1e-8


def test_ellipsoid_pairs_hermitian():
    from bergkern import PointPair
    spec = DomainSpec.ellipsoid((1.0, 2.0))
    for pr in sample_pairs(spec, 43, 10, 0.2):
        fwd = kernel_series_ellipsoid_nu(pr.nu, (1, 2)).value
        rev = kernel_series_ellipsoid_nu(PointPair(pr.zeta, pr.z).nu, (1, 2)).value
        assert abs(fwd - rev.conjugate()) <= 1e-10 * abs(fwd)


def test_ellipsoid_series_thread_safe_on_shared_block_cache():
    # Four threads build the shared composition blocks at once, from an empty
    # cache, on near-boundary inputs that need several blocks; every value
    # must equal the serial one exactly.
    cases = [((0.3 + 0.1j, 0.2 - 0.3j), (2, 3)),
             ((0.35 - 0.1j, 0.25 + 0.15j, -0.2 + 0.1j), (1, 1, 1)),
             ((0.6 + 0.1j, 0.3 - 0.2j), (1, 2)),
             ((0.45 - 0.2j, -0.4 + 0.1j, 0.2j), (1, 2, 1))]
    serial = [repr(kernel_series_ellipsoid_nu(nu, exps).value) for nu, exps in cases]
    hypergeo._block_cached.cache_clear()
    threaded = [None] * len(cases)
    start = threading.Barrier(len(cases), timeout=60)

    def work(j):
        start.wait()
        threaded[j] = repr(kernel_series_ellipsoid_nu(*cases[j]).value)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_ellipsoid_rejects_non_integer_exponents():
    with pytest.raises(ValueError):
        kernel_series_ellipsoid_nu((0.1, 0.1), (1.5, 1.0))
    with pytest.raises(RegionError):
        kernel_series_ellipsoid_nu((0.8, 0.3), (1, 1))


def test_operator_weights_validation():
    with pytest.raises(ValueError):
        OperatorWeights((0.0, 1.0, 1.0, 1.0), 1.0)
    w = OperatorWeights.for_d1(2.0, 1.0)
    assert w.weights == (0.5, 0.5, 1.0, 2.0)
    assert rel(w.prefactor, 2.0 / math.pi**4) < 1e-15
