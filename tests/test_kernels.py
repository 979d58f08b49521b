"""Tests for closed-form vs series kernel routes on d1, d2, and ellipsoids."""

import cmath
import collections
import gc
import inspect
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import weakref
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

import bergkern
from bergkern import (ConvergenceError, DomainSpec, DualComplex, PointPair, RegionError,
                      SingularityError, TruncationPolicy, diagonal_pair,
                      kernel_closed_d1, kernel_closed_d1_nu, kernel_closed_d2,
                      kernel_closed_d2_nu, kernel_series_d1, kernel_series_d1_nu,
                      kernel_series_d2, kernel_series_d2_nu, kernel_series_ellipsoid_nu,
                      norm_d1, norm_d2, potential_closed_d1, sample_interior, sample_pairs)
from bergkern import hypergeo, kernels, log_gamma_array, suites
from bergkern.cli import main
from bergkern.kernels import _kernel_closed_d1_alternate, _kernel_closed_d2_alternate

D2_SPOT = 2816.0 / (27.0 * math.pi**3)  # frozen from the Laurent-series oracle


def rel(x, y):
    return abs(x - y) / max(abs(y), 1e-300)


# --- coefficient identities ---------------------------------------------------

def with_blocks(coefficients, nvars):
    """The (block, log_coef) pairs of a coefficient sequence: each block of
    _blocks(nvars) with the log-coefficients at the same place."""
    return zip(hypergeo._blocks(nvars), coefficients)


def block_holding(coefficients, nvars, deg):
    """The block of _blocks(nvars) that holds shell deg, and its
    log-coefficients in the sequence coefficients."""
    return next(item for item in with_blocks(coefficients, nvars)
                if item[0].lo <= deg < item[0].hi)


def shell_log_coef(coefficients, row):
    """Log-coefficient of one exponent row, from the block of the
    coefficient sequence that holds its degree."""
    block, log_coef = block_holding(coefficients, len(row), sum(row))
    return log_coef[np.flatnonzero((block.comps == row).all(axis=1))[0]]


def held_bytes(store):
    """The bytes a store of held sequences counts."""
    return sum(seq.nbytes for seq in store._held.values())


def d1_coefficients(p, lam):
    return kernels._coefficients(kernels._d1_block, 3, p, lam)


def test_d1_coefficient_is_reciprocal_norm():
    # the (nu1+nu2)^q coefficient times the binomial q!/(a1! a2!) is the
    # coefficient of nu^alpha
    rng = random.Random(17)
    for _ in range(50):
        a1, a2, a3, a4 = alpha = tuple(rng.randrange(0, 8) for _ in range(4))
        p = rng.choice((0.5, 1.0, 2.0, 2.5))
        lam = rng.choice((1.0, 2.0, 3.0))
        q = a1 + a2
        lc = shell_log_coef(d1_coefficients(p, lam), (q, a3, a4))
        coeff = math.exp(lc) * (p / math.pi**4) * math.comb(q, a1)
        assert rel(coeff, 1.0 / norm_d1(alpha, p, lam)) < 1e-12


def test_d1_coefficient_is_reciprocal_norm_deep_in_table():
    # Degrees 100-400 lie past the first block: from degree 90 on, every shell
    # is a block of its own. Each row is built along a3 from the shells below
    # it, so the first request of a set builds its table from degree 0, and
    # the sequences are cleared to hold one set's tables at a time. The
    # tolerance scales with the size of the log-gamma terms, which reach 1e4
    # here, so a wrong factor in one step still fails.
    eps = np.finfo(float).eps
    rng = random.Random(19)
    for p in (0.5, 2.5):
        for lam in (1.0, 3.0):
            for deg in rng.sample(range(100, 401), 4):
                block, log_coef = block_holding(d1_coefficients(p, lam), 3, deg)
                assert (block.lo, block.hi) == (deg, deg + 1)
                for _ in range(4):
                    i = rng.randrange(len(log_coef))
                    q, a3, a4 = (int(v) for v in block.comps[i])
                    a1 = rng.randint(0, q)
                    alpha = (a1, q - a1, a3, a4)
                    s = (q + 2) / p + a3 + (a4 + 1) / lam + 1.0
                    terms = (2 * s, 2 * s - a3 - 1.0, a3 + 1.0, a1 + 1.0, q - a1 + 1.0, q + 2.0)
                    tol = 64 * eps * sum(abs(math.lgamma(t)) for t in terms)
                    err = log_coef[i] + math.log(p / math.pi**4 * math.comb(q, a1)) \
                        + math.log(norm_d1(alpha, p, lam))
                    assert abs(err) < tol, (p, lam, alpha, err, tol)
            kernels._coefficients.cache_clear()
    hypergeo._blocks.cache_clear()


def d1_engine_rows(p, lam, top):
    """The log-coefficients of every d1 row through degree top, shell after
    shell, from the blocks the series engine reads, in its order."""
    tables = [log_coef for block, log_coef in
              itertools.takewhile(lambda item: item[0].lo <= top,
                                  with_blocks(d1_coefficients(p, lam), 3))]
    return np.concatenate(tables)[:math.comb(top + 3, 3)]


def d1_row_start(deg):
    """The index of the first row of shell deg in d1_engine_rows: the number
    of rows (q, a3, a4) of lower degree."""
    return math.comb(deg + 2, 3)


# (p, lam, deepest degree checked): the 12 sets of the norm grid, and two
# small p, at which a difference of two log-gammas cancels
_D1_ACCURACY_SETS = [(p, lam, 150) for p in (0.5, 1.0, 2.0, 2.5) for lam in (1.0, 2.0, 3.0)] \
    + [(0.01, 1.0, 300), (0.005, 2.0, 300)]


def test_d1_log_coefficients_against_mpmath():
    # Each row is its predecessor along a3 plus one log, so a deep row sums
    # hundreds of logs. Against mpmath's loggamma at 40 digits, no set may do
    # worse than the direct difference log Gamma(2s) - log Gamma(2s-a3-1) by
    # log_gamma_array at the same rows, which cancels at small p.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(23)
    for p, lam, top in _D1_ACCURACY_SETS:
        rows = d1_engine_rows(p, lam, top)
        kernels._coefficients.cache_clear()
        picked = []
        for deg in [top] + rng.sample(range(top), 9):
            block = next(b for b in hypergeo._blocks(3) if b.lo <= deg < b.hi)
            first, size = block.starts[deg - block.lo], block.sizes[deg - block.lo]
            for j in rng.sample(range(size), min(3, size)):
                picked.append((block.comps[first + j], rows[d1_row_start(deg) + j]))
        q, a3, a4 = np.array([comp for comp, _ in picked], dtype=float).T
        w = (a4 + 1.0) / lam
        s = (q + 2.0) / p + a3 + w + 1.0
        stirling = np.log(q + 1.0) + np.log(a4 + 1.0) + log_gamma_array(2.0 * s) \
            - log_gamma_array(2.0 * s - a3 - 1.0) - log_gamma_array(a3 + 1.0) + np.log(s + w)
        new_err = old_err = 0.0
        with mpmath.workdps(40):
            for (comp, got), old in zip(picked, stirling):
                cq, ca3, ca4 = (int(v) for v in comp)
                cw = (ca4 + 1) / mpmath.mpf(lam)
                cs = (cq + 2) / mpmath.mpf(p) + ca3 + cw + 1
                exact = mpmath.log((cq + 1) * (ca4 + 1)) + mpmath.loggamma(2 * cs) \
                    - mpmath.loggamma(2 * cs - ca3 - 1) - mpmath.loggamma(ca3 + 1) \
                    + mpmath.log(cs + cw)
                new_err = max(new_err, float(abs(got - exact)))
                old_err = max(old_err, float(abs(old - exact)))
        assert new_err <= old_err, (p, lam, new_err, old_err)
    hypergeo._blocks.cache_clear()


def test_d1_blocks_do_not_depend_on_layout_or_request_order(monkeypatch):
    # Under another block layout, after the sequences are cleared, and with
    # the blocks asked for by index out of order (each request builds the
    # blocks below it first), every block holds the rows of the engine's
    # blocks bit for bit: each row is the same sum of logs, built from the
    # shell below it.
    top = 120
    layouts = ((), (("_BLOCK_ROWS", 1),), (("_BLOCK_DEGREES", 1),),
               (("_BLOCK_ROWS", 100000), ("_BLOCK_DEGREES", 400)))
    try:
        for p, lam in ((0.5, 3.0), (2.0, 1.0)):
            kernels._coefficients.cache_clear()
            ref = d1_engine_rows(p, lam, top)
            for patches in layouts:
                with monkeypatch.context() as mp:
                    for attr, value in patches:
                        mp.setattr(hypergeo, attr, value)
                    hypergeo._blocks.cache_clear()
                    kernels._coefficients.cache_clear()
                    count = sum(1 for _ in itertools.takewhile(lambda b: b.lo <= top,
                                                               hypergeo._blocks(3)))
                    assert count > 1, patches
                    blocks = d1_coefficients(p, lam)
                    for i in (count // 2, count - 1, 0, count // 4, 1):
                        block, log_coef = hypergeo._blocks(3).get(i), blocks.get(i)
                        want = ref[d1_row_start(block.lo):d1_row_start(min(block.hi, top + 1))]
                        assert log_coef[:len(want)].tobytes() == want.tobytes(), (patches, i)
                    kernels._coefficients.cache_clear()
                    assert d1_engine_rows(p, lam, top).tobytes() == ref.tobytes(), patches
    finally:
        hypergeo._blocks.cache_clear()
        kernels._coefficients.cache_clear()


def test_d1_series_builds_its_tables_without_log_gamma(monkeypatch):
    calls = []

    def spy(x):
        calls.append(len(x))
        return log_gamma_array(x)

    monkeypatch.setattr(kernels, "log_gamma_array", spy)
    kernels._coefficients.cache_clear()
    nu = (0.2 + 0.1j, -0.15, 0.08j, 0.5)  # deep enough for several blocks
    kernel_series_d1_nu(nu, 1.3, 2.2)
    assert len(d1_coefficients(1.3, 2.2)._items) > 2 and not calls
    # the spy sees the ellipsoid tables, which are still built from log-gammas
    kernel_series_ellipsoid_nu((0.1, 0.2j), (2, 3.25))
    assert calls
    kernels._coefficients.cache_clear()


def test_d2_coefficient_is_reciprocal_norm():
    rng = random.Random(18)
    for _ in range(50):
        k = rng.randrange(0, 10)
        a2 = rng.randrange(0, 6)
        a3 = rng.randrange(0, 6)
        r = k + a2
        coeff = math.exp(shell_log_coef(kernels._coefficients(kernels._d2_block, 2), (r, a3))) \
            * math.comb(r, k) / math.pi**3
        assert rel(coeff, 1.0 / norm_d2((k - 2 - a2 - a3, a2, a3))) < 1e-12


def ellipsoid_log_norm(alpha, ps):
    """log ||z^alpha||^2 on {sum |z_j|^(2 p_j) < 1}, that is
    log(pi^n prod_j Gamma(c_j) / (prod_j p_j Gamma(1 + sum_j c_j))) with
    c_j = (alpha_j + 1)/p_j, and the log-gamma terms it sums."""
    c = [(a + 1) / p for a, p in zip(alpha, ps)]
    terms = [math.lgamma(1 + sum(c))] + [math.lgamma(x) for x in c]
    return len(ps) * math.log(math.pi) - math.log(math.prod(ps)) - terms[0] + sum(terms[1:]), terms


@pytest.mark.parametrize("ps", ((2, 3), (1, 2), (3, 3), (2, 2, 2), (1, 1, 1), (1, 2, 1),
                                (1.5, 2.5), (0.5, 1 / 3)), ids=str)
def test_ellipsoid_coefficient_is_reciprocal_norm(ps):
    # The unit-exponent coordinates fold into one variable t = sum nu_j, the
    # first one: the t^q coefficient times the multinomial q!/prod alpha_j!
    # is the coefficient of nu^alpha, which is prod p_j / pi^n over the norm.
    # Each row is looked up in the block that holds its total degree. The
    # tolerance scales with the log-gamma terms, as for d1 deep in its table.
    eps = np.finfo(float).eps
    ones = ps.count(1)
    folded = ((1,) if ones else ()) + tuple(p for p in ps if p != 1)
    blocks = kernels._coefficients(kernels._ellipsoid_block, len(folded), folded, ones)
    rng = random.Random(20)
    for _ in range(100):
        alpha = tuple(rng.randrange(0, math.ceil(40 * p)) for p in ps)
        unit = [a for a, p in zip(alpha, ps) if p == 1]
        row = ((sum(unit),) if ones else ()) + tuple(a for a, p in zip(alpha, ps) if p != 1)
        block, log_coef = block_holding(blocks, len(folded), sum(row))
        [i] = np.flatnonzero((block.comps == row).all(axis=1))
        log_multinomial = math.lgamma(sum(unit) + 1) - sum(math.lgamma(a + 1) for a in unit)
        log_norm, terms = ellipsoid_log_norm(alpha, ps)
        err = log_coef[i] + math.log(math.prod(ps) / math.pi**len(ps)) + log_multinomial \
            + log_norm
        tol = 64 * eps * (sum(abs(t) for t in terms) + abs(log_multinomial))
        assert abs(err) < tol, (alpha, err, tol)


# --- d1 potential --------------------------------------------------------------

def potential_reference(p, lam, top=40):
    """The closed d1 potential's series, summed to total degree top from
    coefficients by math.lgamma, with neither the kernel series' recurrence
    nor its engine: a function of nu summing
    (q+1)(a4+1) Gamma(2s) / (Gamma(2s-a3-1) a3!) (nu1+nu2)^q nu3^a3 nu4^a4
    over q + a3 + a4 <= top, with s = (q+2)/p + a3 + (a4+1)/lam + 1."""
    rows = np.array([row for row in itertools.product(range(top + 1), repeat=3)
                     if sum(row) <= top])
    coef = np.array([math.log((q + 1) * (a4 + 1)) + math.lgamma(2 * s) - math.lgamma(2 * s - a3 - 1)
                     - math.lgamma(a3 + 1)
                     for q, a3, a4 in rows.tolist()
                     for s in [(q + 2) / p + a3 + (a4 + 1) / lam + 1]])

    def potential(nu):
        x = np.array([nu[0] + nu[1], nu[2], nu[3]], dtype=complex)
        return complex(np.sum(np.exp(coef) * np.prod(x ** rows, axis=1)))
    return potential


def test_potential_at_zero_matches_series_head():
    for p, lam in ((1.0, 2.0), (2.0, 1.0), (2.5, 1.5)):
        closed = potential_closed_d1((0j, 0j, 0j, 0j), p, lam)
        assert rel(closed, 4.0 / p + 2.0 / lam + 1.0) < 1e-13
        assert rel(potential_reference(p, lam, top=2)((0j, 0j, 0j, 0j)), closed) < 1e-13


def test_potential_closed_matches_series_oracle():
    # the test's own series shares neither the d1 recurrence nor the series
    # engine with any route
    rng = random.Random(23)
    nus = [tuple(complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)) for _ in range(4))
           for _ in range(10)]
    for p, lam in ((1.0, 2.0), (2.0, 2.0)):
        series = potential_reference(p, lam)
        for nu in nus:
            assert rel(potential_closed_d1(nu, p, lam), series(nu)) < 1e-12


def test_potential_real_positive_on_diagonal():
    for z in sample_interior(DomainSpec.d1(1.0, 2.0), 29, 20, 0.1):
        nu = diagonal_pair(z).nu
        g = potential_closed_d1(nu, 1.0, 2.0)
        assert abs(g.imag) <= 1e-12 * abs(g)
        assert g.real > 0.0


def unit_tangent(nu, slot):
    """Dual inputs whose derivative is the partial d/dnu_slot."""
    return tuple(DualComplex(v, 1 + 0j if k == slot else 0j) for k, v in enumerate(nu))


def test_potential_gradient_vs_finite_differences():
    rng = random.Random(31)
    h = 1e-5
    for _ in range(100):
        nu = tuple(complex(rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04))
                   for _ in range(4))
        p = rng.choice((1.0, 2.0))
        lam = rng.choice((1.0, 2.0))
        for j in range(4):
            slope = potential_closed_d1(unit_tangent(nu, j), p, lam).der
            up = list(nu)
            dn = list(nu)
            up[j] += h
            dn[j] -= h
            fd = (potential_closed_d1(tuple(up), p, lam)
                  - potential_closed_d1(tuple(dn), p, lam)) / (2 * h)
            assert rel(slope, fd) < 1e-6


def d1_operator_weights(p, lam):
    # the validated weights (1/p, 1/p, 1, 2/lam) of the public closed route
    # and the rejected (2/p, 2/p, 1, 2/lam) of _kernel_closed_d1_alternate
    return {"validated": (1.0 / p, 1.0 / p, 1.0, 2.0 / lam),
            "rejected": (2.0 / p, 2.0 / p, 1.0, 2.0 / lam)}


def test_closed_d1_directional_operator_matches_partials():
    # p/pi^4 sum_j c_j (g + nu_j dg/dnu_j), assembled from four one-slot
    # partials, equals the single derivative along v_j = c_j nu_j that each
    # closed d1 route takes.
    assert d1_operator_weights(2.0, 1.0)["validated"] == (0.5, 0.5, 1.0, 2.0)
    for p, lam in ((2.0, 2.0), (0.5, 3.0)):
        routes = {"validated": lambda nu: kernel_closed_d1_nu(nu, p, lam).value,
                  "rejected": lambda nu: _kernel_closed_d1_alternate(nu, p, lam)}
        for name, weights in d1_operator_weights(p, lam).items():
            for pr in sample_pairs(DomainSpec.d1(p, lam), 5, 10, 0.2):
                nu = pr.nu
                acc = 0j
                for j, cj in enumerate(weights):
                    g = potential_closed_d1(unit_tangent(nu, j), p, lam)
                    acc += cj * (g.val + nu[j] * g.der)
                assert rel(routes[name](nu), p / math.pi**4 * acc) < 1e-13


def test_potential_region_errors():
    with pytest.raises(RegionError):
        potential_closed_d1((0j, 0j, 0.3 + 0j, 0j), 1.0, 2.0)
    with pytest.raises(RegionError):
        potential_closed_d1((0.9 + 0j, 0.9 + 0j, 0j, 0j), 1.0, 2.0)  # mu1+mu2 >= 1
    with pytest.raises(RegionError):
        potential_closed_d1((0j, 0j, 0j, 1.1 + 0j), 1.0, 1.0)  # mu4 >= 1


def test_closed_d1_tiny_p_is_a_region_error_not_an_overflow():
    nu = (0.01 + 0j, 0j, 0j, 0j)
    with pytest.raises(RegionError):
        kernel_closed_d1_nu(nu, 1e-3, 2.0)  # 4/p + 2/lam = 4001: 2**4001 overflows
    # 4/p + 2/lam = 1001 still fits a double, and the routes agree there
    closed = kernel_closed_d1_nu(nu, 0.004, 2.0).value
    assert rel(closed, kernel_series_d1_nu(nu, 0.004, 2.0).value) < 1e-10


def test_d1_routes_refuse_the_same_tiny_p():
    # far past the bound the series loses its digits silently (about 0.02 at
    # p = 1e-300, where the kernel is near 1e299), so both routes refuse
    # wherever 2**(4/p + 2/lam) overflows
    nu = (0.01 + 0j, 0j, 0j, 0j)
    routes = (kernel_closed_d1_nu, kernel_series_d1_nu, potential_closed_d1)
    for p in (1e-300, 1e-3, 0.0039):
        for route in routes:
            with pytest.raises(RegionError, match="4/p"):
                route(nu, p, 2.0)
    with pytest.raises(RegionError):
        kernel_series_d1_nu(nu, 1.0, 2.0 / 1024.0)  # 4 + 1024: lam alone can overflow
    # an infinite p or lam, which DomainSpec.d1 refuses, too: the series
    # would read inf+nanj or a finite value with no closed one to match
    for p, lam in ((0.0, 2.0), (1.0, 0.0), (-1.0, 2.0), (math.nan, 2.0), (math.inf, 2.0),
                   (1.0, math.inf)):
        for route in routes:
            with pytest.raises(ValueError):
                route(nu, p, lam)
    # just inside the bound the potential still matches its series; the
    # kernel routes' agreement there is test_closed_d1_tiny_p_...'s
    closed = potential_closed_d1(nu, 0.004, 2.0)
    assert rel(closed, potential_reference(0.004, 2.0)(nu)) < 1e-10


# --- d1 kernel routes ----------------------------------------------------------

@pytest.mark.parametrize("nu", ((0, 0, 0.3, 0), (0, 0, 0.26, 0), (0, 0, 0, 1.2),
                                (0.6, 0.5, 0, 0)), ids=str)
def test_d1_series_refuses_a_nu_past_its_axis_radii_before_any_shell(monkeypatch, nu):
    # Along each axis the coefficients grow like 4^a3, or polynomially in q
    # and a4, so the series cannot converge unless |nu1+nu2| < 1,
    # |nu3| < 1/4 and |nu4| < 1; it walked to the row ceiling before saying so.
    def refuse(*args):
        raise AssertionError("shells summed")

    monkeypatch.setattr(kernels, "_monomial_series", refuse)
    with pytest.raises(ConvergenceError, match="requires"):
        kernel_series_d1_nu(nu, 2.0, 2.0)


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
    bad = _kernel_closed_d1_alternate(nu, 1.0, 2.0)
    assert rel(good.value, series.value) < 1e-10
    assert rel(bad, series.value) > 1e-2


def test_no_public_entry_point_evaluates_a_rejected_variant():
    # the rejected formulas are reached only through the private functions
    # that feed the informational rows
    assert not hasattr(bergkern, "OperatorWeights")
    assert list(inspect.signature(kernel_closed_d1_nu).parameters) == ["nu", "p", "lam"]
    assert list(inspect.signature(kernel_closed_d1).parameters) == ["pair", "p", "lam"]
    for variant in ("iv", "v"):
        with pytest.raises(ValueError, match="closed_2f1_recurrence"):
            bergkern.closed_2f1_family(variant, 2.5, 0.3)


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


def count_builds(monkeypatch, module, name, key):
    """A Counter of key(*args) over the calls of module.name, which is
    replaced by a recording wrapper."""
    counts = collections.Counter()
    build = getattr(module, name)

    def recorded(*args):
        counts[key(*args)] += 1
        return build(*args)

    monkeypatch.setattr(module, name, recorded)
    return counts


def test_kernel_d1_series_thread_safe_on_fresh_parameters(monkeypatch):
    # Four threads build the shell tables of each fresh (p, lam) at once; a
    # shared table grown by check-then-append would hand some of them shells
    # of the wrong degree, and each block of a set is built once. The serial
    # values come from a separate process, so they cannot read tables the
    # threads built.
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
    coefs = count_builds(monkeypatch, kernels, "_d1_block", lambda p, lam, block, before:
                         (p, lam, block.lo))
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
        monkeypatch.undo()
    assert [repr(v) for v in threaded] == serial
    assert len(coefs) >= len(params) and set(coefs.values()) == {1}


def threaded_reprs(calls):
    """repr of each call's value, with the calls started together on one
    thread each and a short switch interval."""
    out = [None] * len(calls)
    start = threading.Barrier(len(calls), timeout=60)

    def work(j):
        start.wait()
        out[j] = repr(calls[j]().value)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(len(calls))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    return out


def test_kernel_d2_series_thread_safe_on_empty_block_cache(monkeypatch):
    # Four threads build the d2 shell blocks at once, from empty sequences, on
    # near-boundary inputs that need 200-380 shells and so several blocks;
    # every value must equal the serial one exactly, and each block, of
    # compositions and of coefficients, is built once.
    nus = [(n1, x2 * n1, x3 * n1) for n1, x2, x3 in
           ((0.45, 0.44, 0.3), (0.4j, 0.5j, 0.5 - 0.2j),
            (cmath.rect(0.5, 0.7), cmath.rect(0.42, 0.7), 0.6),
            (cmath.rect(0.3, -1.1), cmath.rect(0.55, -1.1), -0.4j))]
    serial = [repr(kernel_series_d2_nu(nu).value) for nu in nus]
    hypergeo._blocks.cache_clear()
    kernels._coefficients.cache_clear()
    blocks = count_builds(monkeypatch, hypergeo, "_build_block", lambda n, lo: (n, lo))
    coefs = count_builds(monkeypatch, kernels, "_d2_block", lambda block, before: block.lo)
    try:
        assert threaded_reprs([partial(kernel_series_d2_nu, nu) for nu in nus]) == serial
    finally:
        monkeypatch.undo()
        hypergeo._blocks.cache_clear()
        kernels._coefficients.cache_clear()
    assert len(coefs) > 1 and set(coefs.values()) == {1}
    assert len(blocks) == len(coefs) and set(blocks.values()) == {1}


def test_shell_table_cache_is_bounded(monkeypatch):
    # The held coefficient sets take at most max_bytes, each set counting
    # its log-coefficients only; past it the least recently asked for sets
    # are dropped whole, and a set that alone takes more is held by itself.
    # At nu = 0 every series stops in its first block, so each d1 set takes
    # the same bytes.
    cache = kernels._coefficients
    assert cache.max_bytes == hypergeo._HELD_BYTES == hypergeo._blocks.max_bytes
    cache.cache_clear()
    try:
        kernel_series_d1_nu((0j,) * 4, 1.0, 2.0)
        log_coef = d1_coefficients(1.0, 2.0).get(0)
        one = held_bytes(cache)
        assert one == log_coef.nbytes
        monkeypatch.setattr(cache, "max_bytes", 3 * one)
        lams = [2.0 + i / 8 for i in range(6)]
        for lam in lams:
            kernel_series_d1_nu((0j,) * 4, 1.0, lam)
        assert [key[3] for key in cache._held] == lams[-3:]
        assert held_bytes(cache) == 3 * one
        # ellipsoid sets are keyed by the exponents, not by the degree cap
        for i in range(4):
            kernel_series_ellipsoid_nu((0j, 0j), (2, 3 + i / 4))
            kernel_series_ellipsoid_nu((0j, 0j), (2, 3 + i / 4), TruncationPolicy(50, 1e-10))
        held = list(cache._held)
        assert [key[0] for key in held[-4:]] == [kernels._ellipsoid_block] * 4
        assert held[-5][0] is kernels._d1_block and held_bytes(cache) <= cache.max_bytes
        monkeypatch.setattr(cache, "max_bytes", one // 2)
        kernel_series_d1_nu((0j,) * 4, 1.0, 2.0)
        assert list(cache._held) == [(kernels._d1_block, 3, 1.0, 2.0)]
        assert held_bytes(cache) == one
    finally:
        monkeypatch.undo()
        cache.cache_clear()


def test_sweep_sets_stay_held_when_cycled():
    # The 17 parameter sets of the benchmark's eval-sweep (12 d1 sets, d2 and
    # four ellipsoids), evaluated twice in turn: the sets fit the bound, so
    # the second round reads the same sequences and builds no block in them.
    d1 = [(p, lam) for p in (0.5, 1.0, 2.0, 2.5) for lam in (1.0, 2.0, 3.0)]
    ellipsoids = [((0.5, 0.4j), (1, 1)), ((0.6, -0.3j), (1, 2)),
                  ((0.6, 0.4j), (2, 3)), ((0.3, 0.3j, -0.3), (1, 1, 1))]

    def sweep():
        out = [kernel_series_d1_nu((0.2, 0.15j, 0.1, -0.3), p, lam) for p, lam in d1]
        out.append(kernel_series_d2_nu((0.4, 0.1j, 0.2)))
        out += [kernel_series_ellipsoid_nu(nu, ps) for nu, ps in ellipsoids]
        return [repr(v) for v in out]

    def held():
        return {key: (seq, len(seq._items)) for key, seq in kernels._coefficients._held.items()}

    hypergeo._blocks.cache_clear()
    kernels._coefficients.cache_clear()
    try:
        first = sweep()
        before = held()
        assert len(before) == 17
        assert sweep() == first and held() == before
    finally:
        hypergeo._blocks.cache_clear()
        kernels._coefficients.cache_clear()


def test_dropping_the_blocks_frees_their_compositions():
    # A held coefficient set keeps its log-coefficients only, so clearing the
    # composition blocks frees them while the set stays held, and the next
    # evaluation rebuilds the compositions but no coefficients.
    nu = (0.2, 0.15j, 0.1, -0.3)
    hypergeo._blocks.cache_clear()
    kernels._coefficients.cache_clear()
    try:
        first = kernel_series_d1_nu(nu, 2.0, 2.0)
        comps = weakref.ref(hypergeo._blocks(3).get(0).comps)
        hypergeo._blocks.cache_clear()
        gc.collect()
        assert comps() is None
        held = kernels._coefficients._held[(kernels._d1_block, 3, 2.0, 2.0)]
        built = len(held._items)
        assert repr(kernel_series_d1_nu(nu, 2.0, 2.0)) == repr(first)
        assert kernels._coefficients(kernels._d1_block, 3, 2.0, 2.0) is held
        assert len(held._items) == built > 1
    finally:
        hypergeo._blocks.cache_clear()
        kernels._coefficients.cache_clear()


def test_held_bytes_are_counted_once():
    # The bytes the composition and coefficient stores count add up, to
    # within 1%, to the traced bytes that clearing them frees: 29 MB here,
    # over several blocks of 3 and 2 variables. Each array is counted by the
    # one store that holds it; only small per-block overheads are not.
    def clear():
        hypergeo._blocks.cache_clear()
        kernels._coefficients.cache_clear()
        gc.collect()

    clear()
    tracemalloc.start()
    try:
        kernel_series_d1_nu((0.35 + 0.05j, 0.25, 0.12 - 0.05j, 0.5 + 0.1j), 1.0, 2.0)
        kernel_series_ellipsoid_nu((0.6, 0.4j), (2, 3))
        counted = held_bytes(hypergeo._blocks) + held_bytes(kernels._coefficients)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
        clear()
        freed = live - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        clear()
    assert freed > 10_000_000
    assert abs(counted - freed) <= 0.01 * freed, (counted, freed)


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
    for n1 in (1e-160, 1e-170):  # 1/nu1^2 overflows; nu1^2 underflows to 0
        with pytest.raises(SingularityError):
            kernel_series_d2_nu((n1, 0.0, 0.0))


_ENTRY_POINTS = {
    "closed-d1": (lambda nu: kernel_closed_d1_nu(nu, 1.0, 2.0), (0.01, 0.02, 0.03, 0.04)),
    "series-d1": (lambda nu: kernel_series_d1_nu(nu, 1.0, 2.0), (0.01, 0.02, 0.03, 0.04)),
    "closed-d1-potential": (lambda nu: SimpleNamespace(value=potential_closed_d1(nu, 1.0, 2.0)),
                            (0.01, 0.02, 0.03, 0.04)),
    "closed-d2": (kernel_closed_d2_nu, (0.25, 0.0, 0.0)),
    "series-d2": (kernel_series_d2_nu, (0.25, 0.0, 0.0)),
    "series-ellipsoid": (lambda nu: kernel_series_ellipsoid_nu(nu, (2, 3)), (0.1, 0.2j)),
}


@pytest.mark.parametrize("name", list(_ENTRY_POINTS))
def test_kernel_entry_points_reject_non_finite_and_misshapen_nu(name):
    # a non-finite nu would give a NaN value (an ellipsoid would sum to the
    # degree cap first), so each entry point refuses it, and a wrong length
    evaluate, nu = _ENTRY_POINTS[name]
    assert math.isfinite(abs(evaluate(nu).value))
    bad = (math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, 0.0))
    for j, v in itertools.product(range(len(nu)), bad):
        with pytest.raises(ValueError, match="finite"):
            evaluate(nu[:j] + (v,) + nu[j + 1:])
    for wrong in (nu[:-1], nu + (0.0,)):
        with pytest.raises(ValueError, match="component"):
            evaluate(wrong)


def test_closed_potential_rejects_a_non_finite_dual_entry():
    # the closed potential also takes DualComplex entries, as the closed d1
    # kernel seeds them; a non-finite value part is refused like a complex one
    nu = (DualComplex(0.01, 1.0), 0.02, DualComplex(math.nan, 1.0), 0.04)
    with pytest.raises(ValueError, match="finite"):
        potential_closed_d1(nu, 1.0, 2.0)


def test_kernel_routes_give_a_finite_value_or_a_typed_error_at_tiny_moduli():
    # Moduli log-uniform down to the subnormals, a fifth of them exactly 0,
    # in uniform phases: every route returns a finite value or raises a
    # BergkernError or ValueError, never a non-finite value or another error.
    rng = random.Random(1)
    routes = {**_ENTRY_POINTS,
              "series-ball": (lambda nu: kernel_series_ellipsoid_nu(nu, (1, 1, 1)), (0j,) * 3)}
    for name, (evaluate, shape) in routes.items():
        for _ in range(300):
            nu = tuple(0j if rng.random() < 0.2
                       else cmath.rect(10 ** rng.uniform(-320, 0), rng.uniform(-math.pi, math.pi))
                       for _ in shape)
            try:
                value = evaluate(nu).value
            except (bergkern.BergkernError, ValueError):
                continue
            assert cmath.isfinite(value), (name, nu, value)


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
    spec = DomainSpec.ellipsoid((1.0, 2.0))
    for pr in sample_pairs(spec, 43, 10, 0.2):
        fwd = kernel_series_ellipsoid_nu(pr.nu, (1, 2)).value
        rev = kernel_series_ellipsoid_nu(PointPair(pr.zeta, pr.z).nu, (1, 2)).value
        assert abs(fwd - rev.conjugate()) <= 1e-10 * abs(fwd)


def test_ellipsoid_series_thread_safe_on_shared_block_cache(monkeypatch):
    # Four threads build the shared composition blocks at once, from empty
    # sequences, on near-boundary inputs that need several blocks; every
    # value must equal the serial one exactly, and each block, of
    # compositions and of each set's coefficients, is built once.
    cases = [((0.3 + 0.1j, 0.2 - 0.3j), (2, 3)),
             ((0.35 - 0.1j, 0.25 + 0.15j, -0.2 + 0.1j), (1, 1, 1)),
             ((0.6 + 0.1j, 0.3 - 0.2j), (1, 2)),
             ((0.45 - 0.2j, -0.4 + 0.1j, 0.2j), (1, 2, 1))]
    serial = [repr(kernel_series_ellipsoid_nu(nu, exps).value) for nu, exps in cases]
    hypergeo._blocks.cache_clear()
    kernels._coefficients.cache_clear()
    blocks = count_builds(monkeypatch, hypergeo, "_build_block", lambda n, lo: (n, lo))
    coefs = count_builds(monkeypatch, kernels, "_ellipsoid_block",
                         lambda ps, ones, block, before: (ps, ones, block.lo))
    calls = [partial(kernel_series_ellipsoid_nu, nu, exps) for nu, exps in cases]
    try:
        assert threaded_reprs(calls) == serial
    finally:
        monkeypatch.undo()
        hypergeo._blocks.cache_clear()
        kernels._coefficients.cache_clear()
    assert len(coefs) > len(cases) and set(coefs.values()) == {1}
    assert set(blocks.values()) == {1}


def per_term_ellipsoid(nu, ps, policy):
    """The residue sum term by term: one appell_fa call per k."""
    n = len(ps)
    args = tuple(v**pj for v, pj in zip(nu, ps))
    total = 0j
    for k in itertools.product(*(range(pj) for pj in ps)):
        c = tuple((kj + 1.0) / pj for kj, pj in zip(k, ps))
        a = 1.0 + sum(c)
        coef = math.exp(math.lgamma(a) - sum(math.lgamma(cj) for cj in c))
        mono = math.prod((v**kj for v, kj in zip(nu, k)), start=1.0 + 0j)
        total += coef * mono * hypergeo.appell_fa(a, (1.0,) * n, c, args, policy).value
    return math.prod(ps) / math.pi**n * total


ELLIPSOID_SETS = ((1, 1), (1, 2), (2, 3), (3, 3), (2, 2), (1, 1, 1), (1, 2, 1))


def ball_kernel(nu):
    """n!/pi^n (1 - nu_1 - ... - nu_n)^-(n+1): the unit ball's kernel, the
    ellipsoid with every p_j = 1."""
    n = len(nu)
    return math.factorial(n) / math.pi**n * (1 - sum(nu)) ** -(n + 1)


@pytest.mark.parametrize("ps", ELLIPSOID_SETS, ids=str)
def test_ellipsoid_fused_series_matches_per_term_reference(ps):
    # Each per-term series stops on its own partial sum, so where the terms
    # cancel its truncation error exceeds the monomial series' one; a deeper
    # reference measures the monomial series. A one-term kernel sums the same
    # shells as its reference, so there both use the same policy and agree
    # to round-off, and both agree with the unit ball's closed form.
    one_term = math.prod(ps) == 1
    ref_policy = kernels.KERNEL_POLICY if one_term else TruncationPolicy(400, 1e-13)
    spec = DomainSpec.ellipsoid(ps)
    for margin in (0.05, 0.1, 0.2, 0.4):
        for pr in sample_pairs(spec, 61, 8, margin):
            got = kernel_series_ellipsoid_nu(pr.nu, ps).value
            ref = per_term_ellipsoid(pr.nu, ps, ref_policy)
            if one_term:
                assert rel(got, ref) <= 1e-13
                assert rel(got, ball_kernel(pr.nu)) <= 1e-8
            else:
                assert rel(got, ref) <= 1e-8


@pytest.mark.parametrize("ps", ELLIPSOID_SETS, ids=str)
def test_ellipsoid_fused_series_hermitian_and_real_diagonal(ps):
    spec = DomainSpec.ellipsoid(ps)
    for pr in sample_pairs(spec, 62, 10, 0.1):
        fwd = kernel_series_ellipsoid_nu(pr.nu, ps).value
        rev = kernel_series_ellipsoid_nu(PointPair(pr.zeta, pr.z).nu, ps).value
        assert fwd == rev.conjugate()
        diag = kernel_series_ellipsoid_nu(diagonal_pair(pr.z).nu, ps).value
        assert diag.imag == 0.0 and diag.real > 0.0


def test_ellipsoid_fused_series_raises_where_per_term_route_does():
    capped = TruncationPolicy(12, 1e-10)
    for ps, nu in (((2, 3), (0.6 + 0.3j, 0.5 - 0.4j)), ((1, 1), (0.5 + 0.1j, 0.3j)),
                   ((1, 1, 1), (0.3, 0.2 - 0.2j, 0.25j))):
        with pytest.raises(ConvergenceError):
            per_term_ellipsoid(nu, ps, capped)
        with pytest.raises(ConvergenceError):
            kernel_series_ellipsoid_nu(nu, ps, capped)
        assert rel(kernel_series_ellipsoid_nu(nu, ps).value,
                   per_term_ellipsoid(nu, ps, TruncationPolicy(400, 1e-13))) <= 1e-8


@pytest.mark.parametrize("p", (1, 2, 3, 5, 1 / 3, 0.5, 1.5, 2.5))
def test_one_variable_ellipsoid_is_the_unit_disc(p):
    # {|z|^(2p) < 1} is the unit disc for every p, whose kernel is
    # 1 / (pi (1 - nu)^2): a second route for the n = 1 series.
    policy = TruncationPolicy(1000, 1e-13)
    for nu in (0j, 0.7, -0.7, 0.7j, 0.5 + 0.4j, -0.3 - 0.2j,
               cmath.rect(0.7, 2.0), cmath.rect(0.7, -0.3)):
        got = kernel_series_ellipsoid_nu((nu,), (p,), policy).value
        assert rel(got, 1.0 / (math.pi * (1.0 - nu) ** 2)) <= 1e-9, nu


def pushed_forward_ball_kernel(nu, ms):
    """The kernel of the ellipsoid with p_j = 1/m_j, onto which
    z -> (z_1^m_1, ..., z_n^m_n) maps the unit ball properly, by Bell's
    transformation rule: n!/(pi^n prod_j m_j^2) times the sum over the
    prod_j m_j choices of s_j, an m_j-th root of nu_j, of
    (1 - sum_j s_j)^-(n+1) / prod_j s_j^(m_j - 1)."""
    n = len(nu)
    roots = [[cmath.exp((cmath.log(v) + 2j * math.pi * k) / m) for k in range(m)]
             for v, m in zip(nu, ms)]
    total = sum((1 - sum(s)) ** -(n + 1) / math.prod(sj ** (m - 1) for sj, m in zip(s, ms))
                for s in itertools.product(*roots))
    return math.factorial(n) / (math.pi**n * math.prod(m * m for m in ms)) * total


@pytest.mark.parametrize("ms", ((2,), (2, 3), (1, 2), (3, 3)), ids=str)
def test_ellipsoid_with_exponents_one_over_m_is_the_ball_pushed_forward(ms):
    # Zinov'ev's family p_j = 1/m_j, whose exponents are below 1 where
    # m_j > 1: a second route for a real-exponent series. The push-forward
    # cancels as nu -> 0, so |nu_j| stays in [0.01, 0.1].
    ps = tuple(1 / m for m in ms)
    policy = TruncationPolicy(1000, 1e-13)
    rng = random.Random(47)
    for _ in range(10):
        nu = tuple(cmath.rect(rng.uniform(0.01, 0.1), rng.uniform(-math.pi, math.pi))
                   for _ in ms)
        got = kernel_series_ellipsoid_nu(nu, ps, policy).value
        assert rel(got, pushed_forward_ball_kernel(nu, ms)) <= 1e-10, nu


# Eval-sweep pairs drawn at margin 0.05 that need more than 400 shells, as
# (kind, exponents, nu, shells, tolerance against the second route). Each
# raised ConvergenceError under the old 400-degree kernel cap. The (2,3)
# pairs, dominated by their p = 3 coordinate, need about three total-degree
# shells per degree of the residue form. The (1,1,1)
# pair, with sum |nu_j| = 0.921, also lay past degree 400, the row ceiling of
# a 3-variable series, until its unit exponents folded into the one variable
# nu_1 + nu_2 + nu_3; it meets eval-sweep's ball tolerance, 1e-8.
_DEEP_PAIRS = (
    ("ellipsoid", (2, 3), (-0.5321547851560606 + 0.8037486119534577j,
                           -0.00030964591737559736 - 0.0003186037432633094j), 903, 1e-9),
    ("ellipsoid", (2, 3), (-0.33447329383824753 + 0.9126467795052713j,
                           -0.01948607291120191 - 0.011691675823579235j), 1172, 1e-9),
    ("d2", None, (-0.9400857478785917 + 0.04255156648095135j,
                  0.001422652323509741 - 7.32004722757807e-05j,
                  -0.09207575330298531 + 0.003951345021016267j), 612, 1e-10),
    ("d2", None, (0.5055603906697177 + 0.7741349742096345j,
                  0.005088047130985967 + 0.002635200815233528j,
                  0.015341073877987823 - 0.000619106185991555j), 439, 1e-10),
    ("ellipsoid", (1, 1), (0.5385178449205819 - 0.76788958806692j,
                           0.0038739908607965143 + 0.005161484581347105j), 524, 1e-10),
    ("ellipsoid", (1, 1, 1), (-0.8718331951618867 - 0.2717187665427068j,
                              -0.0016340308757502365 - 0.0008464093517360146j,
                              -0.003156365947255148 - 0.004802587011390611j), 509, 1e-8),
)


@pytest.mark.parametrize("kind, ps, nu, shells, tol", _DEEP_PAIRS,
                         ids=[f"{kind}{ps or ''}-{shells}" for kind, ps, _, shells, _ in _DEEP_PAIRS])
def test_kernel_cap_reaches_deep_near_boundary_pairs(monkeypatch, kind, ps, nu, shells, tol):
    # An ellipsoid scales the policy's cap by max(1, max_j p_j), so a pair
    # that needs `shells` shells, the last of degree shells - 1, converges
    # under the smallest cap whose scaled degree reaches that, and raises
    # under the cap one below it.
    used = []
    sum_shells = kernels._sum_shells

    def recorded(*args):
        sv = sum_shells(*args)
        used.append(sv.shells_used)
        return sv

    monkeypatch.setattr(kernels, "_sum_shells", recorded)
    scale = max(ps) if kind == "ellipsoid" else 1
    enough = math.ceil((shells - 1) / scale)
    if kind == "d2":
        series = kernel_series_d2_nu
        ref = kernel_closed_d2_nu(nu).value
    else:
        series = partial(kernel_series_ellipsoid_nu, exponents=ps)
        ref = ball_kernel(nu) if set(ps) == {1} \
            else per_term_ellipsoid(nu, ps, TruncationPolicy(1000, 1e-13))
    got = series(nu).value
    assert used == [shells]
    tail_tol = kernels.KERNEL_POLICY.tail_tol
    assert repr(series(nu, policy=TruncationPolicy(enough, tail_tol)).value) == repr(got)
    with pytest.raises(ConvergenceError):
        series(nu, policy=TruncationPolicy(enough - 1, tail_tol))
    assert rel(got, ref) <= tol


def test_deep_series_keeps_its_blocks_for_the_next_pair(monkeypatch):
    # With one shell per block, the deepest pinned (2,3) pair reads 1172
    # blocks. Its set holds them all as one sequence, none evicted one by
    # one, so a second evaluation builds no block of compositions and no
    # coefficients (each coefficient block calls log_gamma_array).
    kind, ps, nu, shells, _ = _DEEP_PAIRS[1]
    assert (kind, ps, shells) == ("ellipsoid", (2, 3), 1172)
    monkeypatch.setattr(hypergeo, "_BLOCK_DEGREES", 1)
    hypergeo._blocks.cache_clear()
    kernels._coefficients.cache_clear()
    try:
        first = kernel_series_ellipsoid_nu(nu, ps)
        blocks = count_builds(monkeypatch, hypergeo, "_build_block", lambda n, lo: (n, lo))
        tables = count_builds(monkeypatch, kernels, "log_gamma_array", len)
        again = kernel_series_ellipsoid_nu(nu, ps)
    finally:
        monkeypatch.undo()
        hypergeo._blocks.cache_clear()
        kernels._coefficients.cache_clear()
    assert repr(again) == repr(first)
    assert not blocks and not tables


@pytest.mark.parametrize("ps", ((1,), (1, 1), (1, 1, 1), (1, 1, 1, 1)), ids=str)
def test_kernel_suite_has_ball_rows_for_every_all_ones_set(ps):
    rep = suites.run_kernel_suite("ellipsoid", exponents=ps, points=12, seed=5, tol=1e-8)
    rows = [r for r in rep.rows if "/unit-ball-collapse/" in r.case_id]
    assert len(rows) == 12 and all(r.passed for r in rows)
    for r in rows:
        nu = tuple(complex(v) for v in r.inputs["nu"])
        assert rel(r.rhs, ball_kernel(nu)) <= 1e-13
    rep = suites.run_kernel_suite("ellipsoid", exponents=(1, 2), points=4, seed=5)
    assert not any("/unit-ball-collapse/" in r.case_id for r in rep.rows)


# family -> (row count, tolerance, gating), with tolerance None for the
# suite's own tol; hermitian rows stop at 20 pairs for ellipsoids
_SUITE_FAMILIES = (
    (dict(domain="d2", points=6), {
        "d2/route": (7, None, True), "d2/hermitian": (6, 1e-12, True),
        "d2/diagonal-positive": (3, 1e-10, True), "d2/nu3-continuity": (20, None, True),
        "d2/alternate-numerator": (4, None, False)}),
    (dict(domain="d1", p=2.0, lam=2.0, points=6), {
        "d1/route": (6, None, True), "d1/hermitian": (6, 1e-12, True),
        "d1/diagonal-positive": (3, 1e-10, True), "d1/nu3-continuity": (20, None, True),
        "d1/gradient-fd": (25, None, True),
        "d1/alternate-operator-weights": (3, None, False)}),
    (dict(domain="ellipsoid", exponents=(1, 1), points=22, tol=1e-8), {
        "ellipsoid/unit-ball-collapse": (22, None, True),
        "ellipsoid/hermitian": (20, 1e-10, True),
        "ellipsoid/diagonal-positive": (11, 1e-10, True)}),
    (dict(domain="ellipsoid", exponents=(2, 3), points=6), {
        "ellipsoid/hermitian": (6, 1e-10, True),
        "ellipsoid/diagonal-positive": (3, 1e-10, True)}),
    (dict(domain="ellipsoid", exponents=(1, 1, 1), points=6, tol=1e-8), {
        "ellipsoid/unit-ball-collapse": (6, None, True),
        "ellipsoid/hermitian": (6, 1e-10, True),
        "ellipsoid/diagonal-positive": (3, 1e-10, True)}),
)


@pytest.mark.parametrize("kwargs, families", _SUITE_FAMILIES,
                         ids=["d2", "d1", "ellipsoid-1-1", "ellipsoid-2-3", "ellipsoid-1-1-1"])
def test_kernel_suite_families(kwargs, families):
    rep = suites.run_kernel_suite(seed=5, **kwargs)
    tol = kwargs.get("tol", 1e-6)
    seen = collections.defaultdict(list)
    for gating, rows in ((True, rep.rows), (False, rep.informational)):
        for r in rows:
            seen[r.case_id.rsplit("/", 1)[0]].append((r.tol, gating))
    assert set(seen) == set(families)
    for family, (count, family_tol, gating) in families.items():
        assert seen[family] == [(family_tol or tol, gating)] * count, family
    assert rep.summary()["failed"] == 0


def test_kernel_suite_defaults_are_the_kernel_policy():
    # verify kernels stops where bergkern eval and the library stop
    params = inspect.signature(suites.run_kernel_suite).parameters
    assert params["tail_tol"].default == kernels.KERNEL_POLICY.tail_tol
    assert params["max_degree"].default == kernels.KERNEL_POLICY.max_total_degree


# verify kernels runs at margin 0.05 with a pair that needs more than 400
# shells: 400 was the suite's own degree cap, which ended each of them with
# ConvergenceError.
@pytest.mark.parametrize("argv", [
    "--domain ellipsoid --p 1.5,2 --points 50 --seed 3 --margin 0.05 --tol 1e-8",
    "--domain d2 --points 50 --seed 50 --margin 0.05",
    "--domain ellipsoid --p 2,3 --points 50 --seed 36 --margin 0.05 --tol 1e-8",
])
def test_near_boundary_kernel_suites_finish(capsys, argv):
    code = main(["verify", "kernels", *argv.split(), "--out", os.devnull])
    assert code == 0 and " failed=0 " in capsys.readouterr().err


def test_kernel_suites_evaluate_each_value_once(monkeypatch):
    # Hermitian rows take their forward values, and the alternate rows their
    # series values, from the route rows; only the reversed pair, the
    # positivity points, the continuity points, the spot value and the
    # alternate weights are further calls.
    counts = collections.Counter()
    for name in ("kernel_closed_d1_nu", "kernel_closed_d2_nu", "kernel_series_d1_nu",
                 "kernel_series_d2_nu", "kernel_series_ellipsoid_nu",
                 "_kernel_closed_d1_alternate"):
        def counted(*args, fn=getattr(suites, name), name=name, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(suites, name, counted)
    cases = (
        (dict(domain="d2", points=10),
         {"kernel_closed_d2_nu": 10 + 10 + 5 + 40 + 1, "kernel_series_d2_nu": 10 + 1}),
        (dict(domain="d1", p=2.0, lam=2.0, points=10),
         {"kernel_closed_d1_nu": 10 + 10 + 5 + 40, "kernel_series_d1_nu": 10,
          "_kernel_closed_d1_alternate": 3}),
        (dict(domain="ellipsoid", exponents=(1, 1), points=30, tol=1e-8),
         {"kernel_series_ellipsoid_nu": 30 + 20 + 15}),
        (dict(domain="ellipsoid", exponents=(2, 3), points=30),
         {"kernel_series_ellipsoid_nu": 20 + 20 + 15}),
    )
    for kwargs, expected in cases:
        counts.clear()
        suites.run_kernel_suite(**kwargs)
        assert counts == expected, kwargs


def test_ellipsoid_rejects_non_finite_or_non_positive_exponents():
    # the rule of DomainSpec.ellipsoid; a real exponent such as 1.5 is valid
    for exps in ((math.inf, 1.0), (math.nan, 1.0), (0, 1), (-2, 1), ()):
        with pytest.raises(ValueError):
            kernel_series_ellipsoid_nu((0.1, 0.1)[:len(exps)], exps)
    assert math.isfinite(abs(kernel_series_ellipsoid_nu((0.1, 0.1), (1.5, 1.0)).value))
    with pytest.raises(RegionError):
        kernel_series_ellipsoid_nu((0.8, 0.3), (1, 1))
