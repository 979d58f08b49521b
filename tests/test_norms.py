"""Tests for closed-form monomial norms against the quadrature oracle."""

import itertools
import math

import numpy as np
import pytest

from bergkern import (DomainSpec, adaptive_gauss, norm_closed, norm_d1, norm_d2,
                      norm_quadrature)

D2 = DomainSpec.d2()


def rel(x, y):
    return abs(x - y) / abs(y)


def test_adaptive_gauss_on_elementary_integrals():
    assert abs(adaptive_gauss(lambda x: x * x, 0.0, 1.0) - 1.0 / 3.0) < 1e-13
    assert abs(adaptive_gauss(np.sin, 0.0, math.pi) - 2.0) < 1e-12
    # mildly kinked integrand still resolved by bisection
    assert abs(adaptive_gauss(lambda x: np.sqrt(np.abs(x)), 0.0, 1.0) - 2.0 / 3.0) < 1e-10


def test_adaptive_gauss_panel_budget():
    from bergkern import QuadratureError
    step = lambda x: np.where(x > 1.0 / 3.0, 1.0, 0.0)  # unresolvable jump
    with pytest.raises(QuadratureError):
        adaptive_gauss(step, 0.0, 1.0, tol=1e-14, max_panels=64)


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
