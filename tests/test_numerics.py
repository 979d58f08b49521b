"""Tests for the scalar substrate: log-gamma, branches, duals."""

import cmath
import dataclasses
import math
import random
import warnings

import numpy as np
import pytest

from bergkern import BranchError, DualComplex, log_gamma_array, principal_pow, principal_sqrt


def rel(x, y):
    return abs(x - y) / max(abs(y), 1e-300)


def log_gamma_points():
    rng = np.random.default_rng(23)
    return np.concatenate((10.0 ** rng.uniform(-3.0, 5.0, 2000), np.arange(1.0, 41.0),
                           np.arange(0.5, 40.0), [1e-3, 9.999999999999998, 10.0, 1e5]))


def test_log_gamma_array_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    x = log_gamma_points()
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.loggamma(v)) for v in x.tolist()])
    err = np.abs(log_gamma_array(x) - ref)
    assert (err <= 64 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref))).all()


def test_log_gamma_array_against_math_lgamma():
    x = log_gamma_points()
    ref = np.array([math.lgamma(v) for v in x.tolist()])
    err = np.abs(log_gamma_array(x) - ref)
    assert (err <= 64 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref))).all()
    # the extremes stay finite and raise no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tails = log_gamma_array(np.array([1e-300, 1e300]))
    assert np.allclose(tails, [math.lgamma(1e-300), math.lgamma(1e300)], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("bad", [0.0, -1.5, math.nan, math.inf])
def test_log_gamma_array_domain_error(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            log_gamma_array(np.array([2.0, bad, 3.0]))


def test_principal_sqrt_values():
    assert principal_sqrt(1.0) == 1.0
    assert rel(principal_sqrt(0.6), math.sqrt(0.6)) < 1e-15
    assert principal_sqrt(complex(4.0, 0.0)).real == 2.0


def test_principal_sqrt_squares_back():
    rng = random.Random(11)
    for _ in range(200):
        mag = 10.0 ** rng.uniform(-6, 6)
        ang = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
        w = cmath.rect(mag, ang)  # right half-plane
        r = principal_sqrt(w)
        assert rel(r * r, w) < 1e-14


def test_principal_pow_values_and_branch_error():
    # (1 + sqrt(1-4*nu3))^(2/p) at nu3=0, p=2: base 2, exponent 1
    assert rel(principal_pow(2.0 + 0j, 1.0), 2.0) < 1e-15
    assert rel(principal_pow(2.0 + 0j, 0.5), math.sqrt(2.0)) < 1e-15
    with pytest.raises(BranchError):
        principal_pow(-1.0 + 0j, 0.5)
    with pytest.raises(BranchError):
        principal_pow(0.0 + 1j, 0.5)


def _seed(nu, slot):
    """Inputs with a unit tangent in one slot, so derivatives are d/dnu_slot."""
    return [DualComplex(complex(v), 1 + 0j if k == slot else 0j) for k, v in enumerate(nu)]


def test_dual_zero_tangent_and_power_rule():
    c = DualComplex(3.0 - 2.0j)
    assert c.der == 0j
    nu1 = DualComplex(0.3 + 0.1j, 1 + 0j)
    sq = nu1 * nu1
    assert sq.val == (0.3 + 0.1j) ** 2
    assert rel(sq.der, 2 * (0.3 + 0.1j)) < 1e-15
    held = DualComplex(0.3 + 0.1j)  # nu1 with the tangent on another slot
    assert (held * held).der == 0j


@dataclasses.dataclass(frozen=True)
class _FrozenDual:
    # a frozen dataclass of DualComplex's fields: the reference for its
    # equality, hash and repr
    val: complex
    der: complex = 0j


def test_dual_equality_hash_and_repr_are_the_frozen_dataclass_ones():
    # DualComplex, a slotted class, compares, hashes and prints as a frozen
    # dataclass of the same fields, the repr under its own name.
    values = [(0.3 + 0.1j, 1 + 0j), (0.3 + 0.1j, 0j), (-0.0j, 0j), (0j, 0j), (1.0, 2),
              (math.nan, 0j), (2.5 - 1e-300j, -7j)]
    for v, d in values:
        dual, frozen = DualComplex(v, d), _FrozenDual(v, d)
        assert (dual.val, dual.der) == (frozen.val, frozen.der)
        assert hash(dual) == hash(frozen)
        assert repr(dual) == repr(frozen).replace("_FrozenDual", "DualComplex", 1)
        for w, e in values:
            assert (dual == DualComplex(w, e)) == (frozen == _FrozenDual(w, e))
            assert (dual != DualComplex(w, e)) == (frozen != _FrozenDual(w, e))
    assert repr(DualComplex(1j)) == "DualComplex(val=1j, der=0j)"
    # like a dataclass, it equals no other type, not even its own value
    assert DualComplex(1.0) != 1.0 and DualComplex(1.0) != _FrozenDual(1.0)
    assert len({DualComplex(0.5, 1j), DualComplex(0.5, 1j), DualComplex(0.5)}) == 2
    assert not hasattr(DualComplex(1.0), "__dict__")


def test_dual_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        DualComplex(1.0, 1.0) / DualComplex(0.0)
    with pytest.raises(ZeroDivisionError):
        1.0 / DualComplex(0.0)


def _fd_gradient(f, nu, h=1e-5):
    grads = []
    for j in range(4):
        up = list(nu)
        dn = list(nu)
        up[j] += h
        dn[j] -= h
        grads.append((f(up) - f(dn)) / (2 * h))
    return grads


def _compound(nu):
    # holomorphic expression exercising sqrt, pow, quotient, product rules
    n1, n2, n3, n4 = nu
    w = principal_sqrt(1 - 4 * n3)
    return w * (1 + n1) / (1 - n4) + principal_pow(1 + n2, 2.5) - n1 * n2 * n4


def test_dual_sqrt_gradient_matches_finite_difference():
    nu = (0.0, 0.0, 0.05, 0.0)
    dual = principal_sqrt(1 - 4 * _seed(nu, 2)[2])
    fd = _fd_gradient(lambda v: principal_sqrt(1 - 4 * complex(v[2])), nu)
    assert rel(dual.der, fd[2]) < 1e-8


def test_dual_gradient_property_100_points():
    rng = random.Random(42)
    for _ in range(100):
        nu = tuple(complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)) for _ in range(4))
        fd = _fd_gradient(_compound, nu)
        for j in range(4):
            assert rel(_compound(_seed(nu, j)).der, fd[j]) < 1e-6
