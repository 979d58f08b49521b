"""Scalar substrate: log-gamma, principal-branch powers, and holomorphic dual
numbers with a fixed 4-slot gradient.

Complex values are plain Python ``complex``; DualComplex carries a value plus
the four partial derivatives with respect to the Hermitian products nu_1..nu_4.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import BranchError

GRAD_SLOTS = 4

_ZERO_GRAD = (0j, 0j, 0j, 0j)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def principal_sqrt(z):
    """Principal square root; positive real input gives a positive real result.

    Accepts complex or DualComplex.
    """
    if isinstance(z, DualComplex):
        return z.sqrt()
    return cmath.sqrt(z)


def principal_pow(base, exponent: float):
    """base**exponent on the principal branch; requires Re(base) > 0.

    Accepts complex or DualComplex base and a real exponent.
    """
    if isinstance(base, DualComplex):
        return base.pow(exponent)
    base = complex(base)
    if not base.real > 0.0:
        raise BranchError(f"principal_pow requires Re(base) > 0, got {base}")
    return cmath.exp(exponent * cmath.log(base))


@dataclass(frozen=True)
class DualComplex:
    """Complex value with an exact holomorphic gradient in 4 slots.

    Arithmetic follows the usual sum/product/quotient/chain rules, so any
    expression built from +, -, *, /, sqrt, pow propagates exact first
    derivatives with respect to the seeded variables.
    """

    val: complex
    grad: tuple = _ZERO_GRAD

    def __add__(self, other):
        if isinstance(other, DualComplex):
            return DualComplex(self.val + other.val,
                               tuple(a + b for a, b in zip(self.grad, other.grad)))
        return DualComplex(self.val + other, self.grad)

    __radd__ = __add__

    def __neg__(self):
        return DualComplex(-self.val, tuple(-g for g in self.grad))

    def __sub__(self, other):
        if isinstance(other, DualComplex):
            return DualComplex(self.val - other.val,
                               tuple(a - b for a, b in zip(self.grad, other.grad)))
        return DualComplex(self.val - other, self.grad)

    def __rsub__(self, other):
        return DualComplex(other - self.val, tuple(-g for g in self.grad))

    def __mul__(self, other):
        if isinstance(other, DualComplex):
            return DualComplex(self.val * other.val,
                               tuple(a * other.val + self.val * b
                                     for a, b in zip(self.grad, other.grad)))
        return DualComplex(self.val * other, tuple(g * other for g in self.grad))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DualComplex):
            if other.val == 0:
                raise ZeroDivisionError("DualComplex division by zero value")
            inv2 = 1.0 / (other.val * other.val)
            return DualComplex(self.val / other.val,
                               tuple((a * other.val - self.val * b) * inv2
                                     for a, b in zip(self.grad, other.grad)))
        if other == 0:
            raise ZeroDivisionError("DualComplex division by zero")
        inv = 1.0 / other
        return DualComplex(self.val * inv, tuple(g * inv for g in self.grad))

    def __rtruediv__(self, other):
        if self.val == 0:
            raise ZeroDivisionError("DualComplex division by zero value")
        inv2 = -other / (self.val * self.val)
        return DualComplex(other / self.val, tuple(g * inv2 for g in self.grad))

    def sqrt(self) -> "DualComplex":
        root = cmath.sqrt(self.val)
        scale = 0.5 / root
        return DualComplex(root, tuple(g * scale for g in self.grad))

    def pow(self, exponent: float) -> "DualComplex":
        if not self.val.real > 0.0:
            raise BranchError(f"principal power requires Re(base) > 0, got {self.val}")
        value = cmath.exp(exponent * cmath.log(self.val))
        scale = exponent * value / self.val
        return DualComplex(value, tuple(g * scale for g in self.grad))


def dual_const(value) -> DualComplex:
    """Constant carrying a zero gradient."""
    return DualComplex(complex(value), _ZERO_GRAD)


def dual_var(value, slot: int) -> DualComplex:
    """Variable seeded with a unit derivative in the given gradient slot."""
    if not 0 <= slot < GRAD_SLOTS:
        raise ValueError(f"slot must be in [0, {GRAD_SLOTS}), got {slot}")
    grad = [0j] * GRAD_SLOTS
    grad[slot] = 1.0 + 0j
    return DualComplex(complex(value), tuple(grad))
