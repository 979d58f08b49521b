"""Scalar substrate: log-gamma, principal-branch powers, and holomorphic dual
numbers carrying one directional derivative.

Complex values are plain Python ``complex``; DualComplex carries a value plus
its derivative along one direction, fixed by the tangents the inputs are
seeded with (a unit tangent on one input gives that partial derivative).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import BranchError

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
    """Complex value with an exact holomorphic derivative along one direction.

    Arithmetic follows the usual sum/product/quotient/chain rules, so any
    expression built from +, -, *, /, sqrt, pow propagates the exact first
    derivative along the direction given by the seeded tangents `der`; a
    DualComplex(value) with the default zero tangent is a constant.
    """

    val: complex
    der: complex = 0j

    def __add__(self, other):
        if isinstance(other, DualComplex):
            return DualComplex(self.val + other.val, self.der + other.der)
        return DualComplex(self.val + other, self.der)

    __radd__ = __add__

    def __neg__(self):
        return DualComplex(-self.val, -self.der)

    def __sub__(self, other):
        if isinstance(other, DualComplex):
            return DualComplex(self.val - other.val, self.der - other.der)
        return DualComplex(self.val - other, self.der)

    def __rsub__(self, other):
        return DualComplex(other - self.val, -self.der)

    def __mul__(self, other):
        if isinstance(other, DualComplex):
            return DualComplex(self.val * other.val,
                               self.der * other.val + self.val * other.der)
        return DualComplex(self.val * other, self.der * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DualComplex):
            if other.val == 0:
                raise ZeroDivisionError("DualComplex division by zero value")
            inv2 = 1.0 / (other.val * other.val)
            return DualComplex(self.val / other.val,
                               (self.der * other.val - self.val * other.der) * inv2)
        if other == 0:
            raise ZeroDivisionError("DualComplex division by zero")
        inv = 1.0 / other
        return DualComplex(self.val * inv, self.der * inv)

    def __rtruediv__(self, other):
        if self.val == 0:
            raise ZeroDivisionError("DualComplex division by zero value")
        inv2 = -other / (self.val * self.val)
        return DualComplex(other / self.val, self.der * inv2)

    def sqrt(self) -> "DualComplex":
        root = cmath.sqrt(self.val)
        return DualComplex(root, self.der * (0.5 / root))

    def pow(self, exponent: float) -> "DualComplex":
        if not self.val.real > 0.0:
            raise BranchError(f"principal power requires Re(base) > 0, got {self.val}")
        value = cmath.exp(exponent * cmath.log(self.val))
        return DualComplex(value, self.der * (exponent * value / self.val))
