"""Numeric substrate: log-gamma, principal-branch powers, and holomorphic dual
numbers carrying one directional derivative.

log_gamma_array evaluates log-gamma over a whole array in a fixed number of
numpy operations: the ellipsoid shell tables need thousands of rows per block.
Scalar callers, such as the closed norms, call math.lgamma, where array
overhead would dominate.

Complex values are plain Python ``complex``; DualComplex carries a value plus
its derivative along one direction, fixed by the tangents the inputs are
seeded with (a unit tangent on one input gives that partial derivative).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import BranchError

# Entries below _SHIFT are moved up by the recurrence Gamma(x+1) = x Gamma(x)
# to where the Stirling series below is accurate to double precision.
_SHIFT = 10
# B_2k / (2k (2k-1)) for k = 1..8, the Stirling series coefficients (DLMF 5.11.1).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma_array(x: np.ndarray) -> np.ndarray:
    """Natural log of Gamma(x), elementwise, for a 1-D array of finite x > 0.

    Stirling's series with eight terms, summed by Horner's rule in 1/y^2,
        lnGamma(y) = (y - 1/2) ln y - y + ln(2 pi)/2
                     + sum_k B_2k / (2k (2k-1) y^(2k-1)),
    at y = x for x >= 10; below that at y = x + 10, with
    lnGamma(x) = lnGamma(x + 10) - ln(x (x+1) ... (x+9)). Measured against
    mpmath on [1e-3, 1e5], the error is below 50 eps * max(1, |lnGamma(x)|).
    Meant for tables of thousands of entries, where it is several times
    faster than math.lgamma row by row; for one float use math.lgamma. The
    ellipsoid series builds its coefficient tables with it; the d1 series
    needs none (see kernels._d1_block)."""
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(x) & (x > 0.0)).all():
        raise ValueError("log_gamma_array requires finite x > 0 in every entry")
    small = x < _SHIFT
    y = np.where(small, x + _SHIFT, x)
    r = 1.0 / y
    w = r * r
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * w + c
    out = (y - 0.5) * np.log(y) - y + _HALF_LOG_2PI + series * r
    xs = x[small]
    # x (x+1) ... (x+9) in pairs: (x + k)(x + 9 - k) = u + k (9 - k) with
    # u = x (x + 9), for k = 0..4
    u = xs * (xs + 9.0)
    out[small] -= np.log(u * (u + 8.0) * (u + 14.0) * (u + 18.0) * (u + 20.0))
    return out


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


class DualComplex:
    """Complex value with an exact holomorphic derivative along one direction.

    Arithmetic follows the usual sum/product/quotient/chain rules, so any
    expression built from +, -, *, /, sqrt, pow propagates the exact first
    derivative along the direction given by the seeded tangents `der`; a
    DualComplex(value) with the default zero tangent is a constant.

    A slotted class with a plain __init__, not a dataclass: the closed d1
    kernel builds hundreds of values a call, and a frozen dataclass takes
    more than twice as long to build each. Equality, hashing and repr are
    a frozen dataclass's, on the fields (val, der).
    """

    __slots__ = ("val", "der")

    def __init__(self, val: complex, der: complex = 0j):
        self.val = val
        self.der = der

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.val, self.der) == (other.val, other.der)
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.der))

    def __repr__(self):
        return f"DualComplex(val={self.val!r}, der={self.der!r})"

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
