"""Closed-form squared L2 norms of monomials on d1 and d2, plus an
independent quadrature oracle.

The closed forms are gamma-ratio expressions evaluated through log-gamma.
The oracle reduces each norm to a single theta integral (the two inner
integrals are power functions with polynomial limits and are integrated
exactly), so it never uses the gamma identities it is checking. That
integral is taken by one fixed tanh-sinh rule, summed as logs, so a tiny
moment keeps its relative accuracy. Many indices share it (a d1 integrand
depends on alpha only through a1+a2, a3 and a4, a d2 one only through
a1+a2+a3 and a2), so each distinct (sine, cosine) exponent pair is
integrated once per process and kept in a bounded cache; the default norm
grids need 570 entries.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .domains import DomainSpec
from .errors import QuadratureError, RegionError

# The finest tanh-sinh step is 2^-14. It serves exponent sums up to 2^24 - 1,
# and its node tables hold 212993 entries, so every table together is ~10 MB.
_MAX_LEVEL = 14


def _integral(alpha, length: int, kind: str) -> tuple[int, ...]:
    """alpha as a tuple of ints; ValueError on another length or on an entry
    that is not an integer, which int() would truncate."""
    alpha = tuple(alpha)
    if len(alpha) != length:
        raise ValueError(f"{kind} multi-index must have length {length}")
    try:
        ints = tuple(map(int, alpha))
    except (OverflowError, ValueError):  # int(inf), int(nan)
        ints = None
    if ints != alpha:
        raise ValueError(f"{kind} multi-index must have integer entries, got {alpha}")
    return ints


def check_index_d2(alpha) -> tuple[int, int, int]:
    alpha = _integral(alpha, 3, "d2")
    a1, a2, a3 = alpha
    if a2 < 0 or a3 < 0 or a1 < -2 - a2 - a3:
        raise ValueError(
            f"inadmissible d2 index {alpha}: need a2 >= 0, a3 >= 0, a1 >= -2-a2-a3")
    return alpha


def check_index_d1(alpha) -> tuple[int, int, int, int]:
    alpha = _integral(alpha, 4, "d1")
    if any(a < 0 for a in alpha):
        raise ValueError(f"inadmissible d1 index {alpha}: all entries must be >= 0")
    return alpha


def d1_exponents(alpha, p: float, lam: float) -> tuple[float, float]:
    """The derived exponents (s, a) of a d1 index:
    s = (a1+a2+2)/p + a3 + (a4+1)/lam + 1 and a = 2s - 2*a3 - 1."""
    a1, a2, a3, a4 = alpha
    s = (a1 + a2 + 2) / p + a3 + (a4 + 1) / lam + 1.0
    return s, 2.0 * s - 2 * a3 - 1.0


def norm_d2(alpha) -> float:
    """Squared L2(d2) norm of z^alpha over the Laurent-admissible index set;
    RegionError where it underflows a double."""
    a1, a2, a3 = check_index_d2(alpha)
    lg = math.lgamma(a2 + 1.0) + math.lgamma(a1 + a2 + a3 + 3.0) \
        - math.lgamma(a1 + 2 * a2 + a3 + 4.0)
    norm = math.pi**3 * math.exp(lg) / ((a3 + 1) * (a1 + 2 * a2 + 2 * a3 + 5))
    if norm == 0.0:
        raise RegionError(f"the closed norm of {alpha} underflows a double")
    return norm


def norm_d1(alpha, p: float, lam: float) -> float:
    """Squared L2(d1(p, lam)) norm of z^alpha, alpha >= 0 componentwise;
    RegionError where it underflows a double."""
    a1, a2, a3, a4 = alpha = check_index_d1(alpha)
    DomainSpec.d1(p, lam)
    s, _ = d1_exponents(alpha, p, lam)
    lg = math.lgamma(a1 + 1.0) + math.lgamma(a2 + 1.0) + math.lgamma(a3 + 1.0) \
        + math.lgamma(2 * s - a3 - 1.0) - math.lgamma(a1 + a2 + 2.0) - math.lgamma(2 * s)
    norm = math.pi**4 * math.exp(lg) / (p * (a4 + 1) * (s + (a4 + 1) / lam))
    if norm == 0.0:
        raise RegionError(f"the closed norm of {alpha} underflows a double")
    return norm


def norm_closed(spec: DomainSpec, alpha) -> float:
    if spec.kind == "d2":
        return norm_d2(alpha)
    if spec.kind == "d1":
        return norm_d1(alpha, spec.p, spec.lam)
    raise ValueError(f"no closed norm for domain kind {spec.kind!r}")


@lru_cache(maxsize=None)  # one table per step; _MAX_LEVEL bounds the steps
def _tanh_sinh_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log sin, log cos and log weight at the tanh-sinh nodes of step
    h = 2^-level on (0, pi/2): theta = (pi/2) / (1 + e^(-2u)) with
    u = (pi/2) sinh t, t in [-6.5, 6.5], where the integrand of either end is
    below e^-1000 of its peak. log theta comes from logaddexp, so it never
    underflows. Up to pi/4 (t <= 0), log sin is log theta + log sinc theta;
    past it, log1p(-2 sin^2(phi/2)), phi = pi/2 - theta being the theta of
    node -t. So neither end cancels, and log cos is log sin reversed. The
    weight dtheta/dt h is pi^2 h cosh t / (8 cosh^2 u). The arrays are shared
    between callers, so they are read-only."""
    h = 2.0 ** -level
    n = 13 * 2**(level - 1)  # the node at t = 0
    t = h * np.arange(-n, n + 1)
    u = 0.5 * math.pi * np.sinh(t)
    log_theta = math.log(0.5 * math.pi) - np.logaddexp(0.0, -2.0 * u[:n + 1])
    theta = np.exp(log_theta)
    log_sin = np.concatenate((log_theta + np.log(np.sinc(theta / math.pi)),
                              np.log1p(-2.0 * np.sin(0.5 * theta[n - 1::-1]) ** 2)))
    log_cos = log_sin[::-1]
    log_weight = (math.log(math.pi**2 * h / 8.0) + np.logaddexp(t, -t)
                  - 2.0 * np.logaddexp(u, -u) + math.log(2.0))  # cosh x = (e^x + e^-x)/2
    for table in (log_sin, log_cos, log_weight):
        table.flags.writeable = False
    return log_sin, log_cos, log_weight


@lru_cache(maxsize=4096)  # the default norm grids need 570 entries
def _theta_moment(sin_exp: float, cos_exp: float) -> float:
    """log of the integral over (0, pi/2) of sin^sin_exp * cos^cos_exp, by
    one tanh-sinh rule summed in log form. The integrand's peak is about
    1/sqrt(2 (s + c)) wide in theta, so the step 2^-k is set by the
    exponents, k = max(5, ceil(log2(4 sqrt(s + c + 1)))), not adaptively.
    Callers pass float exponents: an int and its equal float share one cache
    entry, so the value must not depend on which of them came first.
    Exponents that need a step finer than 2^-_MAX_LEVEL raise
    QuadratureError before any table is built."""
    if sin_exp < 0 or cos_exp < 0:
        raise ValueError("combined trigonometric exponents must be nonnegative")
    level = max(5, math.ceil(math.log2(4.0 * math.sqrt(sin_exp + cos_exp + 1.0))))
    if level > _MAX_LEVEL:
        raise QuadratureError(f"sin^{sin_exp:g} cos^{cos_exp:g} needs a tanh-sinh step "
                              f"of 2^-{level}, finer than 2^-{_MAX_LEVEL}")
    log_sin, log_cos, log_weight = _tanh_sinh_nodes(level)
    terms = sin_exp * log_sin + cos_exp * log_cos + log_weight
    peak = terms.max()
    return float(peak + np.log(np.exp(terms - peak).sum()))


def norm_quadrature(spec: DomainSpec, alpha) -> float:
    """Oracle norm: exact inner integrations, one numeric theta integral,
    combined as logs. A norm that underflows a double is QuadratureError."""
    if spec.kind == "d2":
        a1, a2, a3 = check_index_d2(alpha)
        # r3 then rho integrated exactly; combined sine exponent stays >= 1
        # exactly on the admissible set.
        sin_exp = 2 * (a1 + a2 + a3) + 5
        cos_exp = 2 * a2 + 1
        log_norm = math.log(4.0 * math.pi**3) + _theta_moment(float(sin_exp), float(cos_exp)) \
            - math.log((2 * a3 + 2) * (a1 + 2 * a2 + 2 * a3 + 5))
    elif spec.kind == "d1":
        a1, a2, a3, a4 = check_index_d1(alpha)
        p, lam = spec.p, spec.lam
        big_a = (2 * a1 + 2 * a2 + 4) / p
        big_b = (2 * a4 + 2) / lam
        sin_exp = 2 * a3 + 1
        cos_exp = 2 * big_a + 2 * a3 + 2 * big_b + 1
        r_denominator = big_a + 2 * a3 + 2 * big_b + 2  # exponent + 1 of the R integral
        log_norm = math.log(8.0 * math.pi**4 / p) + math.lgamma(a1 + 1.0) \
            + math.lgamma(a2 + 1.0) - math.lgamma(a1 + a2 + 2.0) \
            + _theta_moment(float(sin_exp), float(cos_exp)) \
            - math.log((2 * a4 + 2) * r_denominator)
    else:
        raise ValueError(f"no quadrature oracle for domain kind {spec.kind!r}")
    norm = math.exp(log_norm)
    if norm == 0.0:
        raise QuadratureError(f"the oracle norm of {alpha} underflows a double")
    return norm
