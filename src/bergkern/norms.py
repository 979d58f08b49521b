"""Closed-form squared L2 norms of monomials on d1 and d2, plus an
independent quadrature oracle.

The closed forms are gamma-ratio expressions evaluated through log-gamma.
The oracle reduces each norm to a single theta integral (the two inner
integrals are power functions with polynomial limits and are integrated
exactly), so it never uses the gamma identities it is checking. Many
indices share that integral (a d1 integrand depends on alpha only through
a1+a2, a3 and a4, a d2 one only through a1+a2+a3 and a2), so each distinct
(sine, cosine) exponent pair is integrated once per process and kept in a
bounded cache; the default norm grids need 570 entries.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .domains import DomainSpec
from .errors import QuadratureError
from .numerics import log_gamma

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)

QUAD_TOL = 1e-12
_MAX_PANELS = 10**4


def check_index_d2(alpha) -> tuple[int, int, int]:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != 3:
        raise ValueError("d2 multi-index must have length 3")
    a1, a2, a3 = alpha
    if a2 < 0 or a3 < 0 or a1 < -2 - a2 - a3:
        raise ValueError(
            f"inadmissible d2 index {alpha}: need a2 >= 0, a3 >= 0, a1 >= -2-a2-a3")
    return alpha


def check_index_d1(alpha) -> tuple[int, int, int, int]:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != 4:
        raise ValueError("d1 multi-index must have length 4")
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
    """Squared L2(d2) norm of z^alpha over the Laurent-admissible index set."""
    a1, a2, a3 = check_index_d2(alpha)
    lg = log_gamma(a2 + 1.0) + log_gamma(a1 + a2 + a3 + 3.0) \
        - log_gamma(a1 + 2 * a2 + a3 + 4.0)
    return math.pi**3 * math.exp(lg) / ((a3 + 1) * (a1 + 2 * a2 + 2 * a3 + 5))


def norm_d1(alpha, p: float, lam: float) -> float:
    """Squared L2(d1(p, lam)) norm of z^alpha, alpha >= 0 componentwise."""
    a1, a2, a3, a4 = check_index_d1(alpha)
    DomainSpec.d1(p, lam)
    s, _ = d1_exponents(alpha, p, lam)
    lg = log_gamma(a1 + 1.0) + log_gamma(a2 + 1.0) + log_gamma(a3 + 1.0) \
        + log_gamma(2 * s - a3 - 1.0) - log_gamma(a1 + a2 + 2.0) - log_gamma(2 * s)
    return math.pi**4 * math.exp(lg) / (p * (a4 + 1) * (s + (a4 + 1) / lam))


def norm_closed(spec: DomainSpec, alpha) -> float:
    if spec.kind == "d2":
        return norm_d2(alpha)
    if spec.kind == "d1":
        return norm_d1(alpha, spec.p, spec.lam)
    raise ValueError(f"no closed norm for domain kind {spec.kind!r}")


def adaptive_gauss(f, lo: float, hi: float, tol: float = QUAD_TOL,
                   max_panels: int = _MAX_PANELS) -> float:
    """Adaptive bisection with a fixed 15-point Gauss rule per panel.

    A panel is accepted when splitting it changes its estimate by less than
    its length-proportional share of the tolerance budget.
    """
    def panel(a, b):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        return half * float(np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES)))

    whole = panel(lo, hi)
    budget = tol * (1.0 + abs(whole))
    stack = [(lo, hi, whole)]
    total = 0.0
    panels = 0
    while stack:
        a, b, est = stack.pop()
        panels += 1
        if panels > max_panels:
            raise QuadratureError(f"adaptive_gauss exceeded {max_panels} panels")
        mid = 0.5 * (a + b)
        left = panel(a, mid)
        right = panel(mid, b)
        if abs(left + right - est) <= budget * (b - a) / (hi - lo):
            total += left + right
        else:
            stack.append((a, mid, left))
            stack.append((mid, b, right))
    return total


@lru_cache(maxsize=4096)  # the default norm grids need 570 entries
def _theta_moment(sin_exp: float, cos_exp: float) -> float:
    """integral over (0, pi/2) of sin^sin_exp * cos^cos_exp by quadrature.
    Callers pass float exponents: an int and its equal float share one cache
    entry, so the value must not depend on which of them came first.
    The integrand is positive, so a zero integral means it underflowed at
    every node: QuadratureError."""
    if sin_exp < 0 or cos_exp < 0:
        raise ValueError("combined trigonometric exponents must be nonnegative")

    def f(theta):
        return np.sin(theta)**sin_exp * np.cos(theta)**cos_exp

    moment = adaptive_gauss(f, 0.0, 0.5 * math.pi)
    if moment == 0.0:
        raise QuadratureError(f"sin^{sin_exp:g} cos^{cos_exp:g} underflows at every node")
    return moment


def norm_quadrature(spec: DomainSpec, alpha) -> float:
    """Oracle norm: exact inner integrations, one numeric theta integral."""
    if spec.kind == "d2":
        a1, a2, a3 = check_index_d2(alpha)
        # r3 then rho integrated exactly; combined sine exponent stays >= 1
        # exactly on the admissible set.
        sin_exp = 2 * (a1 + a2 + a3) + 5
        cos_exp = 2 * a2 + 1
        theta = _theta_moment(float(sin_exp), float(cos_exp))
        return 4.0 * math.pi**3 * theta / ((2 * a3 + 2) * (a1 + 2 * a2 + 2 * a3 + 5))
    if spec.kind == "d1":
        a1, a2, a3, a4 = check_index_d1(alpha)
        p, lam = spec.p, spec.lam
        big_a = (2 * a1 + 2 * a2 + 4) / p
        big_b = (2 * a4 + 2) / lam
        sin_exp = 2 * a3 + 1
        cos_exp = 2 * big_a + 2 * a3 + 2 * big_b + 1
        theta = _theta_moment(float(sin_exp), float(cos_exp))
        front = 8.0 * math.pi**4 * math.exp(
            log_gamma(a1 + 1.0) + log_gamma(a2 + 1.0) - log_gamma(a1 + a2 + 2.0)) / p
        r_denominator = big_a + 2 * a3 + 2 * big_b + 2  # exponent + 1 of the R integral
        return front * theta / ((2 * a4 + 2) * r_denominator)
    raise ValueError(f"no quadrature oracle for domain kind {spec.kind!r}")
