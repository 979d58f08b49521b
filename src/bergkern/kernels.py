"""Bergman kernel evaluation by two independent routes.

Closed route: d1 through a scalar potential whose weighted first-order Euler
derivative (taken with exact dual-number gradients) is the kernel; d2 through
a rational function of the Hermitian products nu_j = z_j * conj(zeta_j).

Series route: truncated orthonormal-monomial expansions with coefficients
from the closed norm formulas (d1, d2) or the residue/Appell form (complex
ellipsoids). d1 and d2 share one engine, _monomial_series, which sums the
monomials of a few variables shell by shell in total degree: d1 in
(nu1+nu2, nu3, nu4) and d2 in (nu1 + nu2/nu1, nu3/nu1), the binomial theorem
folding each pair of exponents that enters only through its sum.

The removable singularity of the closed d1 potential at nu3 = 0 is eliminated
algebraically: with w = sqrt(1 - 4*nu3), (1 - w)/(4*nu3) = 1/(1 + w) exactly,
so no factor is ever divided by nu3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .domains import PointPair
from .errors import ConvergenceError, RegionError, SingularityError
from .hypergeo import (DEFAULT_POLICY, SeriesValue, TruncationPolicy, _LogSeq,
                       _shell_block, _shell_gather, _sum_shells, appell_fa)
from .numerics import DualComplex, dual_var, principal_pow, principal_sqrt

# Near-boundary pairs converge slowly; the degree cap trades runtime for reach.
KERNEL_POLICY = TruncationPolicy(max_total_degree=400, tail_tol=1e-10,
                                 consecutive_small_shells=3)

_NEG_INF = float("-inf")
_DENOM_FLOOR = 1e-100  # |d|^3 below 1e-300 <=> |d| below 1e-100


@dataclass(frozen=True)
class KernelValue:
    value: complex
    method: str  # "closed" | "series"
    tail_estimate: float | None = None


@dataclass(frozen=True)
class OperatorWeights:
    """Per-coordinate weights c_j and prefactor of the first-order operator
    K = prefactor * sum_j c_j * d/dnu_j (nu_j * potential)."""

    weights: tuple[float, float, float, float]
    prefactor: float

    def __post_init__(self):
        if any(not w > 0 for w in self.weights) or not self.prefactor > 0:
            raise ValueError("operator weights and prefactor must be positive")

    @classmethod
    def for_d1(cls, p: float, lam: float) -> "OperatorWeights":
        """Validated weights (1/p, 1/p, 1, 2/lam): the unique choice whose
        multiplier sum matches the series-coefficient ratio."""
        return cls((1.0 / p, 1.0 / p, 1.0, 2.0 / lam), p / math.pi**4)

    @classmethod
    def alternate_d1(cls, p: float, lam: float) -> "OperatorWeights":
        """Rejected weight set (2/p, 2/p, 1, 2/lam); fails the series
        cross-check and is retained only for report adjudication."""
        return cls((2.0 / p, 2.0 / p, 1.0, 2.0 / lam), p / math.pi**4)


def _plain(x) -> complex:
    return x.val if isinstance(x, DualComplex) else complex(x)


def potential_closed_d1(nu, p: float, lam: float):
    """Closed-form scalar potential of the d1 kernel, as a function of the
    four Hermitian products. Accepts complex or DualComplex entries and
    returns the matching type.

    Requires |nu3| < 1/4 and the derived contractions |mu1|+|mu2| < 1,
    |mu4| < 1.
    """
    nu1, nu2, nu3, nu4 = nu
    if abs(_plain(nu3)) >= 0.25:
        raise RegionError(f"potential_closed_d1 requires |nu3| < 1/4, got {_plain(nu3)}")
    expo = 4.0 / p + 2.0 / lam
    w = principal_sqrt(1.0 - 4.0 * nu3)
    onepw = w + 1.0
    scaled_c = (2.0**expo) / (principal_pow(1.0 - 4.0 * nu3, 1.5)
                              * principal_pow(onepw, expo - 1.0))
    mu1 = (2.0**(2.0 / p)) * nu1 / principal_pow(onepw, 2.0 / p)
    mu2 = (2.0**(2.0 / p)) * nu2 / principal_pow(onepw, 2.0 / p)
    mu4 = (2.0**(2.0 / lam)) * nu4 / principal_pow(onepw, 2.0 / lam)
    if abs(_plain(mu1)) + abs(_plain(mu2)) >= 1.0:
        raise RegionError("potential_closed_d1 requires |mu1| + |mu2| < 1")
    if abs(_plain(mu4)) >= 1.0:
        raise RegionError("potential_closed_d1 requires |mu4| < 1")
    d12 = 1.0 - mu1 - mu2
    d4 = 1.0 - mu4
    # Reduced numerators: each bracket divided by 4*nu3, using
    # (w - 1)/(4*nu3) = -1/(1 + w) and (w - 1 + 4*nu3)/(4*nu3) = w/(1 + w).
    num1 = 2.0 / lam - (2.0 / lam - 1.0) / onepw
    ratio = w / onepw
    d4sq = d4 * d4
    d12sq = d12 * d12
    return scaled_c * (num1 / (d4sq * d12sq)
                       + 4.0 * ratio / (p * d4sq * (d12sq * d12))
                       + 4.0 * (mu4 * ratio) / (lam * (d4sq * d4) * d12sq))


def kernel_closed_d1_nu(nu, p: float, lam: float,
                        weights: OperatorWeights | None = None) -> KernelValue:
    """Closed d1 kernel at a Hermitian-product vector, via exact dual-number
    application of the first-order operator to the potential."""
    nu = tuple(complex(v) for v in nu)
    if len(nu) != 4:
        raise ValueError("d1 kernel needs a 4-component nu vector")
    if weights is None:
        weights = OperatorWeights.for_d1(p, lam)
    g = potential_closed_d1(tuple(dual_var(v, j) for j, v in enumerate(nu)), p, lam)
    acc = 0j
    for j, cj in enumerate(weights.weights):
        acc += cj * (g.val + nu[j] * g.grad[j])
    return KernelValue(weights.prefactor * acc, "closed")


def kernel_closed_d1(pair: PointPair, p: float, lam: float,
                     weights: OperatorWeights | None = None) -> KernelValue:
    return kernel_closed_d1_nu(pair.nu, p, lam, weights)


def kernel_closed_d2_nu(nu) -> KernelValue:
    """Closed d2 kernel: a rational function of (nu1, nu2, nu3).

    Numerator nu1^2 * ((nu1+nu3)(nu1-nu1^2-nu2) + 2*nu1*(nu1-nu3)): the
    series-validated assembly of the two Laurent partial fractions (the
    shorter display it replaces fails the series cross-check; see
    _kernel_closed_d2_alternate and the verification report).
    """
    nu = tuple(complex(v) for v in nu)
    if len(nu) != 3:
        raise ValueError("d2 kernel needs a 3-component nu vector")
    n1, n2, n3 = nu
    if n1 == 0:
        raise ValueError("d2 kernel requires nu1 != 0")
    da = n1 - n3
    db = n1 - n1 * n1 - n2
    if abs(da * db) < _DENOM_FLOOR:
        raise SingularityError(f"d2 kernel denominator vanishes at nu = {nu}")
    num = n1 * n1 * ((n1 + n3) * db + 2.0 * n1 * da)
    return KernelValue(num / (math.pi**3 * da**3 * db**3), "closed")


def kernel_closed_d2(pair: PointPair) -> KernelValue:
    return kernel_closed_d2_nu(pair.nu)


def _kernel_closed_d2_alternate(nu) -> complex:
    # Rejected numerator variant, retained for report adjudication only.
    n1, n2, n3 = (complex(v) for v in nu)
    num = 2.0 * n1**4 - (n1**2 * n3 + n1**3) * (n1**2 + n2)
    return num / (math.pi**3 * (n1 - n3)**3 * (n1 - n1 * n1 - n2)**3)


# --- series route ------------------------------------------------------------

def _powers_logseq(z: complex, length: int) -> _LogSeq:
    m = np.arange(length)
    if z == 0:
        logmag = np.full(length, _NEG_INF)
        logmag[0] = 0.0
        phase = np.ones(length, dtype=complex)
    else:
        logmag = m * math.log(abs(z))
        phase = np.exp(1j * math.atan2(z.imag, z.real) * m)
    return _LogSeq(logmag, phase)


def _monomial_series(xs, block_table, policy: TruncationPolicy, what: str) -> SeriesValue:
    """Sum of exp(log_coef) * prod_i xs[i]^comps[:, i] over the rows of every
    total-degree shell, where block_table(lo, top) returns (block, log_coef)
    for a block of shells from degree lo and one log-coefficient per row."""
    length = policy.max_total_degree + 1
    seqs = [_powers_logseq(x, length) for x in xs]
    return _sum_shells(lambda lo, top: _shell_gather(seqs, *block_table(lo, top)), policy, what)


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, x.tolist()), float, len(x))


# Block tables are reused across every pair of one parameter set. A series
# of up to degree 400 uses at most 350 blocks, so the bound keeps whole
# parameter sets while capping memory when many sets are evaluated in one
# process.
_SHELL_CACHE_SIZE = 1024


@lru_cache(maxsize=_SHELL_CACHE_SIZE)
def _d1_block(p: float, lam: float, with_operator_factor: bool, lo: int, top: int):
    """A block of d1 shells from degree lo, with rows (q, a3, a4), and the
    log-coefficients of (nu1+nu2)^q nu3^a3 nu4^a4. The nu1^a1 nu2^a2 terms
    with a1 + a2 = q share the factor (q+1)!/(a1! a2!), so by the binomial
    theorem they fold into (q+1) (nu1+nu2)^q."""
    block = _shell_block(3, lo, top)
    q, a3, a4 = block.comps.T.astype(float)
    s = (q + 2.0) / p + a3 + (a4 + 1.0) / lam + 1.0
    log_fact = _lgamma(np.arange(1.0, block.hi + 1.0))  # log(a3!) for a3 < hi
    lg = np.log(q + 1.0) + np.log(a4 + 1.0) + _lgamma(2.0 * s) \
        - _lgamma(2.0 * s - a3 - 1.0) - log_fact[block.comps[:, 1]]
    if with_operator_factor:
        lg += np.log(s + (a4 + 1.0) / lam)
    lg.setflags(write=False)
    return block, lg


@lru_cache(maxsize=_SHELL_CACHE_SIZE)
def _d2_block(lo: int, top: int):
    """A block of shells of the reindexed d2 Laurent series from degree lo,
    with rows (r, a3), and the log-coefficients of
    (nu1 + nu2/nu1)^r (nu3/nu1)^a3: the nu1^k (nu2/nu1)^a2 terms with
    k + a2 = r fold by the binomial theorem, as for d1."""
    block = _shell_block(2, lo, top)
    r, a3 = block.comps.T.astype(float)
    lg = np.log(a3 + 1.0) + np.log(r + a3 + 3.0) + np.log(r + 1.0)
    lg.setflags(write=False)
    return block, lg


def potential_series_d1(nu, p: float, lam: float,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Series oracle for the closed d1 potential (same coefficients as the
    kernel series, without the operator multiplier or prefactor)."""
    n1, n2, n3, n4 = (complex(v) for v in nu)
    return _monomial_series((n1 + n2, n3, n4), partial(_d1_block, p, lam, False),
                            policy, "d1 kernel series")


def kernel_series_d1_nu(nu, p: float, lam: float,
                        policy: TruncationPolicy = KERNEL_POLICY) -> KernelValue:
    """Orthonormal-series d1 kernel at a Hermitian-product vector."""
    nu = tuple(complex(v) for v in nu)
    if len(nu) != 4:
        raise ValueError("d1 kernel needs a 4-component nu vector")
    n1, n2, n3, n4 = nu
    sv = _monomial_series((n1 + n2, n3, n4), partial(_d1_block, p, lam, True),
                          policy, "d1 kernel series")
    pref = p / math.pi**4
    return KernelValue(pref * sv.value, "series", pref * sv.tail_estimate)


def kernel_series_d1(pair: PointPair, p: float, lam: float,
                     policy: TruncationPolicy = KERNEL_POLICY) -> KernelValue:
    return kernel_series_d1_nu(pair.nu, p, lam, policy)


def kernel_series_d2_nu(nu, policy: TruncationPolicy = KERNEL_POLICY) -> KernelValue:
    """Reindexed Laurent series for the d2 kernel, truncated by total degree
    in (k, a2, a3) and scaled by 1/(pi^3 nu1^2)."""
    nu = tuple(complex(v) for v in nu)
    if len(nu) != 3:
        raise ValueError("d2 kernel needs a 3-component nu vector")
    n1, n2, n3 = nu
    if n1 == 0:
        raise ValueError("d2 kernel series requires nu1 != 0")
    x2 = n2 / n1
    x3 = n3 / n1
    if abs(x3) >= 1.0 or abs(n1) + abs(x2) >= 1.0:
        raise ConvergenceError(
            "d2 series requires |nu3/nu1| < 1 and |nu1| + |nu2/nu1| < 1")
    sv = _monomial_series((n1 + x2, x3), _d2_block, policy, "d2 kernel series")
    pref = 1.0 / (math.pi**3 * n1 * n1)
    return KernelValue(pref * sv.value, "series", abs(pref) * sv.tail_estimate)


def kernel_series_d2(pair: PointPair, policy: TruncationPolicy = KERNEL_POLICY) -> KernelValue:
    return kernel_series_d2_nu(pair.nu, policy)


def kernel_series_ellipsoid_nu(nu, exponents,
                               policy: TruncationPolicy = KERNEL_POLICY) -> KernelValue:
    """Residue/Appell series kernel of the complex ellipsoid
    {sum |z_j|^(2 p_j) < 1} for positive integer exponents p_j."""
    nu = tuple(complex(v) for v in nu)
    ps = []
    for e in exponents:
        if float(e) != int(e) or int(e) < 1:
            raise ValueError("ellipsoid kernel needs positive integer exponents")
        ps.append(int(e))
    n = len(ps)
    if len(nu) != n or n == 0:
        raise ValueError("nu and exponents must have equal positive length")
    args = tuple(v**pj for v, pj in zip(nu, ps))
    if sum(abs(v) for v in args) >= 1.0:
        raise RegionError("ellipsoid kernel requires sum |nu_j|^(p_j) < 1")

    pref = math.prod(ps) / math.pi**n
    total = 0j
    tail = 0.0
    ks = [tuple()]
    for pj in ps:
        ks = [k + (kj,) for k in ks for kj in range(pj)]
    for k in ks:
        a = 1.0 + sum((kj + 1.0) / pj for kj, pj in zip(k, ps))
        lg = math.lgamma(a) - sum(math.lgamma((kj + 1.0) / pj) for kj, pj in zip(k, ps))
        coef = math.exp(lg)
        mono = math.prod((v**kj for v, kj in zip(nu, k)), start=1.0 + 0j)
        fa = appell_fa(a, (1.0,) * n, tuple((kj + 1.0) / pj for kj, pj in zip(k, ps)),
                       args, policy)
        total += coef * mono * fa.value
        tail += abs(coef * mono) * fa.tail_estimate
    return KernelValue(pref * total, "series", pref * tail)


def kernel_series_ellipsoid(pair: PointPair, exponents,
                            policy: TruncationPolicy = KERNEL_POLICY) -> KernelValue:
    return kernel_series_ellipsoid_nu(pair.nu, exponents, policy)
