"""Bergman kernel evaluation by two independent routes.

Closed route: d1 through a scalar potential whose weighted first-order Euler
derivative is the kernel, taken exactly as one dual-number derivative along
the direction (c_j nu_j); d2 through a rational function of the Hermitian
products nu_j = z_j * conj(zeta_j).

Series route: truncated orthonormal-monomial expansions, sum_alpha
nu^alpha / ||z^alpha||^2, with coefficients from the closed norm formulas.
All three kernels share one engine, _monomial_series, which sums the
monomials of a few variables by total degree, shell by shell: d1 in
(nu1+nu2, nu3, nu4) and d2 in (nu1 + nu2/nu1, nu3/nu1), the binomial theorem
folding each pair of exponents that enters only through its sum; an
ellipsoid, for any positive exponents, in its nu_j, with its unit-exponent
coordinates folded into their sum by the multinomial theorem. The d1 and
ellipsoid coefficients are gamma ratios, evaluated for a whole block of
shells at once by numerics.log_gamma_array.

The removable singularity of the closed d1 potential at nu3 = 0 is eliminated
algebraically: with w = sqrt(1 - 4*nu3), (1 - w)/(4*nu3) = 1/(1 + w) exactly,
so no factor is ever divided by nu3.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .domains import DomainSpec, PointPair
from .errors import ConvergenceError, RegionError, SingularityError
from .hypergeo import (_CACHED_VARS, DEFAULT_POLICY, SeriesValue, TruncationPolicy, _LogSeq,
                       _shell_block, _shell_gather, _sum_shells, _tables_on_demand)
from .numerics import DualComplex, log_gamma_array, principal_pow, principal_sqrt

# Near-boundary pairs converge slowly; the degree cap trades runtime for reach.
# A d1 series stops earlier, at degree 400, where it meets hypergeo's row
# ceiling. An ellipsoid series scales the cap by its largest exponent (see
# kernel_series_ellipsoid_nu), and (2,2,2), a series of 3 variables, meets
# the ceiling at degree 400 too.
KERNEL_POLICY = TruncationPolicy(max_total_degree=1000, tail_tol=1e-10)

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


def _nu(nu, n: int, what: str) -> tuple[complex, ...]:
    """nu as a tuple of n complex numbers; ValueError on another length or a
    non-finite component, which would otherwise give a NaN kernel value."""
    nu = tuple(complex(v) for v in nu)
    if len(nu) != n:
        raise ValueError(f"{what} needs a {n}-component nu vector, got {len(nu)}")
    if not all(map(cmath.isfinite, nu)):
        raise ValueError(f"{what} needs a finite nu vector, got {nu}")
    return nu


def _plain(x) -> complex:
    return x.val if isinstance(x, DualComplex) else complex(x)


def _d1_scale_exponent(p: float, lam: float, what: str) -> float:
    """4/p + 2/lam, the exponent of the closed d1 potential's scale factor
    2**(4/p + 2/lam). ValueError unless p and lam are finite and > 0, the
    rule of DomainSpec.d1; RegionError from 1024 on, where the factor
    overflows a double. Both d1 routes call this, so they accept the same
    (p, lam): far past the bound the series would lose its digits silently
    (0.02 at p = 1e-300, where the kernel is near 1e299), each coefficient
    being a difference of two log-gammas near 2s log(2s) with s > 2/p."""
    spec = DomainSpec.d1(p, lam)
    expo = 4.0 / spec.p + 2.0 / spec.lam
    if expo >= 1024.0:
        raise RegionError(f"{what} requires 4/p + 2/lam < 1024, got {expo}")
    return expo


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
    expo = _d1_scale_exponent(p, lam, "potential_closed_d1")
    w = principal_sqrt(1.0 - 4.0 * nu3)
    onepw = w + 1.0
    scaled_c = (2.0**expo) / (principal_pow(1.0 - 4.0 * nu3, 1.5)
                              * principal_pow(onepw, expo - 1.0))
    onepw_p = principal_pow(onepw, 2.0 / p)
    mu1 = (2.0**(2.0 / p)) * nu1 / onepw_p
    mu2 = (2.0**(2.0 / p)) * nu2 / onepw_p
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
    """Closed d1 kernel at a Hermitian-product vector. The operator
    sum_j c_j d/dnu_j (nu_j g) equals (sum_j c_j) g + D_v g, where D_v g is
    the derivative of the potential g along v_j = c_j nu_j, taken exactly in
    one dual-number evaluation."""
    nu = _nu(nu, 4, "d1 kernel")
    # before the weights, which divide by p and lam
    _d1_scale_exponent(p, lam, "closed d1 kernel")
    if weights is None:
        weights = OperatorWeights.for_d1(p, lam)
    seeded = tuple(DualComplex(v, c * v) for v, c in zip(nu, weights.weights))
    g = potential_closed_d1(seeded, p, lam)
    acc = sum(weights.weights) * g.val + g.der
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
    n1, n2, n3 = nu = _nu(nu, 3, "d2 kernel")
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

def _powers_logseq(xs, length: int) -> _LogSeq:
    """Powers x^m, m = 0..length-1, of every x in xs, in log/phase form,
    one row per x."""
    m = np.arange(length)
    logs = np.array([math.log(abs(x)) if x else _NEG_INF for x in xs])[:, None]
    angles = np.array([1j * math.atan2(x.imag, x.real) if x else 0j for x in xs])[:, None]
    with np.errstate(invalid="ignore"):  # 0 * -inf at m = 0 when x = 0
        logmag = m * logs
    logmag[logs[:, 0] == _NEG_INF, 0] = 0.0
    return _LogSeq(logmag, np.exp(angles * m))


def _monomial_series(xs, block_table, policy: TruncationPolicy, what: str) -> SeriesValue:
    """Sum of exp(log_coef) * prod_i xs[i]^comps[:, i] over the rows of every
    shell, where block_table(lo) returns (block, log_coef) for a block of
    shells from degree lo and one log-coefficient per row."""
    tables = _tables_on_demand(_powers_logseq, xs)

    def shells(lo):
        block, log_coef = block_table(lo)
        return _shell_gather(tables(block.hi), block, log_coef).tolist()

    return _sum_shells(shells, policy, what)


# Block tables are reused across every pair of one parameter set. A d1
# series stops at hypergeo's row ceiling (degree 400) and a d2 series at the
# 1000-degree cap of KERNEL_POLICY, each within 350 blocks, as does (2,2,2),
# which meets the ceiling. The (1,2) ellipsoid takes 573 blocks to its scaled
# cap of 2000 degrees; (2,3) takes 1549 to its cap of 3000, so only a (2,3)
# series that raises at the cap evicts blocks of its own set, and its
# deepest pinned pair (1172 shells) stops within 190. So the bound keeps
# whole parameter sets while capping the blocks held when many sets are
# evaluated in one process. A block is keyed by its first degree, not by the
# degree cap, so one entry serves every cap.
_SHELL_CACHE_SIZE = 1024


@lru_cache(maxsize=_SHELL_CACHE_SIZE)
def _d1_block(p: float, lam: float, with_operator_factor: bool, lo: int):
    """A block of d1 shells from degree lo, with rows (q, a3, a4), and the
    log-coefficients of (nu1+nu2)^q nu3^a3 nu4^a4. The nu1^a1 nu2^a2 terms
    with a1 + a2 = q share the factor (q+1)!/(a1! a2!), so by the binomial
    theorem they fold into (q+1) (nu1+nu2)^q."""
    block = _shell_block(3, lo)
    q, a3, a4 = block.comps.T.astype(float)
    s = (q + 2.0) / p + a3 + (a4 + 1.0) / lam + 1.0
    log_fact = log_gamma_array(np.arange(1.0, block.hi + 1.0))  # log(a3!) for a3 < hi
    lg = np.log(q + 1.0) + np.log(a4 + 1.0) + log_gamma_array(2.0 * s) \
        - log_gamma_array(2.0 * s - a3 - 1.0) - log_fact[block.comps[:, 1]]
    if with_operator_factor:
        lg += np.log(s + (a4 + 1.0) / lam)
    lg.setflags(write=False)
    return block, lg


@lru_cache(maxsize=_SHELL_CACHE_SIZE)
def _d2_block(lo: int):
    """A block of shells of the reindexed d2 Laurent series from degree lo,
    with rows (r, a3), and the log-coefficients of
    (nu1 + nu2/nu1)^r (nu3/nu1)^a3: the nu1^k (nu2/nu1)^a2 terms with
    k + a2 = r fold by the binomial theorem, as for d1."""
    block = _shell_block(2, lo)
    r, a3 = block.comps.T.astype(float)
    lg = np.log(a3 + 1.0) + np.log(r + a3 + 3.0) + np.log(r + 1.0)
    lg.setflags(write=False)
    return block, lg


def potential_series_d1(nu, p: float, lam: float,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Series oracle for the closed d1 potential (same coefficients as the
    kernel series, without the operator multiplier or prefactor)."""
    n1, n2, n3, n4 = (complex(v) for v in nu)
    _d1_scale_exponent(p, lam, "potential_series_d1")
    return _monomial_series((n1 + n2, n3, n4), partial(_d1_block, p, lam, False),
                            policy, "d1 kernel series")


def kernel_series_d1_nu(nu, p: float, lam: float,
                        policy: TruncationPolicy = KERNEL_POLICY) -> KernelValue:
    """Orthonormal-series d1 kernel at a Hermitian-product vector."""
    n1, n2, n3, n4 = _nu(nu, 4, "d1 kernel")
    _d1_scale_exponent(p, lam, "d1 kernel series")
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
    n1, n2, n3 = _nu(nu, 3, "d2 kernel")
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


@lru_cache(maxsize=_SHELL_CACHE_SIZE)
def _ellipsoid_block(ps: tuple[float, ...], ones: int, lo: int):
    """A block of ellipsoid shells from degree lo, with rows alpha, and the
    log-coefficients of nu^alpha, log Gamma(sum_j c_j + max(ones, 1)) -
    sum_j log Gamma(c_j) with c_j = (alpha_j + 1)/p_j. A first variable with
    p_1 = 1 stands for the sum of `ones` unit-exponent coordinates: their
    monomials of degree q fold into (sum nu_j)^q, whose c is q + 1 and whose
    coordinates add ones - 1 to the Gamma argument."""
    block = _shell_block(len(ps), lo)
    # c_j and log Gamma(c_j) are looked up in tables over alpha_j = 0..hi-1
    exps = np.arange(1.0, block.hi + 1.0)
    front = np.full(len(block.comps), float(max(ones, 1)))
    lg_c = np.zeros(len(block.comps))
    for col, pj in zip(block.comps.T, ps):
        c = exps / pj
        front += c.take(col)
        lg_c += log_gamma_array(c).take(col)
    lg = log_gamma_array(front) - lg_c
    lg.setflags(write=False)
    return block, lg


def kernel_series_ellipsoid_nu(nu, exponents,
                               policy: TruncationPolicy = KERNEL_POLICY) -> KernelValue:
    """Monomial series kernel of the complex ellipsoid {sum |z_j|^(2 p_j) < 1}
    for positive exponents p_j,

        K = (prod_j p_j / pi^n) sum_alpha Gamma(1 + sum_j c_j) / prod_j Gamma(c_j) nu^alpha,

    with c_j = (alpha_j + 1)/p_j, each term being nu^alpha / ||z^alpha||^2,
    summed by total degree |alpha|. A pair dominated by coordinate j needs
    about p_j total degrees per degree of its residue form, alpha_j =
    k_j + p_j m_j, so the policy's degree cap is scaled by max(1, max_j p_j).
    The coordinates with p_j = 1 enter only through their sum, which is
    summed as one variable (see _ellipsoid_block)."""
    ps = DomainSpec.ellipsoid(exponents).exponents
    n = len(ps)
    nu = _nu(nu, n, "ellipsoid kernel")
    if sum(abs(v) ** pj for v, pj in zip(nu, ps)) >= 1.0:
        raise RegionError("ellipsoid kernel requires sum |nu_j|^(p_j) < 1")

    ones = ps.count(1)
    unit = [sum(v for v, pj in zip(nu, ps) if pj == 1)] if ones else []
    xs = unit + [v for v, pj in zip(nu, ps) if pj != 1]
    folded = ((1.0,) if ones else ()) + tuple(pj for pj in ps if pj != 1)
    # cached as hypergeo caches the compositions
    blocks = _ellipsoid_block if len(folded) <= _CACHED_VARS else _ellipsoid_block.__wrapped__
    cap = math.ceil(policy.max_total_degree * max(1.0, *ps))
    sv = _monomial_series(xs, partial(blocks, folded, ones),
                          replace(policy, max_total_degree=cap), "ellipsoid kernel series")
    pref = math.prod(ps) / math.pi**n
    return KernelValue(pref * sv.value, "series", pref * sv.tail_estimate)


def kernel_series_ellipsoid(pair: PointPair, exponents,
                            policy: TruncationPolicy = KERNEL_POLICY) -> KernelValue:
    return kernel_series_ellipsoid_nu(pair.nu, exponents, policy)
