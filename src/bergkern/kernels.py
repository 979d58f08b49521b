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
coordinates folded into their sum by the multinomial theorem. The
coefficients are built block by block, in order: an ellipsoid's gamma ratios
by numerics.log_gamma_array, and the d1 gamma ratios by a recurrence along
a3, each row its predecessor in the shell before plus the log of a rational
factor, so the d1 tables need no log-gamma. They are held as one sequence of
arrays per parameter set, read side by side with hypergeo's blocks, which
alone hold the exponent rows. A block's terms, exp(log_coef) times a product
of powers of the folded variables, are summed (_shell_gather) in plain
complex arithmetic, from powers built for that block by sequential product,
while the block's largest log-coefficient is at most _DIRECT_MAX_LOG; a
block past it, met only deep in extreme parameter sets, is summed as one exp
of each term's log-magnitude and phase, taken from its exponent row, which
overflows nowhere. No power is kept from one block to the next.

The removable singularity of the closed d1 potential at nu3 = 0 is eliminated
algebraically: with w = sqrt(1 - 4*nu3), (1 - w)/(4*nu3) = 1/(1 + w) exactly,
so no factor is ever divided by nu3.

The rejected d2 numerator and d1 operator weights live only in the private
_kernel_closed_d2_alternate and _kernel_closed_d1_alternate, for the kernel
report's informational rows; no public function evaluates them.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .domains import DomainSpec, PointPair
from .errors import ConvergenceError, RegionError, SingularityError
from .hypergeo import SeriesValue, TruncationPolicy, _Block, _blocks, _Held, _sum_shells
from .numerics import DualComplex, log_gamma_array, principal_pow, principal_sqrt

# The truncation policy of every kernel series, also `bergkern eval`'s and
# `verify kernels`'s. Its cap trades runtime for reach near the boundary. An
# ellipsoid series scales it by its largest exponent (see
# kernel_series_ellipsoid_nu); d1 and (2,2,2), series of 3 variables, stop
# earlier, at degree 400, where they meet hypergeo's row ceiling.
KERNEL_POLICY = TruncationPolicy(max_total_degree=1000, tail_tol=1e-10)

_DENOM_FLOOR = 1e-100  # |d|^3 below 1e-300 <=> |d| below 1e-100


@dataclass(frozen=True)
class KernelValue:
    value: complex
    method: str  # "closed" | "series"
    tail_estimate: float | None = None


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
    (p, lam). Far past the bound the series would fail too: each step of its
    coefficient recurrence (see _d1_block) is a product of three factors
    near 2/p, which overflows a double once p is below about 1e-102."""
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
    _nu(map(_plain, nu), 4, "potential_closed_d1")  # the values of DualComplex entries
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


def _d1_operator(nu, p: float, lam: float, pair_weight: float) -> complex:
    """p/pi^4 sum_j c_j d/dnu_j (nu_j g) for the closed d1 potential g, with
    weights c = (pair_weight/p, pair_weight/p, 1, 2/lam). The operator equals
    (sum_j c_j) g + D_v g, where D_v g is the derivative of g along
    v_j = c_j nu_j, taken exactly in one dual-number evaluation."""
    nu = _nu(nu, 4, "d1 kernel")
    # before the weights, which divide by p and lam
    _d1_scale_exponent(p, lam, "closed d1 kernel")
    weights = (pair_weight / p, pair_weight / p, 1.0, 2.0 / lam)
    seeded = tuple(DualComplex(v, c * v) for v, c in zip(nu, weights))
    g = potential_closed_d1(seeded, p, lam)
    return p / math.pi**4 * (sum(weights) * g.val + g.der)


def kernel_closed_d1_nu(nu, p: float, lam: float) -> KernelValue:
    """Closed d1 kernel at a Hermitian-product vector: the operator
    p/pi^4 sum_j c_j d/dnu_j (nu_j g) on the closed potential g, with weights
    (1/p, 1/p, 1, 2/lam), the unique choice whose multiplier sum matches the
    series-coefficient ratio."""
    return KernelValue(_d1_operator(nu, p, lam, 1.0), "closed")


def kernel_closed_d1(pair: PointPair, p: float, lam: float) -> KernelValue:
    return kernel_closed_d1_nu(pair.nu, p, lam)


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


def _kernel_closed_d1_alternate(nu, p: float, lam: float) -> complex:
    # Rejected weight set (2/p, 2/p, 1, 2/lam), retained for report
    # adjudication only.
    return _d1_operator(nu, p, lam, 2.0)


# --- series route ------------------------------------------------------------

# A block whose largest log-coefficient is at most this is gathered as
# direct complex products, exp(log_coef) * prod_i x_i^comps[:, i]. Every
# folded variable has |x_i| < 1 (each series checks its region first), so
# no factor or partial product of such a block exceeds e^600, and a power
# product that underflows costs at most e^600 * 2^-1074 (about 2e-63)
# absolute per row. Blocks past it are met only deep in extreme sets:
# d1(0.5, 1) from degree 381 (its row ceiling is 400), the (0.3, 0.4)
# ellipsoid from degree 282, (0.5, 3) from 1175 and (2, 3) from 2102. Their
# log-coefficients go on past 709, where exp overflows.
_DIRECT_MAX_LOG = 600.0


def _powers_logseq(xs, length: int) -> np.ndarray:
    """The powers x^m, m = 0..length-1, of every x in xs, one row per x,
    each entry the one before times x, so a shorter build is an exact
    prefix of a longer one. x^0 = 1, also for x = 0."""
    factors = np.empty((len(xs), length), dtype=complex)
    factors[:, 0] = 1.0
    factors[:, 1:] = np.array(xs, dtype=complex)[:, None]
    return np.multiply.accumulate(factors, axis=1)


def _shell_gather(xs, block: _Block, log_coef) -> np.ndarray:
    """Per-shell sums of exp(log_coef) * prod_i x_i^m_i over the block's
    rows m = comps: while the block's largest log-coefficient is at most
    _DIRECT_MAX_LOG, as direct complex products of the powers to block.hi;
    else as one exp of log_coef + sum_i m_i log|x_i| + 1j sum_i m_i arg x_i,
    where a row with m_i > 0 at x_i = 0 is exp(-inf) = 0."""
    comps = block.comps
    # take, not fancy indexing: it is faster with the int32 rows
    if log_coef.max() <= _DIRECT_MAX_LOG:
        direct = _powers_logseq(xs, block.hi)
        terms = direct[0].take(comps[:, 0])
        for i in range(1, comps.shape[1]):
            terms *= direct[i].take(comps[:, i])
        terms *= np.exp(log_coef)
    else:
        logs = log_coef.copy()
        angles = np.zeros(len(comps))
        for x, m in zip(xs, comps.T):
            if x:
                logs += m * math.log(abs(x))
                angles += m * cmath.phase(x)
            else:
                logs[m > 0] = -math.inf
        terms = np.exp(logs + 1j * angles)
    return np.add.reduceat(terms, block.starts)


def _monomial_series(xs, coefficients, policy: TruncationPolicy, what: str) -> SeriesValue:
    """Sum of exp(log_coef) * prod_i xs[i]^comps[:, i] over the rows of every
    shell, for each block of _blocks(len(xs)) and the log-coefficients
    log_coef at the same place of the sequence coefficients."""
    sums = (_shell_gather(xs, block, log_coef).tolist()
            for block, log_coef in zip(_blocks(len(xs)), coefficients))
    return _sum_shells(itertools.chain.from_iterable(sums), policy, what)


# _coefficients(build, nvars, *params): the log-coefficients
# build(*params, block, before) of one parameter set, one array per block of
# _blocks(nvars), in order, before being the array of the block before (None
# for the first). A held array counts its own bytes only: the blocks are
# held, and counted, by _blocks.
_coefficients = _Held(
    lambda build, nvars, *params:
        lambda i, before: build(*params, _blocks(nvars).get(i), before),
    lambda log_coef: log_coef.nbytes)


def _d1_block(p: float, lam: float, block, before):
    """The log-coefficients of (nu1+nu2)^q nu3^a3 nu4^a4 at the rows
    (q, a3, a4) of a block of d1 shells. The nu1^a1 nu2^a2 terms with
    a1 + a2 = q share the factor (q+1)!/(a1! a2!), so by the binomial
    theorem they fold into (q+1) (nu1+nu2)^q.

    The coefficient is (q+1)(a4+1) Gamma(2s) / (Gamma(2s-a3-1) a3!) (s + w),
    where w = (a4+1)/lam and s = (q+2)/p + a3 + w + 1: the closed
    potential's coefficient times the operator's factor s + w. It is built
    along a3: a row with a3 = 0 is log[(q+1)(a4+1)(2s-1)(s+w)], and a row
    with a3 >= 1 is its predecessor (q, a3-1, a4), whose s is s - 1, plus
    log[(2s-2)(2s-1)(s+w) / ((2s-a3-2) a3 (s-1+w))]. The predecessors of the
    a3 >= 1 rows of shell d are the rows of shell d - 1, in order, so the
    shells are built one after another, the first from the last shell of
    the array before. Each row is thus the same sum of the same logs,
    whatever the block layout."""
    # Full-size arrays are reused in place: s becomes 2s, then 2s - a3 - 2,
    # and w becomes s + w, then s - 1 + w.
    q, a4 = block.comps[:, 0], block.comps[:, 2]
    plus1 = np.arange(1.0, block.hi + 1.0)  # e + 1 for each exponent e < hi
    w = (plus1 / lam).take(a4)
    a3 = block.comps[:, 1].astype(float)
    s = ((plus1 + 1.0) / p).take(q)
    s += a3
    s += w
    s += 1.0
    heads = np.flatnonzero(a3 == 0.0)  # the rows that start a chain along a3
    head = (2.0 * s[heads] - 1.0) * plus1.take(q[heads]) * plus1.take(a4[heads])
    sw = np.add(s, w, out=w)
    head *= sw[heads]
    t = np.multiply(s, 2.0, out=s)
    num = t - 1.0
    num *= t - 2.0
    den = np.subtract(t, a3, out=t)
    den -= 2.0
    den *= a3
    num *= sw
    sw -= 1.0
    den *= sw
    num[heads] = head
    den[heads] = 1.0
    num /= den
    lg = np.log(num, out=num)
    stepped = a3 > 0.0
    # shell lo - 1, the end of the array before, has lo (lo + 1) / 2 rows
    prev = lg[:0] if before is None else before[-(block.lo * (block.lo + 1) // 2):]
    for start, size in zip(block.starts.tolist(), block.sizes.tolist()):
        shell = lg[start:start + size]
        shell[stepped[start:start + size]] += prev
        prev = shell
    lg.setflags(write=False)
    return lg


def _d2_block(block, before):
    """The log-coefficients of (nu1 + nu2/nu1)^r (nu3/nu1)^a3 at the rows
    (r, a3) of a block of reindexed d2 Laurent shells: the nu1^k
    (nu2/nu1)^a2 terms with k + a2 = r fold by the binomial theorem."""
    r, a3 = block.comps.T.astype(float)
    lg = np.log(a3 + 1.0) + np.log(r + a3 + 3.0) + np.log(r + 1.0)
    lg.setflags(write=False)
    return lg


def kernel_series_d1_nu(nu, p: float, lam: float,
                        policy: TruncationPolicy = KERNEL_POLICY) -> KernelValue:
    """Orthonormal-series d1 kernel at a Hermitian-product vector. Along
    each axis the coefficients grow polynomially in q and a4 and like 4^a3,
    so the series needs |nu1+nu2| < 1, |nu3| < 1/4 and |nu4| < 1, which
    every d1 pair meets; elsewhere ConvergenceError, before any shell."""
    n1, n2, n3, n4 = _nu(nu, 4, "d1 kernel")
    _d1_scale_exponent(p, lam, "d1 kernel series")
    if abs(n1 + n2) >= 1.0 or abs(n3) >= 0.25 or abs(n4) >= 1.0:
        raise ConvergenceError("d1 series requires |nu1 + nu2| < 1, |nu3| < 1/4 and |nu4| < 1")
    sv = _monomial_series((n1 + n2, n3, n4), _coefficients(_d1_block, 3, p, lam),
                          policy, "d1 kernel series")
    pref = p / math.pi**4
    return KernelValue(pref * sv.value, "series", pref * sv.tail_estimate)


def kernel_series_d1(pair: PointPair, p: float, lam: float,
                     policy: TruncationPolicy = KERNEL_POLICY) -> KernelValue:
    return kernel_series_d1_nu(pair.nu, p, lam, policy)


def kernel_series_d2_nu(nu, policy: TruncationPolicy = KERNEL_POLICY) -> KernelValue:
    """Reindexed Laurent series for the d2 kernel, truncated by total degree
    in (k, a2, a3) and scaled by 1/(pi^3 nu1^2). SingularityError where the
    scaled value overflows near the pole at nu1 = 0, as at
    nu = (1e-160, 0, 0), where the closed route raises too."""
    n1, n2, n3 = nu = _nu(nu, 3, "d2 kernel")
    if n1 == 0:
        raise ValueError("d2 kernel series requires nu1 != 0")
    x2 = n2 / n1
    x3 = n3 / n1
    if abs(x3) >= 1.0 or abs(n1) + abs(x2) >= 1.0:
        raise ConvergenceError(
            "d2 series requires |nu3/nu1| < 1 and |nu1| + |nu2/nu1| < 1")
    sv = _monomial_series((n1 + x2, x3), _coefficients(_d2_block, 2), policy, "d2 kernel series")
    scale = math.pi**3 * n1 * n1  # 0 once nu1^2 underflows
    pref = 1.0 / scale if scale else math.inf
    value = pref * sv.value
    if not cmath.isfinite(value):
        raise SingularityError(f"d2 kernel series: 1/nu1^2 overflows at nu = {nu}")
    return KernelValue(value, "series", abs(pref) * sv.tail_estimate)


def kernel_series_d2(pair: PointPair, policy: TruncationPolicy = KERNEL_POLICY) -> KernelValue:
    return kernel_series_d2_nu(pair.nu, policy)


def _ellipsoid_block(ps: tuple[float, ...], ones: int, block, before):
    """The log-coefficients of nu^alpha at the rows alpha of a block of
    ellipsoid shells, log Gamma(sum_j c_j + max(ones, 1)) -
    sum_j log Gamma(c_j) with c_j = (alpha_j + 1)/p_j. A first variable with
    p_1 = 1 stands for the sum of `ones` unit-exponent coordinates: their
    monomials of degree q fold into (sum nu_j)^q, whose c is q + 1 and whose
    coordinates add ones - 1 to the Gamma argument."""
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
    return lg


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
    cap = math.ceil(policy.max_total_degree * max(1.0, *ps))
    sv = _monomial_series(xs, _coefficients(_ellipsoid_block, len(folded), folded, ones),
                          replace(policy, max_total_degree=cap), "ellipsoid kernel series")
    pref = math.prod(ps) / math.pi**n
    return KernelValue(pref * sv.value, "series", pref * sv.tail_estimate)


def kernel_series_ellipsoid(pair: PointPair, exponents,
                            policy: TruncationPolicy = KERNEL_POLICY) -> KernelValue:
    return kernel_series_ellipsoid_nu(pair.nu, exponents, policy)
