"""Gauss 2F1 and Appell F_A series with total-degree truncation, plus closed
evaluations of one parametric 2F1 family and the identities relating them.

Multi-variable series are summed shell by shell (shell = all terms of one
total degree). Shell terms are combined in log-magnitude/phase form so that
rising factorials like (a)_{2M} and factorial denominators never overflow or
underflow individually near the edge of the convergence region. Shells are
gathered in vectorised blocks of consecutive degrees of about 4096 terms;
the stop rule still applies shell by shell, in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BranchError, ConvergenceError, PoleError
from .numerics import principal_pow, principal_sqrt

_TINY = 1e-300


@dataclass(frozen=True)
class TruncationPolicy:
    """Stop rule for shell summation.

    Summation stops once `consecutive_small_shells` successive shell
    magnitudes fall below tail_tol times the running partial sum; exhausting
    max_total_degree first raises ConvergenceError.
    """

    max_total_degree: int = 400
    tail_tol: float = 1e-12
    consecutive_small_shells: int = 3

    def __post_init__(self):
        if self.max_total_degree < 1:
            raise ValueError("max_total_degree must be >= 1")
        if not self.tail_tol > 0.0:
            raise ValueError("tail_tol must be > 0")
        if self.consecutive_small_shells < 1:
            raise ValueError("consecutive_small_shells must be >= 1")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    tail_estimate: float  # magnitude of the last included shell
    shells_used: int


def _sum_shells(block_fn, policy: TruncationPolicy, what: str) -> SeriesValue:
    """Apply the stop rule shell by shell to the shells that block_fn(lo, top)
    returns in blocks: the values of degrees lo, lo+1, ... (at least one,
    none at or past top)."""
    total = 0j
    run = 0
    deg = 0
    top = policy.max_total_degree + 1
    while deg < top:
        for shell in block_fn(deg, top):
            total += shell
            mag = abs(shell)
            deg += 1
            if mag <= policy.tail_tol * max(abs(total), _TINY):
                run += 1
                if run >= policy.consecutive_small_shells:
                    return SeriesValue(complex(total), float(mag), deg)
            else:
                run = 0
    raise ConvergenceError(
        f"{what}: policy exhausted at total degree {policy.max_total_degree} "
        "before shells shrank below tail_tol")


def _check_lower_param(c: float, what: str) -> None:
    if c <= 0.0 and c == round(c):
        raise PoleError(f"{what}: lower parameter {c} is a non-positive integer")


class _LogSeq:
    """1-D complex sequence stored as log-magnitude plus unit phase."""

    __slots__ = ("logmag", "phase")

    def __init__(self, logmag: np.ndarray, phase: np.ndarray):
        self.logmag = logmag
        self.phase = phase


def _ratio_logseq(ratio_fn, length: int) -> _LogSeq:
    """Sequence v[0]=1, v[m+1] = v[m]*ratio_fn(m), in log/phase form;
    ratio_fn is called once, on the array m = 0..length-2. After a zero
    ratio the log-magnitude stays -inf and the phase stays finite."""
    r = np.asarray(ratio_fn(np.arange(length - 1)), dtype=complex)
    mag = np.abs(r)
    logmag = np.zeros(length)
    phase = np.ones(length, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.cumsum(np.log(mag), out=logmag[1:])
        np.cumprod(np.where(mag > 0.0, r / mag, 1.0), out=phase[1:])
    return _LogSeq(logmag, phase)


def _power_over_factorial_logseq(z: complex, length: int) -> _LogSeq:
    """Sequence z^m / m! in log/phase form."""
    return _ratio_logseq(lambda m: z / (m + 1), length)


# Shells are gathered in blocks of consecutive degrees holding at most about
# this many rows (a single shell may hold more): one vectorised pass per block
# instead of per shell, with the per-pass temporaries kept small.
_BLOCK_ROWS = 4096


class _Block(NamedTuple):
    comps: np.ndarray   # exponent rows of every shell, shell after shell
    starts: np.ndarray  # first row of each shell
    sizes: np.ndarray   # rows in each shell
    hi: int             # one past the block's last degree


def _shell_sizes(nvars: int, degrees: np.ndarray) -> np.ndarray:
    """Number of compositions of each total in degrees into nvars parts,
    C(deg + nvars - 1, nvars - 1)."""
    sizes = np.ones(len(degrees), dtype=np.int64)
    for i in range(1, nvars):
        sizes = sizes * (degrees + i) // i
    return sizes


def _compositions(nvars: int, degrees: np.ndarray) -> np.ndarray:
    """Compositions of each total in degrees into nvars non-negative parts,
    total after total, each total's rows in lexicographic order."""
    if nvars == 1:
        return degrees[:, None]
    counts = degrees + 1  # choices of the first part
    offsets = np.cumsum(counts, dtype=degrees.dtype) - counts
    firsts = np.arange(counts.sum(), dtype=degrees.dtype) - np.repeat(offsets, counts)
    rests = np.repeat(degrees, counts) - firsts
    first_col = np.repeat(firsts, _shell_sizes(nvars - 1, rests))
    return np.column_stack((first_col, _compositions(nvars - 1, rests)))


def _build_block(nvars: int, lo: int, top: int) -> _Block:
    """Shells lo, lo+1, ... below top, as many as fit in _BLOCK_ROWS rows
    and at least one."""
    sizes = _shell_sizes(nvars, np.arange(lo, top, dtype=np.int64))
    keep = max(1, int(np.searchsorted(np.cumsum(sizes), _BLOCK_ROWS, side="right")))
    sizes = sizes[:keep]
    comps = _compositions(nvars, np.arange(lo, lo + keep, dtype=np.int32))
    starts = np.cumsum(sizes) - sizes
    for arr in (comps, starts, sizes):
        arr.setflags(write=False)
    return _Block(comps, starts, sizes, lo + keep)


# Bounded, yet above the 350 blocks that a degree-400 series of 3 variables
# uses, so no block is rebuilt within one evaluation.
_block_cached = lru_cache(maxsize=1024)(_build_block)


def _shell_block(nvars: int, lo: int, top: int) -> _Block:
    # Blocks of 4+ variables grow fast with degree; only cache up to 3.
    return (_block_cached if nvars <= 3 else _build_block)(nvars, lo, top)


def _shell_gather(seqs: list[_LogSeq], block: _Block, row_logmag,
                  shell_phase=1.0) -> list[complex]:
    """Per-shell sums of exp(row_logmag) * prod_i seqs[i][comps[:, i]] over
    the block's rows, times shell_phase (one value, or one per shell)."""
    comps = block.comps
    logs = seqs[0].logmag[comps[:, 0]] + row_logmag
    phases = seqs[0].phase[comps[:, 0]]
    for i in range(1, len(seqs)):
        logs += seqs[i].logmag[comps[:, i]]
        phases *= seqs[i].phase[comps[:, i]]
    phases *= np.exp(logs)
    return (np.add.reduceat(phases, block.starts) * shell_phase).tolist()


def _front_shells(seqs: list[_LogSeq], front: _LogSeq, block: _Block,
                  scale: complex = 1.0) -> list[complex]:
    """Shells of scale * front[M] * prod_i seqs[i][m_i] over m_1+...+m_n = M."""
    lo = block.hi - len(block.sizes)
    return _shell_gather(seqs, block, np.repeat(front.logmag[lo:block.hi], block.sizes),
                         front.phase[lo:block.hi] * scale)


def gauss_2f1(a: float, b: float, c: float, z: complex,
              policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Direct series sum of 2F1(a, b; c; z) for |z| < 1."""
    z = complex(z)
    _check_lower_param(c, "gauss_2f1")
    if abs(z) >= 1.0:
        raise ConvergenceError(f"gauss_2f1 requires |z| < 1, got |z| = {abs(z)}")
    term = 1.0 + 0j

    def shell(deg, top):
        nonlocal term
        if deg > 0:
            term = term * ((a + deg - 1) * (b + deg - 1)) / ((c + deg - 1) * deg) * z
        return (term,)

    return _sum_shells(shell, policy, "gauss_2f1")


def appell_fa(a: float, b, c, z, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Direct multi-series sum of F_A^{(n)}(a; b; c; z) for sum |z_i| < 1."""
    b = tuple(float(v) for v in b)
    c = tuple(float(v) for v in c)
    z = tuple(complex(v) for v in z)
    n = len(z)
    if n == 0 or len(b) != n or len(c) != n:
        raise ValueError("appell_fa needs equal-length b, c, z with n >= 1")
    for ci in c:
        _check_lower_param(ci, "appell_fa")
    if sum(abs(v) for v in z) >= 1.0:
        raise ConvergenceError("appell_fa requires sum |z_i| < 1")
    if n == 1:
        # F_A^(1) is the Gauss series itself; the scalar recurrence is exact
        return gauss_2f1(a, b[0], c[0], z[0], policy)

    length = policy.max_total_degree + 1
    seqs = [_ratio_logseq(lambda m, bi=bi, ci=ci, zi=zi: (bi + m) * zi / ((ci + m) * (m + 1)), length)
            for bi, ci, zi in zip(b, c, z)]
    front = _ratio_logseq(lambda m: a + m, length)  # (a)_M
    return _sum_shells(lambda lo, top: _front_shells(seqs, front, _shell_block(n, lo, top)),
                       policy, "appell_fa")


def fa_equal_params_closed(a: float, z) -> complex:
    """(1 - z_1 - ... - z_n)^(-a): the F_A value when upper and lower vector
    parameters coincide."""
    total = sum(complex(v) for v in z)
    return principal_pow(1.0 - total, -a)


def doubled_index_multisum(a: float, c: float, x,
                           policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Sum of (a)_{2(m_1+...+m_r)} x^m / ((c)_{m_1+...+m_r} m_1! ... m_r!)
    for sum |x_i| < 1/4.

    Collapses analytically to 2F1(a/2, (a+1)/2; c; 4(x_1+...+x_r)); this
    routine sums the multi-index series directly so the collapse can be
    verified rather than assumed.
    """
    x = tuple(complex(v) for v in x)
    r = len(x)
    if r == 0:
        raise ValueError("doubled_index_multisum needs at least one variable")
    _check_lower_param(c, "doubled_index_multisum")
    if sum(abs(v) for v in x) >= 0.25:
        raise ConvergenceError("doubled_index_multisum requires sum |x_i| < 1/4")

    length = policy.max_total_degree + 1
    seqs = [_power_over_factorial_logseq(xi, length) for xi in x]
    front = _ratio_logseq(lambda m: (a + 2 * m) * (a + 2 * m + 1) / (c + m), length)
    return _sum_shells(lambda lo, top: _front_shells(seqs, front, _shell_block(r, lo, top)),
                       policy, "doubled_index_multisum")


def fa_decomposition_rhs(a: float, b1: float, c1: float, y,
                         policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Decomposition-formula right-hand side for F_A with b_i = c_i, i >= 2:

        sum over (m_2..m_r) of
            (a)_M (b1)_M / ((c1)_M m_2!...m_r!) * y_1^M y_2^{m_2}...y_r^{m_r}
            * 2F1(a+M, b1+M; c1+M; y_1) * (1 - y_2 - ... - y_r)^{-(a+M)},
        M = m_2 + ... + m_r.
    """
    y = tuple(complex(v) for v in y)
    r = len(y)
    if r < 2:
        raise ValueError("fa_decomposition_rhs needs at least 2 variables")
    _check_lower_param(c1, "fa_decomposition_rhs")
    y1, rest = y[0], y[1:]
    if abs(y1) >= 1.0:
        raise ConvergenceError("fa_decomposition_rhs requires |y_1| < 1")
    if sum(abs(v) for v in rest) >= 1.0:
        raise ConvergenceError("fa_decomposition_rhs requires sum_{i>=2} |y_i| < 1")
    srest = sum(rest)
    base = principal_pow(1.0 - srest, -a)
    scale = 1.0 / (1.0 - srest)

    length = policy.max_total_degree + 1
    seqs = [_power_over_factorial_logseq(v, length) for v in rest]
    front = _ratio_logseq(
        lambda m: (a + m) * (b1 + m) / (c1 + m) * y1 * scale, length)

    def shell(deg, top):
        # One shell per block: the inner 2F1 of a shell past the stop degree
        # need not converge, so none is evaluated ahead.
        inner = gauss_2f1(a + deg, b1 + deg, c1 + deg, y1, policy).value
        return _front_shells(seqs, front, _shell_block(r - 1, deg, deg + 1), inner * base)

    return _sum_shells(shell, policy, "fa_decomposition_rhs")


# --- closed 2F1 family -------------------------------------------------------
#
# All five variants share the substitution w = sqrt(1-z); the reductions below
# use (w - 1) = -z / (1 + w) exactly, which cancels every z denominator and
# makes each form finite and stable through z = 0.

_VARIANTS = ("i", "ii", "iii", "iv", "v")


def _branch_parts(z: complex):
    w = principal_sqrt(1.0 - z)
    if not w.real > 0.0:
        raise BranchError(f"closed 2F1 forms require Re(1-z) > 0, got z = {z}")
    return w, 1.0 + w, principal_pow(1.0 - z, 1.5)


def closed_2f1_family(variant: str, a: float, z: complex) -> complex:
    """Closed-form evaluation of one 2F1 family member.

    Variants (all with real a > 0, Re(1-z) > 0):
      "i"   F((a+1)/2, (a+2)/2; a;   z)
      "ii"  F((a+3)/2, (a+4)/2; a+2; z)
      "iii" F((a+3)/2, (a+4)/2; a+3; z)
      "iv"  F((a+3)/2, (a+4)/2; a;   z)   (two-term display)
      "v"   F((a+2)/2, (a+3)/2; a;   z)   (two-term display)

    Variants "iv" and "v" evaluate their long two-term displays verbatim;
    the series cross-check rejects both displays (tracked as informational
    rows in the identity report), so production callers should use
    closed_2f1_recurrence for those two.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {_VARIANTS}")
    # each variant needs its lower 2F1 parameter positive ("ii"/"iii" stay
    # valid at shifted a, which the "v" recurrence relies on)
    lower_shift = {"i": 0.0, "ii": 2.0, "iii": 3.0, "iv": 0.0, "v": 0.0}[variant]
    if not a + lower_shift > 0.0:
        raise ValueError(f"closed_2f1_family({variant!r}) requires a > {-lower_shift}, got {a}")
    z = complex(z)
    w, onepw, cuberoot = _branch_parts(z)

    if variant == "i":
        return 2.0**(a - 1) * ((a - 1) - (a - 2) / onepw) \
            / (a * cuberoot * principal_pow(onepw, a - 2))
    if variant == "ii":
        return 2.0**(a + 1) * ((a + 1) - a / onepw) \
            / ((a + 2) * cuberoot * principal_pow(onepw, a))
    if variant == "iii":
        return 2.0**(a + 2) / (w * principal_pow(onepw, a + 2))
    if variant == "iv":
        num2 = (-a - 1 + (a - 0.5) * z) * ((a - 2.5) * z - a) \
            - ((1 - a) / 2) * ((2 - a) / 2) * z
        term1 = num2 * 2.0**(a + 1) * ((a + 1) - a / onepw) \
            / (a * (a + 1) * (a + 2) * (z - 1) * cuberoot * principal_pow(onepw, a))
        term2 = 2.0**a * ((a - 2.5) * z - a) * (a + a * a) * z \
            / (a * (a + 1) * (a + 2) * (z - 1)**2 * w * principal_pow(onepw, a + 2))
        return term1 - term2
    # "v"
    t1 = 2.0**a * (a - a * a) * z \
        / (2 * a * (a + 1) * (z - 1) * w * principal_pow(onepw, a + 1))
    t2 = (-1.5 * z - a) * 2.0**a * (a - (a - 1) / onepw) \
        / (a * (a + 1) * (z - 1) * cuberoot * principal_pow(onepw, a - 1))
    return t1 + t2


def recurrence_coefficients(a: float, z: complex) -> tuple[complex, complex]:
    """Coefficients (C2, C3) of the validated contiguous relation

        F((a+3)/2,(a+4)/2; a; z) = C2*F(...; a+2; z) + C3*F(...; a+3; z),

    obtained by eliminating the c = a+1 member from the Gauss three-term
    relations in the lower parameter.
    """
    zm1 = z - 1.0
    p = (a - (a - 2.5) * z) * ((a + 1) - (a - 0.5) * z)
    q = (a - 1) * (a - 2) / 4.0
    c2 = (p - q * z * zm1) / (a * (a + 1) * zm1 * zm1)
    c3 = (a - (a - 2.5) * z) * z / (4 * (a + 2) * zm1 * zm1)
    return c2, c3


def _alternate_recurrence_rhs(a: float, z: complex, f2: complex, f3: complex) -> complex:
    # Rejected coefficient set, retained for report adjudication only.
    c2 = ((-a - 1 + (a - 0.5) * z) * ((a - 2.5) * z - a)
          - ((1 - a) / 2) * ((2 - a) / 2) * z) / (a * (a + 1) * (z - 1))
    c1 = ((a - 2.5) * z - a) / (a * (z - 1))
    return c2 * f2 - (a + a * a) * z / (4 * (a + 1) * (a + 2) * (z - 1)) * c1 * f3


def closed_2f1_recurrence(variant: str, a: float, z: complex) -> complex:
    """Validated closed evaluation of variants "iv" and "v", built from the
    "ii"/"iii" closed forms through contiguous relations in the lower
    parameter."""
    z = complex(z)
    if variant == "iv":
        c2, c3 = recurrence_coefficients(a, z)
        return c2 * closed_2f1_family("ii", a, z) + c3 * closed_2f1_family("iii", a, z)
    if variant == "v":
        # F((a+2)/2,(a+3)/2; a; z) is the c = b+1 member of the family at
        # b = a-1; one three-term step connects it to the b+2 and b+3 members.
        b = a - 1.0
        zm1 = z - 1.0
        ca = -((b + 1) - (b - 0.5) * z) / ((b + 1) * zm1)
        cb = -b * z / (4 * (b + 2) * zm1)
        return ca * closed_2f1_family("ii", b, z) + cb * closed_2f1_family("iii", b, z)
    raise ValueError(f"closed_2f1_recurrence supports variants 'iv' and 'v', got {variant!r}")


def contiguous_relation_check(a: float, z: complex,
                              policy: TruncationPolicy = DEFAULT_POLICY,
                              coefficients: str = "validated") -> tuple[complex, complex]:
    """Both sides of the contiguous relation for F((a+3)/2,(a+4)/2; a; z),
    every 2F1 evaluated by direct series.

    coefficients="validated" uses recurrence_coefficients; "alternate" uses the
    rejected coefficient set (kept so the verification report can show that it
    fails).
    """
    z = complex(z)
    lhs = gauss_2f1((a + 3) / 2, (a + 4) / 2, a, z, policy).value
    f2 = gauss_2f1((a + 3) / 2, (a + 4) / 2, a + 2, z, policy).value
    f3 = gauss_2f1((a + 3) / 2, (a + 4) / 2, a + 3, z, policy).value
    if coefficients == "validated":
        c2, c3 = recurrence_coefficients(a, z)
        rhs = c2 * f2 + c3 * f3
    elif coefficients == "alternate":
        rhs = _alternate_recurrence_rhs(a, z, f2, f3)
    else:
        raise ValueError(f"coefficients must be 'validated' or 'alternate', got {coefficients!r}")
    return lhs, rhs
