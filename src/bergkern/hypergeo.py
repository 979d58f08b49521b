"""Gauss 2F1 and Appell F_A series with total-degree truncation, plus closed
evaluations of one parametric 2F1 family and the identities relating them.

Multi-variable series are summed shell by shell (shell = all terms of one
total degree). Shell terms are combined in log-magnitude/phase form so that
rising factorials like (a)_{2M} and factorial denominators never overflow or
underflow individually near the edge of the convergence region. Shells are
gathered in vectorised blocks of consecutive degrees, at most 32 degrees and
about 4096 terms each; the stop rule still applies shell by shell, in order,
and is the only code that knows the degree cap: a block is keyed by its first
degree alone, and the rule drops it unfinished at the stop or at the cap. A
series builds its log/phase tables in one vectorised pass, on demand: the
first block sizes them, and a later block that needs more rebuilds them at
double length, with no cap, so a series that stops early never builds the
tables of a deep series.

gauss_2f1 sums its terms one by one in Python complex arithmetic, which is
cheapest for one series. gauss_2f1_batch sums many at once, one numpy pass
per degree over every series still running, and repeats that arithmetic on
real and imaginary float arrays, so each of its values equals the scalar
call's bit for bit; the identity suite takes each family's 2F1s from one
batch. fa_decomposition_rhs and that suite share _decomposition_series,
which gathers its shells in blocks like every other series but takes the
inner 2F1 of each shell from a callable, lazily, as the stop rule reaches it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BranchError, ConvergenceError, PoleError
from .numerics import principal_pow, principal_sqrt

_TINY = 1e-300
_SMALL_SHELLS_TO_STOP = 3


@dataclass(frozen=True)
class TruncationPolicy:
    """Stop rule for shell summation.

    Summation stops once three successive shell magnitudes fall below
    tail_tol times the running partial sum; exhausting max_total_degree
    first raises ConvergenceError.
    """

    max_total_degree: int = 400
    tail_tol: float = 1e-12

    def __post_init__(self):
        if self.max_total_degree < 1:
            raise ValueError("max_total_degree must be >= 1")
        if not self.tail_tol > 0.0:
            raise ValueError("tail_tol must be > 0")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    tail_estimate: float  # magnitude of the last included shell
    shells_used: int


def _sum_shells(block_fn, policy: TruncationPolicy, what: str) -> SeriesValue:
    """Apply the stop rule shell by shell to the shells that block_fn(lo)
    returns in blocks, each an iterable of the values of degrees lo, lo+1,
    ... (at least one; it may run on without end). Only this rule knows the
    degree cap: it drops an iterable unfinished at the stop or once it has
    summed the shell of degree max_total_degree, so it asks for none past."""
    total = 0j
    run = 0
    deg = 0
    while True:
        for shell in block_fn(deg):
            total += shell
            mag = abs(shell)
            deg += 1
            if mag <= policy.tail_tol * max(abs(total), _TINY):
                run += 1
                if run >= _SMALL_SHELLS_TO_STOP:
                    return SeriesValue(complex(total), float(mag), deg)
            else:
                run = 0
            if deg > policy.max_total_degree:
                raise ConvergenceError(
                    f"{what}: policy exhausted at total degree {policy.max_total_degree} "
                    "before shells shrank below tail_tol")


def _check_lower_param(c: float, what: str) -> None:
    if c <= 0.0 and c == round(c):
        raise PoleError(f"{what}: lower parameter {c} is a non-positive integer")


class _LogSeq(NamedTuple):
    """Complex sequences stored as log-magnitude plus unit phase, one
    sequence per row; the last axis runs over the index."""

    logmag: np.ndarray
    phase: np.ndarray


def _ratio_logseq(ratio_fn, length: int) -> _LogSeq:
    """Sequences v[..., 0] = 1, v[..., m+1] = v[..., m] * r[..., m] in
    log/phase form, one per row of r = ratio_fn(m), which is called once, on
    the array m = 0..length-2. After a zero ratio the log-magnitude stays
    -inf and the phase stays finite."""
    r = np.asarray(ratio_fn(np.arange(length - 1)), dtype=complex)
    mag = np.abs(r)
    shape = r.shape[:-1] + (length,)
    logmag = np.zeros(shape)
    phase = np.ones(shape, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.cumsum(np.log(mag), axis=-1, out=logmag[..., 1:])
        np.cumprod(np.where(mag > 0.0, r / mag, 1.0), axis=-1, out=phase[..., 1:])
    return _LogSeq(logmag, phase)


def _tables_on_demand(build, arg):
    """tables(hi): the tables build(arg, length) with length >= hi. The
    first request builds them to hi; a later one past their end rebuilds
    them at double length, or at hi if that is longer. Every table row is a
    sequential cumulative product or an elementwise power, so a longer
    build repeats the shorter one's entries exactly."""
    held = None

    def tables(hi: int) -> _LogSeq:
        nonlocal held
        if held is None:
            held = build(arg, hi)
        elif held.logmag.shape[-1] < hi:
            held = build(arg, max(hi, 2 * held.logmag.shape[-1]))
        return held

    return tables


# Shells are gathered in blocks of consecutive degrees: one vectorised pass
# per block instead of per shell. A block spans at most _BLOCK_DEGREES
# degrees, so a series that stops early gathers few shells past its stop,
# and holds at most about _BLOCK_ROWS rows (a single shell may hold more),
# so the per-pass temporaries stay small.
_BLOCK_DEGREES = 32
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


def _build_block(nvars: int, lo: int) -> _Block:
    """Shells lo, lo+1, ... up to the row ceiling: at most _BLOCK_DEGREES
    of them, as many as fit in _BLOCK_ROWS rows, and at least one."""
    end = min(lo + _BLOCK_DEGREES, _last_degree(nvars, _MAX_SERIES_ROWS) + 1)
    sizes = _shell_sizes(nvars, np.arange(lo, end, dtype=np.int64))
    keep = max(1, int(np.searchsorted(np.cumsum(sizes), _BLOCK_ROWS, side="right")))
    sizes = sizes[:keep]
    comps = _compositions(nvars, np.arange(lo, lo + keep, dtype=np.int32))
    starts = np.cumsum(sizes) - sizes
    for arr in (comps, starts, sizes):
        arr.setflags(write=False)
    return _Block(comps, starts, sizes, lo + keep)


# A series gathers at most this many rows, counted from degree 0: C(403, 3),
# every row of a 3-variable series through degree 400. It bounds the time and
# the block memory of one series whatever its degree cap: 3 variables reach
# degree 400, 2 variables 4651, 4 variables 124.
_MAX_SERIES_ROWS = math.comb(403, 3)


@lru_cache(maxsize=None)
def _last_degree(nvars: int, max_rows: int) -> int:
    """The highest degree D such that degrees 0..D of a series of nvars
    variables, C(D + nvars, nvars) rows, hold at most max_rows rows."""
    lo, hi = 0, max_rows  # an upper bound, as C(D + nvars, nvars) > D
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if math.comb(mid + nvars, nvars) <= max_rows:
            lo = mid
        else:
            hi = mid - 1
    return lo


# Bounded, yet above the blocks of one evaluation: 350 for a 3-variable
# series up to the row ceiling, 135 for a d2 series up to the 1000-degree
# kernel cap, 573 for a 2-variable series up to degree 2000 (the (1,2)
# ellipsoid's scaled cap). A 2-variable series to degree 3000, the (2,3)
# ellipsoid's, takes 1549 and so evicts its own first blocks. A block is
# keyed by its first degree, not by the cap, so one entry serves every cap.
_block_cached = lru_cache(maxsize=1024)(_build_block)

# Blocks of more variables than this grow fast with degree and are not cached.
_CACHED_VARS = 3


def _shell_block(nvars: int, lo: int) -> _Block:
    """_build_block, cached up to _CACHED_VARS variables; ConvergenceError
    once lo lies past the row ceiling."""
    last = _last_degree(nvars, _MAX_SERIES_ROWS)
    if lo > last:
        raise ConvergenceError(
            f"a series of {nvars} variables would reach past degree {last}, "
            f"the ceiling of {_MAX_SERIES_ROWS} rows")
    return (_block_cached if nvars <= _CACHED_VARS else _build_block)(nvars, lo)


def _shell_gather(seqs: _LogSeq, block: _Block, row_logmag) -> np.ndarray:
    """Per-shell sums of exp(row_logmag) * prod_i seq_i[comps[:, i]] over
    the block's rows, seq_i being row i of seqs."""
    comps = block.comps
    logmag, phase = seqs.logmag, seqs.phase
    # take, not fancy indexing: it is faster with the int32 rows
    logs = logmag[0].take(comps[:, 0]) + row_logmag
    phases = phase[0].take(comps[:, 0])
    for i in range(1, comps.shape[1]):
        logs += logmag[i].take(comps[:, i])
        phases *= phase[i].take(comps[:, i])
    phases *= np.exp(logs)
    return np.add.reduceat(phases, block.starts)


def _front_product(lo: int, sums: np.ndarray, phase: np.ndarray) -> list[complex]:
    return (sums * phase).tolist()


def _front_series(nvars: int, ratios, policy: TruncationPolicy, what: str,
                  finish=_front_product) -> SeriesValue:
    """Sum of the shells front[M] * prod_i seq_i[m_i] over m_1+...+m_n = M,
    the sequences being built from ratios by _ratio_logseq: one row per
    variable, then the front. A block's shells are finish(lo, sums, phase),
    from its per-shell sums of |front[M]| * prod_i seq_i[m_i] and the phases
    of front[M]."""
    tables = _tables_on_demand(_ratio_logseq, ratios)

    def shells(lo):
        block = _shell_block(nvars, lo)
        seqs = tables(block.hi)
        front = slice(lo, block.hi)
        sums = _shell_gather(seqs, block, np.repeat(seqs.logmag[-1, front], block.sizes))
        return finish(lo, sums, seqs.phase[-1, front])

    return _sum_shells(shells, policy, what)


def _check_gauss_args(c: float, z: complex) -> None:
    _check_lower_param(c, "gauss_2f1")
    if abs(z) >= 1.0:
        raise ConvergenceError(f"gauss_2f1 requires |z| < 1, got |z| = {abs(z)}")


def _rounded_pole(c: float, deg: int) -> PoleError:
    """The error of a 2F1 term whose denominator (c + deg - 1) deg rounds to
    0.0, as it does for c = 1e-20 at deg = 1."""
    return PoleError(f"gauss_2f1: lower parameter {c} rounds to a pole, "
                     f"c + {deg - 1} = 0.0 at degree {deg}")


def gauss_2f1(a: float, b: float, c: float, z: complex,
              policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Direct series sum of 2F1(a, b; c; z) for |z| < 1."""
    z = complex(z)
    _check_gauss_args(c, z)

    def terms(lo):
        # one block from degree lo = 0: every term, each from the one before
        term = 1.0 + 0j
        yield term
        for deg in itertools.count(1):
            try:
                term = term * ((a + deg - 1) * (b + deg - 1)) / ((c + deg - 1) * deg) * z
            except ZeroDivisionError:
                raise _rounded_pole(c, deg) from None
            yield term

    return _sum_shells(terms, policy, "gauss_2f1")


class SeriesBatch(NamedTuple):
    """Elementwise gauss_2f1 results, in the broadcast shape of the inputs.
    An element that used up the policy is flagged exhausted, and its other
    fields read nan, nan and 0."""

    value: np.ndarray          # complex
    tail_estimate: np.ndarray  # float
    shells_used: np.ndarray    # int64
    exhausted: np.ndarray      # bool


def gauss_2f1_batch(a, b, c, z, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesBatch:
    """gauss_2f1 of every element of the broadcast arrays a, b, c and z,
    summed in one vectorised pass per degree, equal bit for bit to the
    scalar calls. Each term repeats CPython's complex arithmetic on float
    real and imaginary arrays (numpy's complex division would round
    differently), and the stop rule of _sum_shells applies per element.
    A pole or |z| >= 1 raises the scalar's error for the first such element;
    an element that uses up the policy is flagged, not raised."""
    a, b, c, z = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                                     np.asarray(c, dtype=float), np.asarray(z, dtype=complex))
    shape = a.shape
    a, b, c, z = (v.ravel() for v in (a, b, c, z))
    zr, zi = z.real.copy(), z.imag.copy()
    for i in np.flatnonzero(((c <= 0.0) & (c == np.round(c))) | (np.hypot(zr, zi) >= 1.0)):
        _check_gauss_args(float(c[i]), complex(z[i]))
    n = a.size
    value = np.full(n, complex("nan+nanj"))
    tail = np.full(n, np.nan)
    used = np.zeros(n, dtype=np.int64)
    exhausted = np.ones(n, dtype=bool)
    live = np.arange(n)                 # positions of the elements still summing
    tr, ti = np.ones(n), np.zeros(n)    # the current term
    sr, si = np.zeros(n), np.zeros(n)   # the partial sum
    run = np.zeros(n, dtype=np.int64)   # small shells in a row
    with np.errstate(all="ignore"):     # the scalar sum overflows silently too
        for deg in range(policy.max_total_degree + 1):
            if not live.size:
                break
            if deg:
                # term * x, with x converted to complex(x, 0.0)
                x = (a + deg - 1) * (b + deg - 1)
                pr = tr * x - ti * 0.0
                pi = tr * 0.0 + ti * x
                # / complex(d, 0.0) by Smith's method, whose denominator
                # d + 0.0 * ratio is d itself
                d = (c + deg - 1) * deg
                if not d.all():
                    raise _rounded_pole(float(c[np.argmin(d != 0.0)]), deg)
                ratio = 0.0 / d
                qr = (pr + pi * ratio) / d
                qi = (pi - pr * ratio) / d
                tr = qr * zr - qi * zi
                ti = qr * zi + qi * zr
            sr += tr
            si += ti
            mag = np.hypot(tr, ti)
            small = mag <= policy.tail_tol * np.maximum(np.hypot(sr, si), _TINY)
            run = np.where(small, run + 1, 0)
            stop = run >= _SMALL_SHELLS_TO_STOP
            if stop.any():
                done = live[stop]
                value.real[done] = sr[stop]
                value.imag[done] = si[stop]
                tail[done] = mag[stop]
                used[done] = deg + 1
                exhausted[done] = False
                keep = ~stop
                live, a, b, c, zr, zi, tr, ti, sr, si, run = (
                    v[keep] for v in (live, a, b, c, zr, zi, tr, ti, sr, si, run))
    return SeriesBatch(value.reshape(shape), tail.reshape(shape), used.reshape(shape),
                       exhausted.reshape(shape))


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

    bs, cs, zs = (np.array(v)[:, None] for v in (b, c, z))
    return _front_series(  # front (a)_M
        n, lambda m: np.vstack(((bs + m) * zs / ((cs + m) * (m + 1)), a + m)),
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

    xs = np.array(x)[:, None]
    return _front_series(  # x_i^m / m!, front (a)_{2M} / (c)_M
        r, lambda m: np.vstack((xs / (m + 1), (a + 2 * m) * (a + 2 * m + 1) / (c + m))),
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
    return _decomposition_series(  # gauss_2f1 is looked up at each call
        a, b1, c1, y, policy,
        lambda deg: gauss_2f1(a + deg, b1 + deg, c1 + deg, y[0], policy).value)


def _decomposition_series(a: float, b1: float, c1: float, y, policy: TruncationPolicy,
                          inner) -> SeriesValue:
    """fa_decomposition_rhs, with inner(M) giving the shell-M factor
    2F1(a+M, b1+M; c1+M; y_1). inner is called for each shell summed, in
    order, and for no shell past the stop or the degree cap."""
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

    def finish(lo, sums, phase):
        for k in range(len(sums)):
            # The inner 2F1 of a shell past the stop need not converge, so
            # each is evaluated only as its shell is yielded. The products are
            # numpy's, on length-1 slices: Python's complex product rounds
            # differently.
            yield (sums[k:k + 1] * (phase[k:k + 1] * (inner(lo + k) * base))).item()

    ys = np.array(rest)[:, None]
    return _front_series(  # y_i^m / m!, front (a)_M (b1)_M (y1 scale)^M / (c1)_M
        r - 1, lambda m: np.vstack((ys / (m + 1), (a + m) * (b1 + m) / (c1 + m) * y1 * scale)),
        policy, "fa_decomposition_rhs", finish)


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
