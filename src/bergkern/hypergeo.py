"""Gauss 2F1 and Appell F_A series with total-degree truncation, plus closed
evaluations of one parametric 2F1 family and the identities relating them.

Multi-variable series are summed shell by shell (shell = all terms of one
total degree). The front series, appell_fa and doubled_index_multisum, are
sums of front[M] * prod_i seq_i[m_i]; _front_batch sums many of one variable
count at once, and the scalar calls are batches of one. Each variable's
sequence and the front are tables, each one cumulative product of its
ratio (_ratio_logseq), held as a complex mantissa and an exact int64 binary
exponent, so no term overflows, underflows or is the exp of a large log.
The variables' sequences are merged by truncated convolution, which groups
the multi-index sum by partial totals at O(L^2) per merge for L degrees.
Tables start at 32 entries and double for the series still running; every
step is per element or per row, so a value does not depend on its batch.

The kernels' monomial series take their exponent rows from here, and only
they use them: vectorised blocks of consecutive degrees, at most 32 degrees
and about 4096 rows each, held as one in-order sequence per variable count
(_blocks), shared by every series and dropped whole, least recently used
first, once the blocks held pass a bound in bytes set by the row ceiling.
The kernels module forms and sums a block's terms; the stop rule
(_sum_shells), which every series here and there shares, applies shell by
shell. Three places read the degree cap: _sum_shells, and the two batched
sums that apply its rule per series, gauss_2f1_batch and _front_batch.

gauss_2f1 sums its terms one by one in Python complex arithmetic, which is
cheapest for one series. gauss_2f1_batch sums many at once, one numpy pass
per degree over every series still running, and repeats that arithmetic on
real and imaginary float arrays, so each of its values equals the scalar
call's bit for bit; the identity suite takes each family's 2F1s from one
batch, and its front series from one batch per variable count.
fa_decomposition_rhs and that suite share _decomposition_series. The
decomposition formula is printed as a sum over m_2..m_r, but its terms of
one total degree M add to a multiple of (y_2 + ... + y_r)^M / M!, so it is
summed over M alone, term by term like gauss_2f1, taking the inner 2F1 of
each term from a callable, lazily, as the stop rule reaches it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domains import _positive
from .errors import BergkernError, BranchError, ConvergenceError, PoleError
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
        # an integer: a float cap fails deep in a series (2.5) or lifts the
        # cap (inf, nan)
        try:
            cap = operator.index(self.max_total_degree)
        except TypeError:
            cap = 0
        if cap < 1:
            raise ValueError(
                f"max_total_degree must be an integer >= 1, got {self.max_total_degree!r}")
        _positive(self.tail_tol, "tail_tol")


DEFAULT_POLICY = TruncationPolicy()


def _exhausted(what: str, policy: TruncationPolicy) -> ConvergenceError:
    # the error of a series still running after the shell of the cap's degree
    return ConvergenceError(f"{what}: policy exhausted at total degree "
                            f"{policy.max_total_degree} before shells shrank below tail_tol")


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    tail_estimate: float  # magnitude of the last included shell
    shells_used: int


def _sum_shells(shells, policy: TruncationPolicy, what: str) -> SeriesValue:
    """Apply the stop rule shell by shell to the values of degrees 0, 1, ...
    that the iterable shells yields. Only this rule knows the degree cap: it
    stops reading at the stop or after the shell of degree max_total_degree."""
    total = 0j
    run = 0
    for deg, shell in enumerate(shells, 1):
        total += shell
        mag = abs(shell)
        if mag <= policy.tail_tol * max(abs(total), _TINY):
            run += 1
            if run >= _SMALL_SHELLS_TO_STOP:
                return SeriesValue(complex(total), float(mag), deg)
        else:
            run = 0
        if deg > policy.max_total_degree:
            raise _exhausted(what, policy)


def _pole(c: float, what: str) -> PoleError | None:
    """The error of a lower parameter c that is a non-positive integer."""
    if c <= 0.0 and c == round(c):
        return PoleError(f"{what}: lower parameter {c} is a non-positive integer")
    return None


def _check_lower_param(c: float, what: str) -> None:
    if pole := _pole(c, what):
        raise pole


class _Table(NamedTuple):
    """Complex sequences as (re + i im) * 2**exp, one sequence per row; the
    last axis runs over the index. A nonzero mantissa has max(|re|, |im|)
    in [0.5, 1) and an exact int64 exponent; a zero has _ZERO_EXP. The
    front series do their complex arithmetic on re and im as real arrays:
    each real operation rounds once, in whatever loop numpy picks for the
    layout, so a value does not depend on the shape of its batch."""

    re: np.ndarray
    im: np.ndarray
    exp: np.ndarray


# The exponent of a zero: far below any other, so a zero never sets the
# common exponent of a sum, and a sum of a few such exponents stays within
# int64. Entry m of a table has an exponent of at most 1074 m in magnitude,
# below 2^34 at the row ceiling; a series still running there reaches about
# log2(m!), 2^28.
_ZERO_EXP = -(1 << 56)

# A product of mantissas (each of magnitude in [0.5, sqrt 2)) is
# renormalised every this many factors, so it stays within 2^-513..2^257.
_RENORM_STEPS = 512


def _normalised(re, im, exp) -> _Table:
    """(re + i im) * 2**exp with the binary exponent of max(|re|, |im|)
    moved into exp: the mantissa is scaled by an exact power of two."""
    _, shift = np.frexp(np.maximum(np.abs(re), np.abs(im)))
    scale = np.ldexp(1.0, -shift)
    return _Table(re * scale, im * scale,
                  np.where((re == 0) & (im == 0), _ZERO_EXP, exp + shift))


def _ratio_logseq(ratio_fn, length: int) -> _Table:
    """Sequences v[..., 0] = 1, v[..., m+1] = v[..., m] * r[..., m] as
    mantissa and exponent, one per row of r = ratio_fn(m), which is called
    once, on the array m = 0..length-2. Each entry is the one before times
    its ratio's mantissa, so the rounding errors of neighbouring entries
    are shared, which keeps a cancelling sum of them accurate; the ratios'
    exponents are summed exactly, and the running product is renormalised
    at the fixed indices 0, _RENORM_STEPS, 2 * _RENORM_STEPS, ... So an
    entry does not depend on the table's length: a shorter build is an
    exact prefix of a longer one. After a zero ratio the entries are zero."""
    ratios = np.asarray(ratio_fn(np.arange(length - 1)), dtype=complex)
    r = _normalised(ratios.real, ratios.imag, 0)
    rexp = np.where(r.exp == _ZERO_EXP, 0, r.exp)
    # v[m] as rows (re, im), index first, so that each step is three real
    # operations on contiguous rows: (re, im) * rr + (im, re) * (-ri, ri)
    rre, rim = (np.moveaxis(part, -1, 0) for part in (r.re, r.im))
    same, swap = np.stack((rre, rre), axis=1), np.stack((-rim, rim), axis=1)
    v = np.zeros((length, 2) + ratios.shape[:-1])
    v[0, 0] = 0.5  # v[0] = 1 = 0.5 * 2**1
    exp = np.ones((length,) + ratios.shape[:-1], dtype=np.int64)
    tmp = np.empty(v.shape[1:])
    for lo in range(0, length - 1, _RENORM_STEPS):
        hi = min(lo + _RENORM_STEPS, length - 1)
        for m in range(lo, hi):
            np.multiply(v[m], same[m], out=v[m + 1])
            v[m + 1] += np.multiply(v[m, ::-1], swap[m], out=tmp)
        steps = np.cumsum(np.moveaxis(rexp[..., lo:hi], -1, 0), axis=0)
        v[lo + 1:hi + 1, 0], v[lo + 1:hi + 1, 1], exp[lo + 1:hi + 1] = _normalised(
            v[lo + 1:hi + 1, 0], v[lo + 1:hi + 1, 1], exp[lo] + steps)
    return _Table(np.moveaxis(v[:, 0], 0, -1), np.moveaxis(v[:, 1], 0, -1),
                  np.moveaxis(exp, 0, -1))


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
    lo: int             # the block's first degree
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
    """Shells lo, lo+1, ..., lo being where the block before ends: at most
    _BLOCK_DEGREES of them, as many as fit in _BLOCK_ROWS rows, and at least
    one, all within the row ceiling. ConvergenceError once shell lo does not
    fit within it."""
    left = _MAX_SERIES_ROWS - math.comb(lo - 1 + nvars, nvars)  # less the rows below lo
    sizes = _shell_sizes(nvars, np.arange(lo, lo + _BLOCK_DEGREES, dtype=np.int64))
    rows = np.cumsum(sizes)
    fit = int(np.searchsorted(rows, left, side="right"))
    if not fit:
        raise _past_ceiling(nvars, lo - 1)
    keep = min(fit, max(1, int(np.searchsorted(rows, _BLOCK_ROWS, side="right"))))
    sizes = sizes[:keep]
    comps = _compositions(nvars, np.arange(lo, lo + keep, dtype=np.int32))
    starts = np.cumsum(sizes) - sizes
    for arr in (comps, starts, sizes):
        arr.setflags(write=False)
    return _Block(comps, starts, sizes, lo, lo + keep)


# A series gathers at most this many rows, counted from degree 0: C(403, 3),
# every row of a 3-variable series through degree 400. It bounds the time and
# the block memory of one series whatever its degree cap: 3 variables reach
# degree 400, 2 variables 4651, 4 variables 124.
_MAX_SERIES_ROWS = math.comb(403, 3)


# Each store of held sequences, _blocks here and kernels._coefficients, holds
# at most this many bytes, 16 for each row of the ceiling. That fits the
# compositions (4 bytes per variable a row) of a 4-variable series to the
# ceiling, 171 MB, or of a 3-variable one (130 MB) with a 2-variable one to
# degree 3000, the (2,3) ellipsoid's cap (36 MB); and the log-coefficients
# (8 bytes a row) of two 3-variable sets to the ceiling.
_HELD_BYTES = 16 * _MAX_SERIES_ROWS


class _Sequence:
    """The items step(0, None), step(1, item 0), step(2, item 1), ..., each
    built once, in order, when first asked for, and held. nbytes counts
    their bytes, size(item) each, and grew(self) is called after each build.
    Builds run under a lock, so threads share every item, and a built item
    is read without it. A build that raises leaves the sequence as it was,
    and the next request builds that item again."""

    def __init__(self, step, size, grew):
        self._step, self._size, self._grew = step, size, grew
        self._items, self._lock = [], threading.Lock()
        self.nbytes = 0

    def get(self, i: int):
        items = self._items
        if i < len(items):  # items are only ever appended
            return items[i]
        with self._lock:
            while len(items) <= i:
                items.append(self._step(len(items), items[-1] if items else None))
                self.nbytes += self._size(items[-1])
                self._grew(self)
            return items[i]

    def __iter__(self):
        return map(self.get, itertools.count())


class _Held:
    """The sequences _Sequence(step(*key), size), one per key, made when
    first asked for and shared by threads. They are held while their bytes
    add up to at most max_bytes: when one grows past it, the others are
    dropped, least recently asked for first, but never the one growing."""

    def __init__(self, step, size):
        self._step, self._size, self.max_bytes = step, size, _HELD_BYTES
        self._held = {}  # key -> sequence, least recently asked for first
        self._lock = threading.Lock()

    def __call__(self, *key) -> _Sequence:
        with self._lock:
            seq = self._held.pop(key, None) or _Sequence(self._step(*key), self._size, self._grew)
            self._held[key] = seq
            return seq

    def _grew(self, seq: _Sequence) -> None:
        with self._lock:
            held = self._held
            total = sum(s.nbytes for s in held.values())
            for key in [k for k, s in held.items() if s is not seq]:
                if total <= self.max_bytes:
                    break
                total -= held.pop(key).nbytes

    def cache_clear(self) -> None:
        with self._lock:
            self._held.clear()


# _blocks(nvars): the blocks of every series of nvars variables, from degree 0,
# each starting where the one before ends; past the last, ConvergenceError.
_blocks = _Held(lambda nvars: lambda i, prev: _build_block(nvars, prev.hi if prev else 0),
                lambda block: block.comps.nbytes)


# Front series (appell_fa, doubled_index_multisum). The terms
# front[M] * prod_i seq_i[m_i] of total degree M = m_1 + ... + m_n add to
# front[M] * W_n[M], where W_1 = seq_1 and
# W_k[K] = sum_{j <= K} W_{k-1}[j] seq_k[K - j]: the same multi-index sum,
# grouped by partial totals.

# The first table length of a front series; a series still running at the
# end of its tables doubles them.
_FIRST_TABLE_LENGTH = 32
# Elements (series times (K, j) pairs) in one pass of a merge: its eight
# reused buffers then take about a megabyte.
_PAIR_CHUNK = 1 << 14


def _past_ceiling(nvars: int, degree: int) -> ConvergenceError:
    # the error of a series still running after the last degree the row
    # ceiling allows it
    return ConvergenceError(f"a series of {nvars} variables would reach past degree {degree}, "
                            f"the ceiling of {_MAX_SERIES_ROWS} rows")


def _last_degree(nvars: int) -> int:
    """The last degree D a front series of nvars variables may sum within
    _MAX_SERIES_ROWS rows: a table holds one row per degree, D + 1 through
    D, and a merge one row per pair j <= K <= D, C(D + 2, 2). So 1 variable
    reaches degree _MAX_SERIES_ROWS - 1, and any more reach 4651."""
    if nvars == 1:
        return _MAX_SERIES_ROWS - 1
    return (math.isqrt(8 * _MAX_SERIES_ROWS + 1) - 3) // 2


def _merge(w: _Table, u: _Table, lo: int, hi: int) -> _Table:
    """Entries lo..hi-1 of W[K] = sum_{j <= K} w[j] u[K - j], for the
    sequences in the rows of w and u. Each entry adds its K + 1 products at
    one common exponent, their largest, reached by exact powers of two;
    every step is per row, so an entry does not depend on the other rows.
    The entries are made a few at a time, in reused buffers of about
    _PAIR_CHUNK elements."""
    rows = w.re.shape[0]
    wr, wi, we, ur, ui, ue = (np.ascontiguousarray(arr) for arr in (*w, *u))
    out = _Table(np.empty((rows, hi - lo)), np.empty((rows, hi - lo)),
                 np.empty((rows, hi - lo), dtype=np.int64))
    span = _PAIR_CHUNK // max(rows, 1)  # pairs per pass, but at least one entry's
    size = rows * min(max(span, hi), (hi * (hi + 1) - lo * (lo + 1)) // 2)
    ints = [np.empty(size, dtype=np.int64) for _ in range(2)]
    floats = [np.empty(size) for _ in range(6)]
    first = lo
    while lo < hi:
        top = min(hi, max(lo + 1, (math.isqrt(4 * (lo * (lo + 1) + 2 * span) + 1) - 1) // 2))
        sizes = np.arange(lo + 1, top + 1)
        starts = np.cumsum(sizes) - sizes
        k = np.repeat(np.arange(lo, top), sizes)
        j = np.arange(len(k)) - np.repeat(starts, sizes)
        shape = (rows, len(k))
        e, t = (buf[:rows * len(k)].reshape(shape) for buf in ints)
        ar, ai, br, bi, re, im = (buf[:rows * len(k)].reshape(shape) for buf in floats)
        np.take(we, j, axis=1, out=e)
        e += np.take(ue, k - j, axis=1, out=t)
        common = np.maximum.reduceat(e, starts, axis=1)
        # 2^(e - common), an exact power of two built from its bits (0 from
        # 2^-1023 down)
        e -= np.take(common, k - lo, axis=1, out=t)
        np.maximum(e, -1023, out=e)
        e += 1023
        e <<= 52
        scale = e.view(np.float64)
        np.take(wr, j, axis=1, out=ar)
        np.take(wi, j, axis=1, out=ai)
        np.take(ur, k - j, axis=1, out=br)
        np.take(ui, k - j, axis=1, out=bi)
        np.multiply(ar, br, out=re)
        re -= np.multiply(ai, bi, out=im)
        np.multiply(ar, bi, out=im)
        im += np.multiply(ai, br, out=ai)
        re *= scale
        im *= scale
        part = _normalised(np.add.reduceat(re, starts, axis=1),
                           np.add.reduceat(im, starts, axis=1), common)
        for whole, new in zip(out, part):
            whole[:, lo - first:top - first] = new
        lo = top
    return out


def _front_batch(nvars: int, ratio, params, policy: TruncationPolicy, what: str) -> list:
    """The front series of each element t of the arrays params, each as its
    SeriesValue or its ConvergenceError. ratio(*params, m) gives the ratios
    of seq_1..seq_n and then of the front, one row each, for
    m = 0..len(m)-1, so _ratio_logseq builds their tables. Tables start at
    _FIRST_TABLE_LENGTH entries and double while a series runs, for the
    series still running only. Each series stops by _sum_shells' rule, its
    total and its last two small flags carried from one table length to the
    next, after the shell of the policy's cap or of _last_degree(nvars),
    whichever comes first."""
    count = len(params[0])
    out = [None] * count
    last = min(policy.max_total_degree, _last_degree(nvars))
    live = np.arange(count)
    total = np.zeros((2, count))                 # real and imaginary parts
    small = np.zeros((count, 2), dtype=bool)     # were the last two shells small
    none = np.zeros((count, 0))
    merged = [_Table(none, none, none.astype(np.int64))] * (nvars - 1)  # W_2..W_n so far
    lo, hi = 0, min(_FIRST_TABLE_LENGTH, last + 1)
    while live.size:
        tables = _ratio_logseq(functools.partial(ratio, *(p[live] for p in params)), hi)
        w = _Table(*(arr[:, 0] for arr in tables))
        for i in range(1, nvars):
            step = _merge(w, _Table(*(arr[:, i] for arr in tables)), lo, hi)
            w = merged[i - 1] = _Table(*map(np.hstack, zip(merged[i - 1], step)))
        wr, wi = w.re[:, lo:hi], w.im[:, lo:hi]
        fr, fi = tables.re[:, -1, lo:hi], tables.im[:, -1, lo:hi]
        re, im = wr * fr - wi * fi, wr * fi + wi * fr
        exp = w.exp[:, lo:hi] + tables.exp[:, -1, lo:hi]
        shells = np.ldexp(re, exp), np.ldexp(im, exp)
        sums = [np.cumsum(np.column_stack((t, s)), axis=1)[:, 1:] for t, s in zip(total, shells)]
        mags = np.hypot(*shells)
        bound = policy.tail_tol * np.maximum(np.hypot(*sums), _TINY)
        flags = np.column_stack((small, mags <= bound))
        three = flags[:, 2:] & flags[:, 1:-1] & flags[:, :-2]
        done = three.any(axis=1)
        for t, k in zip(np.flatnonzero(done), three.argmax(axis=1)[done]):
            out[live[t]] = SeriesValue(complex(sums[0][t, k], sums[1][t, k]), float(mags[t, k]),
                                       lo + int(k) + 1)
        going = ~done
        if hi > last:
            for t in live[going]:
                out[t] = (_exhausted(what, policy) if last == policy.max_total_degree
                          else _past_ceiling(nvars, last))
            break
        live, small = live[going], flags[going, -2:]
        total = np.stack([s[going, -1] for s in sums])
        merged = [_Table(*(arr[going] for arr in m)) for m in merged]
        lo, hi = hi, min(2 * hi, last + 1)
    return out


def _result(outcome) -> SeriesValue:
    """A batch element's SeriesValue; where it is an error, raise it."""
    if isinstance(outcome, BergkernError):
        raise outcome
    return outcome


def _outcome(fn, *args):
    """fn(*args), or the BergkernError it raised."""
    try:
        return fn(*args)
    except BergkernError as exc:
        return exc


def _check_finite(what: str, *values) -> None:
    """ValueError unless every parameter and argument is finite: a nan or
    inf would otherwise run a series to its cap."""
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError(f"{what} needs finite parameters and arguments")


def _check_gauss_args(c: float, z: complex) -> None:
    _check_lower_param(c, "gauss_2f1")
    if abs(z) >= 1.0:
        raise ConvergenceError(f"gauss_2f1 requires |z| < 1, got |z| = {abs(z)}")


def gauss_2f1(a: float, b: float, c: float, z: complex,
              policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Direct series sum of 2F1(a, b; c; z) for |z| < 1."""
    z = complex(z)
    _check_finite("gauss_2f1", a, b, c, z)
    _check_gauss_args(c, z)

    def terms():  # every term, each from the one before
        term = 1.0 + 0j
        yield term
        for deg in itertools.count(1):
            k = deg - 1  # c + k is 0.0 only at c = -k, which _pole refused
            term = term * ((a + k) * (b + k) / ((c + k) * deg)) * z
            yield term

    return _sum_shells(terms(), policy, "gauss_2f1")


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
    scalar calls. Each term repeats CPython's complex arithmetic, a complex
    times a float and then times z, on float real and imaginary arrays, and
    the stop rule of _sum_shells applies per element.
    A pole or |z| >= 1 raises the scalar's error for the first such element;
    an element that uses up the policy is flagged, not raised."""
    a, b, c, z = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                                     np.asarray(c, dtype=float), np.asarray(z, dtype=complex))
    _check_finite("gauss_2f1", a, b, c, z)
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
                # term * f, with f converted to complex(f, 0.0), then * z
                k = deg - 1
                f = (a + k) * (b + k) / ((c + k) * deg)
                qr = tr * f - ti * 0.0
                qi = tr * 0.0 + ti * f
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


def _fa_ratio(a, b, c, z, m):
    # rows seq_1..seq_n, ratio (b_i + m) / ((c_i + m)(m + 1)) z_i, then the
    # front, ratio a + m; a real factor times z rounds as two real products
    return np.concatenate(((b[..., None] + m) / ((c[..., None] + m) * (m + 1)) * z[..., None],
                           (a[:, None] + m)[:, None]), axis=1)


def _fa_error(c, z) -> BergkernError | None:
    """The error appell_fa raises before any shell for lower parameters c
    and arguments z, if any."""
    for ci in c:
        if pole := _pole(ci, "appell_fa"):
            return pole
    if sum(abs(v) for v in z) >= 1.0:
        return ConvergenceError("appell_fa requires sum |z_i| < 1")
    return None


def _batch_outcomes(errors, nvars: int, ratio, params, policy: TruncationPolicy,
                    what: str) -> list:
    """errors[t] where it is set, else element t's front series: one
    _front_batch over the elements without an error."""
    ok = np.array([e is None for e in errors], dtype=bool)
    sums = iter(_front_batch(nvars, ratio, [p[ok] for p in params], policy, what))
    return [e or next(sums) for e in errors]


def appell_fa_batch(a, b, c, z, policy: TruncationPolicy = DEFAULT_POLICY) -> list:
    """appell_fa of every element: a holds one entry per element, and b, c
    and z one row of n each, the same n for every element. Each element
    gives the SeriesValue of the scalar call or the BergkernError it raises,
    in order; a ValueError is raised for the whole batch. The series of
    n >= 2 variables are summed together by _front_batch; n = 1 is the
    Gauss series, which gauss_2f1 sums element by element."""
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2 or not z.shape[1] or b.shape != z.shape or c.shape != z.shape \
            or a.shape != z.shape[:1]:
        raise ValueError("appell_fa needs equal-length b, c, z with n >= 1")
    _check_finite("appell_fa", a, b, c, z)
    errors = [_fa_error(ct, zt) for ct, zt in zip(c.tolist(), z.tolist())]
    if z.shape[1] == 1:
        # F_A^(1) is the Gauss series itself; the scalar recurrence is exact
        return [e or _outcome(gauss_2f1, at, bt, ct, zt, policy)
                for e, at, (bt,), (ct,), (zt,) in zip(errors, a.tolist(), b.tolist(),
                                                       c.tolist(), z.tolist())]
    return _batch_outcomes(errors, z.shape[1], _fa_ratio, (a, b, c, z), policy, "appell_fa")


def appell_fa(a: float, b, c, z, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Direct multi-series sum of F_A^{(n)}(a; b; c; z) for sum |z_i| < 1:
    appell_fa_batch of this one element."""
    return _result(appell_fa_batch([a], [tuple(b)], [tuple(c)], [tuple(z)], policy)[0])


def fa_equal_params_closed(a: float, z) -> complex:
    """(1 - z_1 - ... - z_n)^(-a): the F_A value when upper and lower vector
    parameters coincide."""
    total = sum(complex(v) for v in z)
    return principal_pow(1.0 - total, -a)


def _multisum_ratio(a, c, x, m):
    # rows seq_1..seq_r, ratio x_i / (m + 1), then the front, ratio
    # (a + 2m)(a + 2m + 1) / (c + m)
    a, c = a[:, None, None], c[:, None, None]
    return np.concatenate((x[..., None] / (m + 1),
                           (a + 2 * m) * (a + 2 * m + 1) / (c + m)), axis=1)


def _multisum_error(c, x) -> BergkernError | None:
    """The error doubled_index_multisum raises before any shell for lower
    parameter c and arguments x, if any."""
    if pole := _pole(c, "doubled_index_multisum"):
        return pole
    if sum(abs(v) for v in x) >= 0.25:
        return ConvergenceError("doubled_index_multisum requires sum |x_i| < 1/4")
    return None


def doubled_index_multisum_batch(a, c, x, policy: TruncationPolicy = DEFAULT_POLICY) -> list:
    """doubled_index_multisum of every element, all summed together by
    _front_batch: a and c hold one entry per element, x one row of r each,
    the same r for every element. Each element gives the SeriesValue of the
    scalar call or the BergkernError it raises, in order; a ValueError is
    raised for the whole batch."""
    a, c = (np.asarray(v, dtype=float) for v in (a, c))
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or a.shape != x.shape[:1] or c.shape != a.shape:
        raise ValueError("doubled_index_multisum_batch needs one a, c and row x per element")
    if not x.shape[1]:
        raise ValueError("doubled_index_multisum needs at least one variable")
    _check_finite("doubled_index_multisum", a, c, x)
    errors = [_multisum_error(ct, xt) for ct, xt in zip(c.tolist(), x.tolist())]
    return _batch_outcomes(errors, x.shape[1], _multisum_ratio, (a, c, x), policy,
                           "doubled_index_multisum")


def doubled_index_multisum(a: float, c: float, x,
                           policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Sum of (a)_{2(m_1+...+m_r)} x^m / ((c)_{m_1+...+m_r} m_1! ... m_r!)
    for sum |x_i| < 1/4: doubled_index_multisum_batch of this one element.

    Collapses analytically to 2F1(a/2, (a+1)/2; c; 4(x_1+...+x_r)); this
    routine sums the multi-index series directly so the collapse can be
    verified rather than assumed.
    """
    return _result(doubled_index_multisum_batch([a], [c], [tuple(x)], policy)[0])


def fa_decomposition_rhs(a: float, b1: float, c1: float, y,
                         policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Decomposition-formula right-hand side for F_A with b_i = c_i, i >= 2:

        sum over (m_2..m_r) of
            (a)_M (b1)_M / ((c1)_M m_2!...m_r!) * y_1^M y_2^{m_2}...y_r^{m_r}
            * 2F1(a+M, b1+M; c1+M; y_1) * (1 - y_2 - ... - y_r)^{-(a+M)},
        M = m_2 + ... + m_r,

    summed over M alone: with S = y_2 + ... + y_r, the terms of one M add to

        (1 - S)^(-a) (a)_M (b1)_M / ((c1)_M M!) * t^M * 2F1(a+M, b1+M; c1+M; y_1),
        t = y_1 S / (1 - S).
    """
    y = tuple(complex(v) for v in y)
    return _decomposition_series(  # gauss_2f1 is looked up at each call
        a, b1, c1, y, policy,
        lambda deg: gauss_2f1(a + deg, b1 + deg, c1 + deg, y[0], policy).value)


def _decomposition_series(a: float, b1: float, c1: float, y, policy: TruncationPolicy,
                          inner) -> SeriesValue:
    """fa_decomposition_rhs, with inner(M) giving the shell-M factor
    2F1(a+M, b1+M; c1+M; y_1). The printed shell M sums y_2^{m_2}...y_r^{m_r}
    / (m_2!...m_r!) over m_2+...+m_r = M, which is S^M / M! by the
    multinomial theorem, so the shells are the one-index terms, each
    coefficient built from the one before. inner is called for each shell
    summed, in order, and for no shell past the stop or the degree cap:
    there its 2F1 need not converge."""
    y = tuple(complex(v) for v in y)
    r = len(y)
    if r < 2:
        raise ValueError("fa_decomposition_rhs needs at least 2 variables")
    _check_finite("fa_decomposition_rhs", a, b1, c1, y)
    _check_lower_param(c1, "fa_decomposition_rhs")
    y1, rest = y[0], y[1:]
    if abs(y1) >= 1.0:
        raise ConvergenceError("fa_decomposition_rhs requires |y_1| < 1")
    if sum(abs(v) for v in rest) >= 1.0:
        raise ConvergenceError("fa_decomposition_rhs requires sum_{i>=2} |y_i| < 1")
    srest = sum(rest)
    t = y1 * srest / (1.0 - srest)

    def shells():
        coef = principal_pow(1.0 - srest, -a)
        for deg in itertools.count():
            yield coef * inner(deg)
            coef *= (a + deg) * (b1 + deg) / ((c1 + deg) * (deg + 1)) * t

    return _sum_shells(shells(), policy, "fa_decomposition_rhs")


# --- closed 2F1 family -------------------------------------------------------
#
# The closed forms and rejected displays share the substitution w = sqrt(1-z);
# the reductions use (w - 1) = -z / (1 + w) exactly, which cancels every z
# denominator and makes each form finite and stable through z = 0.

# The 2F1 parameters (alpha, beta, c) of each family member, as functions of a.
_FAMILY_PARAMS = {
    "i": lambda a: ((a + 1) / 2, (a + 2) / 2, a),
    "ii": lambda a: ((a + 3) / 2, (a + 4) / 2, a + 2),
    "iii": lambda a: ((a + 3) / 2, (a + 4) / 2, a + 3),
    "iv": lambda a: ((a + 3) / 2, (a + 4) / 2, a),
    "v": lambda a: ((a + 2) / 2, (a + 3) / 2, a),
}
_VARIANTS = ("i", "ii", "iii")


def _branch_parts(z: complex):
    w = principal_sqrt(1.0 - z)
    if not w.real > 0.0:
        raise BranchError(f"closed 2F1 forms require Re(1-z) > 0, got z = {z}")
    return w, 1.0 + w, principal_pow(1.0 - z, 1.5)


def closed_2f1_family(variant: str, a: float, z: complex) -> complex:
    """Closed-form evaluation of one 2F1 family member.

    Variants, as in _FAMILY_PARAMS (real a, lower parameter > 0, Re(1-z) > 0):
      "i"   F((a+1)/2, (a+2)/2; a;   z)
      "ii"  F((a+3)/2, (a+4)/2; a+2; z)
      "iii" F((a+3)/2, (a+4)/2; a+3; z)

    "iv" F((a+3)/2, (a+4)/2; a; z) and "v" F((a+2)/2, (a+3)/2; a; z) are
    evaluated by closed_2f1_recurrence; their printed two-term displays fail
    the series cross-check and live only in the private _closed_2f1_display.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {_VARIANTS} "
                         "(closed_2f1_recurrence evaluates 'iv' and 'v')")
    # each variant needs its lower 2F1 parameter c positive ("ii"/"iii" stay
    # valid at shifted a, which the "v" recurrence relies on); c - a is
    # constant, so that is a > -c(0)
    params = _FAMILY_PARAMS[variant]
    if not params(a)[2] > 0.0:
        raise ValueError(f"closed_2f1_family({variant!r}) requires "
                         f"a > {0.0 - params(0.0)[2]:g}, got {a}")
    z = complex(z)
    w, onepw, cuberoot = _branch_parts(z)

    if variant == "i":
        return 2.0**(a - 1) * ((a - 1) - (a - 2) / onepw) \
            / (a * cuberoot * principal_pow(onepw, a - 2))
    if variant == "ii":
        return 2.0**(a + 1) * ((a + 1) - a / onepw) \
            / ((a + 2) * cuberoot * principal_pow(onepw, a))
    return 2.0**(a + 2) / (w * principal_pow(onepw, a + 2))


def _closed_2f1_display(variant: str, a: float, z: complex) -> complex:
    # Rejected two-term displays of "iv" and "v", for report adjudication only.
    z = complex(z)
    w, onepw, cuberoot = _branch_parts(z)
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
    relations in the lower parameter; PoleError at a non-positive integer a.
    """
    _check_lower_param(a, "recurrence_coefficients")
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
    parameter; PoleError at a non-positive integer a."""
    _check_lower_param(a, "closed_2f1_recurrence")
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
