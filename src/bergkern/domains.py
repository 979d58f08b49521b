"""Domain specifications, membership tests, and seeded interior/pair sampling.

Supported domains:
  d1(p, lam):  {z in C^4 : |z4|^lam < (|z1|^2+|z2|^2)^p + |z3|^2
                           < (|z1|^2+|z2|^2)^(p/2)}
  d2:          {z in C^3 : |z3|^2 < |z1|^4 + |z2|^2 < |z1|^2}
  ellipsoid(p):{z in C^n : sum |z_j|^(2 p_j) < 1}

Interior points are rejection-sampled from a bounding box. Candidates are
drawn from the seeded stream in vectorised batches, a numpy prefilter drops
those clearly outside, and contains() judges every survivor in order, so the
points are those of a one-candidate-at-a-time loop.

Pairs are built by shrinking and rephasing one interior point coordinatewise,
which keeps every kernel-series argument dominated by its diagonal value.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from itertools import repeat, starmap

import numpy as np

from .errors import SamplingError

_MAX_ATTEMPTS_PER_POINT = 10**6
# Rejection candidates per batch, and the prefilter's relative slack.
_MIN_BATCH = 64
_MAX_BATCH = 4096
_PREFILTER_SLACK = 1e-9


def _positive(value, what: str) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be finite and > 0, got {value}")
    return value


@dataclass(frozen=True)
class DomainSpec:
    kind: str  # "d1" | "d2" | "ellipsoid"
    p: float | None = None
    lam: float | None = None
    exponents: tuple[float, ...] = ()

    @classmethod
    def of(cls, kind: str, p=None, lam=None, exponents=None) -> "DomainSpec":
        """The domain of a kind from the parameters given: only d1 takes p
        and lam, and it needs both; only an ellipsoid takes exponents, and
        it needs at least one; every parameter is finite and > 0."""
        if kind not in ("d1", "d2", "ellipsoid"):
            raise ValueError(f"domain must be d1, d2 or ellipsoid, got {kind!r}")
        if kind == "d1" and (p is None or lam is None):
            raise ValueError("d1 needs p and lam")
        if kind != "d1" and (p is not None or lam is not None):
            raise ValueError(f"{kind} takes no p or lam")
        if kind != "ellipsoid" and exponents is not None:
            raise ValueError(f"{kind} takes no exponents")
        if kind == "d1":
            return cls.d1(p, lam)
        return cls.d2() if kind == "d2" else cls.ellipsoid(() if exponents is None else exponents)

    @classmethod
    def d1(cls, p: float, lam: float) -> "DomainSpec":
        return cls(kind="d1", p=_positive(p, "d1 p"), lam=_positive(lam, "d1 lam"))

    @classmethod
    def d2(cls) -> "DomainSpec":
        return cls(kind="d2")

    @classmethod
    def ellipsoid(cls, exponents) -> "DomainSpec":
        exps = tuple(_positive(e, "ellipsoid exponent") for e in exponents)
        if not exps:
            raise ValueError("ellipsoid needs at least one exponent")
        return cls(kind="ellipsoid", exponents=exps)

    @property
    def dim(self) -> int:
        if self.kind == "d1":
            return 4
        if self.kind == "d2":
            return 3
        return len(self.exponents)


@dataclass(frozen=True)
class PointPair:
    """A pair (z, zeta) of same-dimension points; nu is always recomputed."""

    z: tuple[complex, ...]
    zeta: tuple[complex, ...]

    def __post_init__(self):
        if len(self.z) != len(self.zeta):
            raise ValueError("z and zeta must have the same dimension")

    @property
    def nu(self) -> tuple[complex, ...]:
        return tuple(zj * wj.conjugate() for zj, wj in zip(self.z, self.zeta))


def diagonal_pair(z) -> PointPair:
    z = tuple(complex(v) for v in z)
    return PointPair(z, z)


def _inequalities(spec: DomainSpec, z) -> list[tuple[float, float]]:
    """Defining strict inequalities as (lhs, rhs) pairs, lhs < rhs required.
    Also evaluates elementwise when each z[j] is an array of coordinates."""
    if spec.kind == "d1":
        rho2 = abs(z[0]) ** 2 + abs(z[1]) ** 2
        mid = rho2 ** spec.p + abs(z[2]) ** 2
        return [(abs(z[3]) ** spec.lam, mid), (mid, rho2 ** (spec.p / 2.0))]
    if spec.kind == "d2":
        mid = abs(z[0]) ** 4 + abs(z[1]) ** 2
        return [(abs(z[2]) ** 2, mid), (mid, abs(z[0]) ** 2)]
    total = sum(abs(zj) ** (2.0 * e) for zj, e in zip(z, spec.exponents))
    return [(total, 1.0)]


def contains(spec: DomainSpec, z, margin: float = 0.0) -> bool:
    """True when every defining inequality L < R holds with L <= (1-margin)*R."""
    z = tuple(complex(v) for v in z)
    if len(z) != spec.dim:
        raise ValueError(f"point has dimension {len(z)}, spec needs {spec.dim}")
    return all(lhs <= (1.0 - margin) * rhs and lhs < rhs
               for lhs, rhs in _inequalities(spec, z))


def _bounding_radii(spec: DomainSpec) -> tuple[float, ...]:
    # Implied by the defining inequalities; see module tests for the checks.
    if spec.kind == "d1":
        return (1.0, 1.0, 0.5, 1.0)
    if spec.kind == "d2":
        return (1.0, 0.5, 0.5)
    return tuple(1.0 for _ in spec.exponents)


def _prefilter(spec: DomainSpec, coords: np.ndarray, margin: float) -> np.ndarray:
    """Mask over the rows of coords (candidates x (re, im) per coordinate)
    that keeps every candidate contains() could accept: it evaluates the same
    inequalities with numpy and drops only candidates past (1-margin)*rhs by
    a relative _PREFILTER_SLACK, far above any rounding difference between
    numpy's and the scalar arithmetic."""
    z = tuple(coords[:, 2 * j] + 1j * coords[:, 2 * j + 1] for j in range(spec.dim))
    keep = np.ones(len(coords), dtype=bool)
    for lhs, rhs in _inequalities(spec, z):
        keep &= lhs <= (1.0 - margin) * (1.0 + _PREFILTER_SLACK) * rhs
    return keep


def sample_interior(spec: DomainSpec, seed: int, count: int, margin: float = 0.0):
    """Rejection-sample `count` interior points with relative slack >= margin.

    Each candidate takes (re, im) of every coordinate uniformly from the
    bounding box, in that order, from random.Random(seed); the first `count`
    candidates that contains() accepts are returned. Candidates are drawn in
    batches sized from the acceptance seen so far, a numpy prefilter drops
    those clearly outside, and contains() judges the rest in order, so the
    points equal those of a one-candidate-at-a-time loop. SamplingError is
    raised once one point misses _MAX_ATTEMPTS_PER_POINT candidates in a row.

    Deterministic for a fixed (spec, seed, count, margin).
    """
    if not 0.0 <= margin < 1.0:
        raise ValueError("margin must lie in [0, 1)")
    if count < 0:
        raise ValueError("count must be >= 0")
    max_attempts = _MAX_ATTEMPTS_PER_POINT
    rng = random.Random(seed)
    radii = np.repeat(_bounding_radii(spec), 2)
    points = []
    drawn = misses = 0
    while len(points) < count:
        # rng.uniform(-r, r) is -r + 2r * rng.random(), bit for bit
        need = count - len(points)
        size = min(_MAX_BATCH, max_attempts - misses,
                   max(_MIN_BATCH, need * (drawn + 1) // (len(points) + 1)))
        draws = np.fromiter(starmap(rng.random, repeat((), size * len(radii))), float)
        coords = -radii + (2.0 * radii) * draws.reshape(size, len(radii))
        drawn += size
        pos = 0
        for i in np.flatnonzero(_prefilter(spec, coords, margin)).tolist():
            misses += i - pos
            pos = i + 1
            if misses >= max_attempts:
                break
            c = coords[i].tolist()
            z = tuple(complex(re, im) for re, im in zip(c[::2], c[1::2]))
            if contains(spec, z, margin):
                points.append(z)
                misses = 0
                if len(points) == count:
                    return points
            else:
                misses += 1
        else:
            misses += size - pos
        if misses >= max_attempts:
            raise SamplingError(
                f"no interior point of {spec.kind} found with margin {margin} "
                f"in {max_attempts} attempts")
    return points


def sample_pairs(spec: DomainSpec, seed: int, count: int, margin: float = 0.0):
    """Sample pairs (z, zeta) with zeta_j = s_j * exp(i theta_j) * z_j,
    s_j in (0, 1], so |nu_j| <= |z_j|^2 for every coordinate.

    For d2 the contractions of z2 and z3 are capped by the z1 contraction so
    the Laurent-series ratios |nu2/nu1|, |nu3/nu1| never exceed their diagonal
    values.
    """
    points = sample_interior(spec, seed, count, margin)
    rng = random.Random(seed ^ 0x5EED)
    pairs = []
    for z in points:
        s = [1.0 - rng.random() for _ in z]  # in (0, 1]
        if spec.kind == "d2":
            s = [s[0], s[0] * s[1], s[0] * s[2]]
        theta = [rng.uniform(0.0, 2.0 * math.pi) for _ in z]
        zeta = tuple(sj * cmath.exp(1j * tj) * zj for sj, tj, zj in zip(s, theta, z))
        pairs.append(PointPair(z, zeta))
    return pairs
