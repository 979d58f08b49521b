"""Tests for domain membership and seeded interior/pair sampling."""

import math
import random

import numpy as np
import pytest

from bergkern import DomainSpec, PointPair, SamplingError, contains, diagonal_pair, sample_interior, sample_pairs
from bergkern import domains
from bergkern.domains import _bounding_radii


def test_contains_d2_examples():
    d2 = DomainSpec.d2()
    assert contains(d2, (0.5, 0.0, 0.0))       # 0 < 0.0625 < 0.25
    assert not contains(d2, (0.0, 0.5, 0.0))   # 0.25 < 0 fails
    assert not contains(d2, (0.9, 0.9, 0.0))


def test_contains_ellipsoid_example():
    ell = DomainSpec.ellipsoid((1.0, 1.0))
    assert contains(ell, (0.6, 0.6))           # 0.72 < 1
    assert not contains(ell, (0.8, 0.7))


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        contains(DomainSpec.d2(), (0.1, 0.1))


def test_domain_spec_validation():
    with pytest.raises(ValueError):
        DomainSpec.d1(0.0, 1.0)
    with pytest.raises(ValueError):
        DomainSpec.ellipsoid(())
    with pytest.raises(ValueError):
        DomainSpec.ellipsoid((1.0, -2.0))
    with pytest.raises(ValueError):
        DomainSpec.d1(math.inf, 1.0)
    with pytest.raises(ValueError):
        DomainSpec.d1(1.0, math.inf)
    with pytest.raises(ValueError):
        DomainSpec.ellipsoid((math.inf, 1.0))
    assert DomainSpec.d1(1.5, 2.0).dim == 4
    assert DomainSpec.d2().dim == 3
    assert DomainSpec.ellipsoid((2.0, 1.0, 1.0)).dim == 3


_INF, _NAN = math.inf, math.nan
# (kind, p, lam, exponents) -> the spec DomainSpec.of builds, or None where
# it must raise ValueError
_OF_TABLE = {
    "d1": (("d1", 2, 3, None), DomainSpec("d1", 2.0, 3.0)),
    "d1-none": (("d1", None, None, None), None),
    "d1-p-only": (("d1", 2, None, None), None),
    "d1-lam-only": (("d1", None, 3, None), None),
    "d1-exponents": (("d1", 2, 3, (1, 1)), None),
    "d1-p-inf": (("d1", _INF, 3, None), None),
    "d1-lam-inf": (("d1", 2, _INF, None), None),
    "d1-p-nan": (("d1", _NAN, 3, None), None),
    "d1-p-zero": (("d1", 0, 3, None), None),
    "d1-lam-negative": (("d1", 2, -1, None), None),
    "d2": (("d2", None, None, None), DomainSpec("d2")),
    "d2-p": (("d2", 2, None, None), None),
    "d2-lam": (("d2", None, 3, None), None),
    "d2-exponents": (("d2", None, None, (1, 1)), None),
    "ellipsoid": (("ellipsoid", None, None, (2, 3)), DomainSpec("ellipsoid", exponents=(2.0, 3.0))),
    "ellipsoid-fractional": (("ellipsoid", None, None, (0.5,)),
                             DomainSpec("ellipsoid", exponents=(0.5,))),
    "ellipsoid-none": (("ellipsoid", None, None, None), None),
    "ellipsoid-empty": (("ellipsoid", None, None, ()), None),
    "ellipsoid-p": (("ellipsoid", 2, None, (1, 1)), None),
    "ellipsoid-lam": (("ellipsoid", None, 3, (1, 1)), None),
    "ellipsoid-inf": (("ellipsoid", None, None, (_INF, 1)), None),
    "ellipsoid-nan": (("ellipsoid", None, None, (1, _NAN)), None),
    "ellipsoid-zero": (("ellipsoid", None, None, (0, 1)), None),
    "ellipsoid-negative": (("ellipsoid", None, None, (-1,)), None),
    "unknown-kind": (("d3", None, None, None), None),
}


@pytest.mark.parametrize("args, spec", list(_OF_TABLE.values()), ids=list(_OF_TABLE))
def test_domain_spec_of_parameter_rule(args, spec):
    if spec is None:
        with pytest.raises(ValueError):
            DomainSpec.of(*args)
    else:
        assert DomainSpec.of(*args) == spec


def test_sample_interior_counts_and_membership():
    d2 = DomainSpec.d2()
    assert sample_interior(d2, 42, 0, 0.1) == []
    pts = sample_interior(d2, 42, 100, 0.1)
    assert len(pts) == 100
    assert all(contains(d2, z) for z in pts)
    assert all(contains(d2, z, margin=0.1) for z in pts)


def test_sample_interior_deterministic():
    for spec in (DomainSpec.d2(), DomainSpec.d1(2.0, 1.0), DomainSpec.ellipsoid((1.0, 2.0))):
        a = sample_interior(spec, 7, 20, 0.05)
        b = sample_interior(spec, 7, 20, 0.05)
        assert a == b
        c = sample_interior(spec, 8, 20, 0.05)
        assert a != c


def test_sample_interior_margin_validation():
    with pytest.raises(ValueError):
        sample_interior(DomainSpec.d2(), 1, 1, 1.0)
    with pytest.raises(ValueError):
        sample_interior(DomainSpec.d2(), 1, -1, 0.0)


def test_d1_interior_nu3_bound():
    # |z3|^2 < rho^p - rho^(2p) <= 1/4 on all of d1
    for p, lam in ((0.5, 1.0), (1.0, 2.0), (2.5, 3.0)):
        for z in sample_interior(DomainSpec.d1(p, lam), 3, 50, 0.0):
            assert abs(z[2]) ** 2 < 0.25


def test_d2_interior_z3_below_z1():
    for z in sample_interior(DomainSpec.d2(), 5, 50, 0.0):
        assert abs(z[2]) ** 2 < abs(z[0]) ** 2


def test_pair_nu_definition_and_contraction():
    pairs = sample_pairs(DomainSpec.d1(1.0, 2.0), 11, 30, 0.1)
    for pr in pairs:
        for j in range(4):
            assert pr.nu[j] == pr.z[j] * pr.zeta[j].conjugate()
            assert abs(pr.nu[j]) <= abs(pr.z[j]) ** 2 * (1 + 1e-12)


def test_pairs_deterministic():
    a = sample_pairs(DomainSpec.d2(), 42, 10, 0.2)
    b = sample_pairs(DomainSpec.d2(), 42, 10, 0.2)
    assert a == b


def test_d2_pairs_stay_in_laurent_region():
    for pr in sample_pairs(DomainSpec.d2(), 42, 100, 0.2):
        n1, n2, n3 = pr.nu
        assert abs(n3) < abs(n1)
        assert abs(n3 / n1) < 1.0
        assert abs(n1) + abs(n2 / n1) < 1.0


def test_diagonal_pair_is_fixed_point_construction():
    z = (0.3 + 0.1j, 0.05, 0.02 - 0.01j)
    pr = diagonal_pair(z)
    assert pr.z == pr.zeta
    assert all(abs(v.imag) == 0.0 for v in pr.nu)


def test_pointpair_dimension_check():
    with pytest.raises(ValueError):
        PointPair((0.1, 0.2), (0.1,))


def test_degenerate_margin_raises_sampling_error(monkeypatch):
    import bergkern.domains as domains_mod
    monkeypatch.setattr(domains_mod, "_MAX_ATTEMPTS_PER_POINT", 2000)
    with pytest.raises(SamplingError):
        sample_interior(DomainSpec.d2(), 1, 1, 0.999999)


# --- batched rejection sampling --------------------------------------------------

def sequential_reference(spec, seed, count, margin, max_attempts=10**6):
    """The one-candidate-at-a-time rejection loop that sample_interior
    batches: its points, and the candidates each point took."""
    rng = random.Random(seed)
    radii = _bounding_radii(spec)
    points, attempts = [], []
    for _ in range(count):
        for attempt in range(max_attempts):
            z = tuple(complex(rng.uniform(-r, r), rng.uniform(-r, r)) for r in radii)
            if contains(spec, z, margin):
                points.append(z)
                attempts.append(attempt + 1)
                break
        else:
            raise SamplingError(f"no point in {max_attempts} attempts")
    return points, attempts


SAMPLER_SPECS = (DomainSpec.d2(), DomainSpec.d1(0.5, 1.0), DomainSpec.d1(2.0, 2.0),
                 DomainSpec.d1(2.5, 3.0), DomainSpec.ellipsoid((1.0, 1.0)),
                 DomainSpec.ellipsoid((2.0, 3.0)), DomainSpec.ellipsoid((1.0, 1.0, 1.0)))


def _spec_id(spec):
    params = (spec.p, spec.lam) if spec.kind == "d1" else spec.exponents
    return f"{spec.kind}{params}" if params else spec.kind


@pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=_spec_id)
def test_batched_sampler_matches_sequential_reference(spec):
    for margin in (0.0, 0.05, 0.2, 0.3):
        # d1(0.5, 1) accepts about 1 candidate in 10^4 at these margins, so
        # 40 points would take the reference loop seconds
        slow = spec.kind == "d1" and spec.p == 0.5 and margin >= 0.2
        for count in (0, 1, 3 if slow else 40):
            for seed in (1, 2, 3):
                got = sample_interior(spec, seed, count, margin)
                assert got == sequential_reference(spec, seed, count, margin)[0]


def _point(coords):
    return tuple(complex(re, im) for re, im in zip(coords[::2].tolist(), coords[1::2].tolist()))


@pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=_spec_id)
def test_prefilter_keeps_every_accepted_point_at_the_boundary(spec):
    # Bisect rays from an interior point to the last float step at which
    # contains() flips, then check candidates within a few ulps of that step
    # on both sides: the prefilter must keep every one contains() accepts.
    rng = random.Random(17)
    radii = np.repeat(_bounding_radii(spec), 2)
    accepted = rejected = 0
    for margin in (0.0, 0.05, 0.2, 0.3):
        inside = sample_interior(spec, 5, 10, min(margin + 0.05, 0.5))
        for z0 in inside:
            start = np.array([part for v in z0 for part in (v.real, v.imag)])
            end = np.array([rng.uniform(-r, r) for r in radii])
            if contains(spec, _point(end), margin):
                continue
            lo, hi = 0.0, 1.0
            while np.nextafter(lo, 1.0) < hi:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                if contains(spec, _point(start + mid * (end - start)), margin):
                    lo = mid
                else:
                    hi = mid
            ts = [lo]
            for _ in range(4):
                ts = [np.nextafter(ts[0], 0.0)] + ts + [np.nextafter(ts[-1], 1.0)]
            coords = start + np.array(ts)[:, None] * (end - start)
            keep = domains._prefilter(spec, coords, margin)
            for row, kept in zip(coords, keep):
                inside_now = contains(spec, _point(row), margin)
                accepted += inside_now
                rejected += not inside_now
                assert kept or not inside_now
    assert accepted and rejected


def test_attempt_cap_counts_misses_per_point(monkeypatch):
    # The cap bounds the candidates one point may take, not the candidates of
    # a batch or of the whole call: with the cap at the most any point took,
    # every point is found although the call draws many times the cap.
    spec, seed, count, margin = DomainSpec.d2(), 5, 60, 0.2
    points, attempts = sequential_reference(spec, seed, count, margin)
    cap = max(attempts)
    assert sum(attempts) > 10 * cap
    monkeypatch.setattr(domains, "_MAX_ATTEMPTS_PER_POINT", cap)
    assert sample_interior(spec, seed, count, margin) == points
    monkeypatch.setattr(domains, "_MAX_ATTEMPTS_PER_POINT", cap - 1)
    with pytest.raises(SamplingError):
        sample_interior(spec, seed, count, margin)
