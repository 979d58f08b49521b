"""Verification sweeps behind `bergkern verify`: hypergeometric identities,
norm formulas vs quadrature, and kernel route agreement.

Every sweep is seeded and deterministic; reports carry one row per checked
case plus informational rows for the rejected formula variants that the
validated forms replace. Each suite's signature holds its defaults, which
`bergkern verify` takes for every flag left out.

Each row evaluates its two sides through _row: a BergkernError raised on
the way becomes the error that row carries, so one bad case costs one row,
not the report. A kernel route's value, read by several rows, is settled
once (_settled): it is the value or the BergkernError the route raised,
which make_row takes in place of a value. A ValueError, a usage error,
still ends the run.

The identity sweep draws each family's inputs first, then sums the family's
Gauss 2F1 series in one batched pass (hypergeo.gauss_2f1_batch, equal bit
for bit to gauss_2f1) and its F_A and doubled-index series in one batch per
variable count (hypergeo.appell_fa_batch and doubled_index_multisum_batch,
equal to the scalar calls), then makes its rows in order.

The kernel sweep and `bergkern eval` reach a domain's kernels through one
route table, _kernel_routes: a closed route (d1, d2) and a series route (all
three). DomainSpec.of checks a domain's parameters, for the norm sweep too.
One suite body serves every domain: route rows (or the unit-ball form for an
all-ones ellipsoid), Hermitian and positivity rows, then the closed routes'
extras. Its series stop on kernels.KERNEL_POLICY unless told otherwise.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import time
from functools import partial

import numpy as np

from .domains import (DomainSpec, PointPair, _positive, diagonal_pair, sample_interior,
                      sample_pairs)
from .errors import BergkernError
from .hypergeo import (_FAMILY_PARAMS, SeriesBatch, TruncationPolicy, _alternate_recurrence_rhs,
                       _closed_2f1_display, _decomposition_series, _exhausted, _result,
                       appell_fa_batch, closed_2f1_family, closed_2f1_recurrence,
                       doubled_index_multisum_batch, fa_equal_params_closed, gauss_2f1,
                       gauss_2f1_batch, recurrence_coefficients)
from .kernels import (KERNEL_POLICY, _kernel_closed_d1_alternate, _kernel_closed_d2_alternate,
                      kernel_closed_d1_nu, kernel_closed_d2_nu, kernel_series_d1_nu,
                      kernel_series_d2_nu, kernel_series_ellipsoid_nu, potential_closed_d1)
from .norms import norm_closed, norm_quadrature
from .numerics import DualComplex
from .report import VerificationReport, make_row

D2_SPOT_NU = (0.25 + 0j, 0j, 0j)

_HERMITIAN_TOL = 1e-12
_POSITIVITY_TOL = 1e-10
_GRADIENT_CHECKS = 25
# Tolerance of the recurrence family's rows; the other identity rows take tol.
_RECURRENCE_TOL = 1e-9
# Radius of the closed-form rows' z: |z| <= 0.6 keeps Re(1 - z) >= 0.4 > 0
_CLOSED_Z_RADIUS = 0.6


def _row(case_id: str, suite: str, inputs: dict, evaluate, tol: float):
    """The row of the (lhs, rhs) pair that evaluate() returns, either of
    which may be a settled error, or, where evaluate() raises a
    BergkernError, the row that carries that error."""
    try:
        lhs, rhs = evaluate()
    except BergkernError as exc:
        lhs = rhs = exc
    return make_row(case_id, suite, inputs, lhs, rhs, tol)


def _settled(route, nu):
    """route(nu).value, or the BergkernError that route raised."""
    try:
        return route(nu).value
    except BergkernError as exc:
        return exc


def _finish(report: VerificationReport, t0: float) -> VerificationReport:
    report.wall_time_ms = int((time.perf_counter() - t0) * 1000)
    report.sort()
    return report


def _draw_in_disk(rng: random.Random, radius: float) -> complex:
    return cmath.rect(radius * math.sqrt(rng.random()), rng.uniform(0.0, 2 * math.pi))


def _batch_value(batch: SeriesBatch, index, policy: TruncationPolicy) -> complex:
    """The batch's value at index; at an element that used up the policy,
    the scalar gauss_2f1's error, raised for the row that reads it."""
    if batch.exhausted[index]:
        raise _exhausted("gauss_2f1", policy)
    return complex(batch.value[index])


def _gauss_batch(args, policy: TruncationPolicy):
    """One gauss_2f1_batch over the (a, b, c, z) tuples of args, and the
    lookup of args[k]'s value."""
    batch = gauss_2f1_batch(*(np.array(v) for v in zip(*args)), policy)
    return lambda k: _batch_value(batch, k, policy)


def _by_count(draws, batch):
    """One batch(group) per variable count over the draws, each of which
    ends with its variables, and the lookup of draw k's series value, which
    raises the error its series gave."""
    outcomes = [None] * len(draws)
    for n in sorted({len(d[-1]) for d in draws}):
        ks = [k for k, d in enumerate(draws) if len(d[-1]) == n]
        for k, outcome in zip(ks, batch([draws[k] for k in ks])):
            outcomes[k] = outcome
    return lambda k: _result(outcomes[k]).value


# Inner 2F1s of the decomposition family taken from one batch, degrees 0-31;
# a trial stops after 8-22 shells at the README's seed.
_DECOMPOSITION_DEGREES = 32


def _decomposition_inner(table: SeriesBatch, i: int, a: float, b1: float, c1: float,
                         y1: complex, policy: TruncationPolicy):
    """The inner 2F1 of shell deg of decomposition trial i, from row i of
    table (degrees 0, 1, ...), or the scalar call past its end."""
    def inner(deg: int) -> complex:
        if deg < table.exhausted.shape[1]:
            return _batch_value(table, (i, deg), policy)
        return gauss_2f1(a + deg, b1 + deg, c1 + deg, y1, policy).value
    return inner


def run_identity_suite(trials: int = 200, seed: int = 7, tol: float = 1e-10,
                       tail_tol: float = 1e-13, max_degree: int = 400) -> VerificationReport:
    """Hypergeometric identity sweep: multisum collapse, closed 2F1 forms,
    equal-parameter collapse, decomposition formula, and the contiguous
    recurrence family.

    Each family draws all its inputs first, in the order of its rows, then
    sums its Gauss series in one gauss_2f1_batch and its other series in one
    batch per variable count, then makes its rows. No draw depends on an
    evaluated value, and a series that raises gives its error to the rows
    that read it, so the report is that of evaluating row by row."""
    if trials < 1:
        raise ValueError(f"identity suite needs trials >= 1, got {trials}")
    _positive(tol, "tol")
    t0 = time.perf_counter()
    policy = TruncationPolicy(max_total_degree=max_degree, tail_tol=tail_tol)
    rep = VerificationReport("identities", {
        "trials": trials, "seed": seed, "tol": tol,
        "recurrence_tol": _RECURRENCE_TOL, "tail_tol": tail_tol,
        "max_degree": max_degree,
    })
    rng = random.Random(seed)

    draws = []
    for _ in range(trials):
        r = rng.choice((1, 2, 3))
        a = rng.uniform(0.5, 6.0)
        c = rng.uniform(0.5, 6.0)
        raw = [_draw_in_disk(rng, 1.0) for _ in range(r)]
        scale = rng.uniform(0.02, 0.2) / max(sum(abs(v) for v in raw), 1e-12)
        draws.append((r, a, c, tuple(v * scale for v in raw)))
    lhs = _by_count(draws, lambda group: doubled_index_multisum_batch(*list(zip(*group))[1:],
                                                                      policy))
    rhs = _gauss_batch([(a / 2, (a + 1) / 2, c, 4 * sum(x)) for _, a, c, x in draws], policy)
    for i, (r, a, c, x) in enumerate(draws):
        rep.rows.append(_row(f"multisum-collapse/{i:04d}", "identities",
                             {"r": r, "a": a, "c": c, "x": list(x)},
                             lambda: (lhs(i), rhs(i)), tol))

    draws = [(variant, i, rng.uniform(0.5, 6.0), _draw_in_disk(rng, _CLOSED_Z_RADIUS))
             for variant in ("i", "ii", "iii") for i in range(trials)]
    rhs = _gauss_batch([_FAMILY_PARAMS[variant](a) + (z,) for variant, _, a, z in draws],
                       policy)
    for k, (variant, i, a, z) in enumerate(draws):
        rep.rows.append(_row(f"closed-2f1-{variant}/{i:04d}", "identities", {"a": a, "z": z},
                             lambda: (closed_2f1_family(variant, a, z), rhs(k)), tol))

    draws = []
    for _ in range(trials):
        n = rng.choice((1, 2, 3))
        a = rng.uniform(0.5, 6.0)
        b = tuple(rng.uniform(0.5, 6.0) for _ in range(n))
        raw = [_draw_in_disk(rng, 1.0) for _ in range(n)]
        scale = rng.uniform(0.05, 0.5) / max(sum(abs(v) for v in raw), 1e-12)
        draws.append((n, a, b, tuple(v * scale for v in raw)))

    def equal_params(group):
        _, a, b, z = zip(*group)
        return appell_fa_batch(a, b, b, z, policy)

    lhs = _by_count(draws, equal_params)
    for i, (n, a, b, z) in enumerate(draws):
        rep.rows.append(_row(f"equal-param-collapse/{i:04d}", "identities",
                             {"n": n, "a": a, "b": list(b), "z": list(z)},
                             lambda: (lhs(i), fa_equal_params_closed(a, z)), tol))

    draws = []
    for _ in range(trials):
        r = rng.choice((2, 3))
        a = rng.uniform(0.5, 6.0)
        b1 = rng.uniform(0.5, 6.0)
        c1 = rng.uniform(0.5, 6.0)
        shared = rng.uniform(0.5, 6.0)
        y1 = _draw_in_disk(rng, 0.3)
        raw = [_draw_in_disk(rng, 1.0) for _ in range(r - 1)]
        scale = rng.uniform(0.02, 0.3) / max(sum(abs(v) for v in raw), 1e-12)
        draws.append((r, a, b1, c1, shared, (y1,) + tuple(v * scale for v in raw)))
    degrees = np.arange(_DECOMPOSITION_DEGREES)
    table = gauss_2f1_batch(*(np.add.outer([d[k] for d in draws], degrees) for k in (1, 2, 3)),
                            np.array([d[5][0] for d in draws])[:, None], policy)

    def shared_params(group):  # F_A(a; b1, shared, ...; c1, shared, ...; y)
        r, a, b1, c1, shared, y = zip(*group)
        rest = [(v,) * (n - 1) for n, v in zip(r, shared)]
        return appell_fa_batch(a, [(v,) + t for v, t in zip(b1, rest)],
                               [(v,) + t for v, t in zip(c1, rest)], y, policy)

    fa = _by_count(draws, shared_params)
    for i, (r, a, b1, c1, shared, y) in enumerate(draws):
        inner = _decomposition_inner(table, i, a, b1, c1, y[0], policy)
        rep.rows.append(_row(f"decomposition/{i:04d}", "identities",
                             {"r": r, "a": a, "b1": b1, "c1": c1, "shared": shared, "y": list(y)},
                             lambda: (_decomposition_series(a, b1, c1, y, policy, inner).value,
                                      fa(i)), tol))

    # contiguous recurrence family: validated forms gate, rejected displays
    # and the rejected coefficient set are informational
    draws = [(rng.uniform(0.5, 6.0), _draw_in_disk(rng, _CLOSED_Z_RADIUS)) for _ in range(trials)]
    # f2 and f3 are s_iv's c = a+2 and c = a+3 neighbours, members ii and iii
    series = _gauss_batch([_FAMILY_PARAMS[variant](a) + (z,) for a, z in draws
                           for variant in ("iv", "v", "ii", "iii")], policy)
    for i, (a, z) in enumerate(draws):
        s_iv, s_v, f2, f3 = (partial(series, 4 * i + k) for k in range(4))
        c2, c3 = recurrence_coefficients(a, z)
        az = {"a": a, "z": z}
        rep.rows.append(_row(f"recurrence-closed-iv/{i:04d}", "identities", az,
                             lambda: (closed_2f1_recurrence("iv", a, z), s_iv()),
                             _RECURRENCE_TOL))
        rep.rows.append(_row(f"recurrence-closed-v/{i:04d}", "identities", az,
                             lambda: (closed_2f1_recurrence("v", a, z), s_v()), _RECURRENCE_TOL))
        rep.rows.append(_row(f"recurrence-relation/{i:04d}", "identities", az,
                             lambda: (s_iv(), c2 * f2() + c3 * f3()), _RECURRENCE_TOL))
        rep.informational.append(_row(f"direct-display-iv/{i:04d}", "identities", az,
                                      lambda: (_closed_2f1_display("iv", a, z), s_iv()),
                                      _RECURRENCE_TOL))
        rep.informational.append(_row(f"direct-display-v/{i:04d}", "identities", az,
                                      lambda: (_closed_2f1_display("v", a, z), s_v()),
                                      _RECURRENCE_TOL))
        if i < 50:
            rep.informational.append(_row(
                f"alternate-relation-coefficients/{i:04d}", "identities", az,
                lambda: (s_iv(), _alternate_recurrence_rhs(a, z, f2(), f3())), _RECURRENCE_TOL))

    return _finish(rep, t0)


def run_norm_suite(domain: str = "d2", max_index: int | None = None,
                   tol: float = 1e-8, p: float | None = None,
                   lam: float | None = None) -> VerificationReport:
    """Closed norm formulas against the quadrature oracle, over the full
    admissible index grid."""
    if max_index is not None and max_index < 0:
        raise ValueError(f"norm suite needs max_index >= 0, got {max_index}")
    _positive(tol, "tol")
    t0 = time.perf_counter()
    rep = VerificationReport("norms", {
        "domain": domain, "max_index": max_index, "tol": tol, "p": p, "lam": lam,
    })
    if domain == "d2":
        max_index = 4 if max_index is None else max_index
        spec = DomainSpec.of("d2", p, lam)
        for a2 in range(max_index + 1):
            for a3 in range(max_index + 1):
                for a1 in range(-2 - a2 - a3, 7):
                    alpha = (a1, a2, a3)
                    rep.rows.append(_row(
                        f"norm-d2/{a1:+03d}_{a2}_{a3}", "norms", {"alpha": list(alpha)},
                        lambda: (norm_closed(spec, alpha), norm_quadrature(spec, alpha)), tol))
    elif domain == "d1":
        max_index = 3 if max_index is None else max_index
        combos = [(p, lam)] if p is not None or lam is not None else \
            itertools.product((0.5, 1.0, 2.0, 2.5), (1.0, 2.0, 3.0))
        for pv, lv in combos:
            spec = DomainSpec.of("d1", pv, lv)
            for alpha in itertools.product(range(max_index + 1), repeat=4):
                rep.rows.append(_row(
                    f"norm-d1/p{pv}_l{lv}/{'_'.join(map(str, alpha))}", "norms",
                    {"alpha": list(alpha), "p": pv, "lam": lv},
                    lambda: (norm_closed(spec, alpha), norm_quadrature(spec, alpha)), tol))
    else:
        raise ValueError(f"norm suite supports d1 and d2, got {domain!r}")
    return _finish(rep, t0)


def _kernel_routes(domain: str, p, lam, exponents, policy: TruncationPolicy):
    """(spec, closed, series) of a domain, each route mapping a nu vector to
    a KernelValue; closed is None where the domain has no closed form.
    DomainSpec.of checks the parameters. Exponents are read for an
    ellipsoid only, so run_kernel_suite's default (1, 1) does not stop a d1
    or d2 suite. The kernel functions are looked up when a route is called."""
    spec = DomainSpec.of(domain, p, lam, exponents if domain == "ellipsoid" else None)
    if domain == "d2":
        return (spec, lambda nu: kernel_closed_d2_nu(nu),
                lambda nu: kernel_series_d2_nu(nu, policy))
    if domain == "d1":
        return (spec, lambda nu: kernel_closed_d1_nu(nu, p, lam),
                lambda nu: kernel_series_d1_nu(nu, p, lam, policy))
    return spec, None, lambda nu: kernel_series_ellipsoid_nu(nu, spec.exponents, policy)


def _unit_ball_kernel(nu) -> complex:
    """n!/pi^n (1 - nu_1 - ... - nu_n)^-(n+1), the kernel of the unit ball
    of C^n: the ellipsoid with every p_j = 1."""
    gap = 1
    for v in nu:  # one by one: 1 - sum(nu) rounds differently
        gap -= v
    return math.factorial(len(nu)) / math.pi**len(nu) * gap ** -(len(nu) + 1)


def _positive_part(k: complex) -> tuple[complex, complex]:
    # (k, k's real part if positive, else 0): equal only for a positive k
    return k, complex(k.real, 0.0) if k.real > 0.0 else 0j


def _nu3_continuity(closed, others) -> tuple[complex, complex]:
    # the closed route at nu3 = 1e-8 and at nu3 = 0, the others fixed
    at0, near = (closed(others[:2] + [nu3] + others[2:]).value for nu3 in (0j, 1e-8 + 0j))
    return near, at0


def _worst_gradient(nu, p: float, lam: float) -> tuple[complex, complex]:
    """The closed d1 potential's dual partial d/dnu_j and its central
    difference, at the slot j where they differ most."""
    h = 1e-5
    worst = (0.0, 0j, 0j)
    for j in range(4):
        # a unit tangent on nu_j alone gives the partial d/dnu_j
        seeded = tuple(DualComplex(v, 1 + 0j if k == j else 0j) for k, v in enumerate(nu))
        slope = potential_closed_d1(seeded, p, lam).der
        up, dn = list(nu), list(nu)
        up[j] += h
        dn[j] -= h
        fd = (potential_closed_d1(tuple(up), p, lam)
              - potential_closed_d1(tuple(dn), p, lam)) / (2 * h)
        err = abs(slope - fd) / max(abs(fd), 1e-12)
        if err >= worst[0]:
            worst = (err, slope, fd)
    return worst[1], worst[2]


def run_kernel_suite(domain: str = "d2", p: float | None = None,
                     lam: float | None = None, exponents=(1, 1),
                     points: int = 50, seed: int = 7, margin: float = 0.2,
                     tol: float = 1e-6, tail_tol: float = KERNEL_POLICY.tail_tol,
                     max_degree: int = KERNEL_POLICY.max_total_degree) -> VerificationReport:
    """Kernel route agreement (or the unit-ball form for an all-ones
    ellipsoid) plus symmetry and positivity, then the closed routes'
    continuity, spot, dual-derivative and rejected-variant checks."""
    if points < 1:
        raise ValueError(f"kernel suite needs points >= 1, got {points}")
    _positive(tol, "tol")
    t0 = time.perf_counter()
    policy = TruncationPolicy(max_total_degree=max_degree, tail_tol=tail_tol)
    spec, closed, series = _kernel_routes(domain, p, lam, exponents, policy)
    rep = VerificationReport("kernels", {
        "domain": domain, "p": p, "lam": lam,
        # an integer exponent as an int, so (2, 3) reads [2, 3]
        "exponents": [int(e) if e.is_integer() else e for e in spec.exponents] or None,
        "points": points, "seed": seed, "margin": margin, "tol": tol,
        "tail_tol": tail_tol, "max_degree": max_degree,
    })
    pairs = sample_pairs(spec, seed, points, margin)
    ball = set(spec.exponents) == {1}
    # Symmetry is checked on the closed route where there is one; a series
    # route is slower and rounds worse, so it gets fewer pairs and 1e-10.
    if closed is not None:
        checked, sym_pairs, sym_tol = closed, pairs, _HERMITIAN_TOL
    else:
        checked, sym_pairs, sym_tol = series, pairs[:20], 1e-10
    summed = [_settled(series, pr.nu) for pr in (pairs if closed or ball else sym_pairs)]
    forward = [_settled(closed, pr.nu) for pr in pairs] if closed else summed
    for i, pr in enumerate(pairs):
        if closed:
            rep.rows.append(make_row(f"{domain}/route/{i:04d}", "kernels",
                                     {"nu": list(pr.nu)}, forward[i], summed[i], tol))
        elif ball:
            rep.rows.append(make_row(f"{domain}/unit-ball-collapse/{i:04d}", "kernels",
                                     {"nu": list(pr.nu)}, summed[i],
                                     _unit_ball_kernel(pr.nu), tol))
    for i, (pr, fwd) in enumerate(zip(sym_pairs, forward)):
        # K(z, zeta) against conj K(zeta, z)
        rev = PointPair(pr.zeta, pr.z).nu
        rep.rows.append(_row(f"{domain}/hermitian/{i:04d}", "kernels",
                             {"z": list(pr.z), "zeta": list(pr.zeta)},
                             lambda: (fwd, checked(rev).value.conjugate()), sym_tol))
    for i, z in enumerate(sample_interior(spec, seed + 1, max(points // 2, 1), margin)):
        rep.rows.append(_row(f"{domain}/diagonal-positive/{i:04d}", "kernels", {"z": list(z)},
                             lambda: _positive_part(checked(diagonal_pair(z).nu).value),
                             _POSITIVITY_TOL))
    if closed is None:
        return _finish(rep, t0)

    # nu3 -> 0 continuity of the closed route. For d2 the points need |nu1|
    # bounded away from 0: the nu3 derivative scales like 3K/(nu1 - nu3), so
    # tiny nu1 measures conditioning, not evaluator continuity.
    rng = random.Random(seed + 2)
    for i in range(20):
        others = ([cmath.rect(rng.uniform(0.1, 0.3), rng.uniform(0.0, 2 * math.pi)),
                   _draw_in_disk(rng, 0.03)] if domain == "d2"
                  else [_draw_in_disk(rng, 0.1) for _ in range(3)])
        rep.rows.append(_row(f"{domain}/nu3-continuity/{i:04d}", "kernels", {"nu": others},
                             lambda: _nu3_continuity(closed, others), tol))
    if domain == "d2":
        spot = _settled(series, D2_SPOT_NU)
        rep.rows.append(_row("d2/route/spot-quarter", "kernels", {"nu": list(D2_SPOT_NU)},
                             lambda: (closed(D2_SPOT_NU).value, spot), tol))
        rep.informational.append(_row(
            "d2/alternate-numerator/spot-quarter", "kernels", {"nu": list(D2_SPOT_NU)},
            lambda: (_kernel_closed_d2_alternate(D2_SPOT_NU), spot), tol))
        alternate, variant = _kernel_closed_d2_alternate, "alternate-numerator"
    else:
        for i in range(_GRADIENT_CHECKS):
            nu = pairs[i % len(pairs)].nu
            rep.rows.append(_row(f"d1/gradient-fd/{i:04d}", "kernels", {"nu": list(nu)},
                                 lambda: _worst_gradient(nu, p, lam), tol))
        alternate, variant = (lambda nu: _kernel_closed_d1_alternate(nu, p, lam),
                              "alternate-operator-weights")
    for i, pr in enumerate(pairs[:3]):
        rep.informational.append(_row(f"{domain}/{variant}/{i:04d}", "kernels",
                                      {"nu": list(pr.nu)},
                                      lambda: (alternate(pr.nu), summed[i]), tol))
    return _finish(rep, t0)
