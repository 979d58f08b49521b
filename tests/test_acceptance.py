"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line (use `pytest tests/test_acceptance.py -v -s`).

Frozen reference values were computed with the stated independent oracles
(direct series summation, quadrature, central finite differences) before the
production paths existed; the two rejected formula variants tracked in the
reports are asserted to stay rejected so the adjudication cannot silently
drift.
"""

import math
import random
import time

from bergkern import (DomainSpec, DualComplex, TruncationPolicy, kernel_closed_d2_nu,
                      kernel_series_d2_nu, potential_closed_d1, sample_pairs)
from bergkern.kernels import _kernel_closed_d2_alternate
from bergkern.suites import run_identity_suite, run_kernel_suite, run_norm_suite

D2_SPOT = 2816.0 / (27.0 * math.pi**3)  # frozen: Laurent-series oracle at nu=(1/4,0,0)
D2_SPOT_REJECTED = 1792.0 / (27.0 * math.pi**3)  # value of the rejected display there


def _line(num: int, label: str, ok: bool, t0: float, note: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" | {note}" if note else ""
    print(f"acceptance {num} [{label}]: {status} in {time.perf_counter() - t0:.1f}s{extra}")
    assert ok, f"criterion {num} failed: {label}"


def _group(report, prefix):
    rows = [r for r in report.rows if r.case_id.startswith(prefix)]
    assert rows, f"no rows with prefix {prefix}"
    return rows


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    rep = run_identity_suite(trials=200, seed=7, tol=1e-10, tail_tol=1e-13)
    ok = True
    for prefix in ("multisum-collapse", "closed-2f1-i/", "closed-2f1-ii/",
                   "closed-2f1-iii/", "equal-param-collapse", "decomposition"):
        rows = _group(rep, prefix)
        ok = ok and all(r.passed for r in rows) and len(rows) == 200
    elapsed_ok = time.perf_counter() - t0 < 60.0
    _line(1, "identity sweep, 200 trials each at rel 1e-10", ok and elapsed_ok, t0,
          f"max_rel={max(r.rel_err for r in rep.rows):.2e}")


def test_criterion_2_recurrence_adjudication():
    t0 = time.perf_counter()
    rep = run_identity_suite(trials=200, seed=7, tol=1e-10, tail_tol=1e-13)
    derived = _group(rep, "recurrence-closed-iv") + _group(rep, "recurrence-closed-v") \
        + _group(rep, "recurrence-relation")
    ok = all(r.passed for r in derived)
    direct_iv = [r for r in rep.informational if r.case_id.startswith("direct-display-iv")]
    direct_v = [r for r in rep.informational if r.case_id.startswith("direct-display-v")]
    note = (f"recurrence-derived max_rel={max(r.rel_err for r in derived):.2e}; "
            f"direct displays pass {sum(r.passed for r in direct_iv)}/200 (iv), "
            f"{sum(r.passed for r in direct_v)}/200 (v) [informational]")
    alternate = [r for r in rep.informational
                 if r.case_id.startswith("alternate-relation-coefficients")]
    # regression guard: the displays and the alternate coefficient set stay
    # rejected, the derivation stays valid
    ok = ok and not any(r.passed for r in direct_iv + direct_v + alternate)
    ok = ok and len(alternate) == 50
    elapsed_ok = time.perf_counter() - t0 < 30.0
    _line(2, "two-term closed displays adjudicated via recurrence at rel 1e-9",
          ok and elapsed_ok, t0, note)


def test_criterion_3_norms_d2():
    t0 = time.perf_counter()
    rep = run_norm_suite("d2", max_index=4, tol=1e-8)
    ok = rep.summary()["failed"] == 0 and rep.summary()["total"] == 325
    elapsed_ok = time.perf_counter() - t0 < 60.0
    _line(3, "d2 norms vs quadrature oracle at rel 1e-8", ok and elapsed_ok, t0,
          f"{rep.summary()['total']} indices, max_rel={rep.summary()['max_rel_err']:.2e}")


def test_criterion_4_norms_d1():
    t0 = time.perf_counter()
    rep = run_norm_suite("d1", max_index=3, tol=1e-8)
    ok = rep.summary()["failed"] == 0 and rep.summary()["total"] == 4**4 * 12
    elapsed_ok = time.perf_counter() - t0 < 120.0
    _line(4, "d1 norms vs quadrature oracle on the (p, lam) grid at rel 1e-8",
          ok and elapsed_ok, t0,
          f"{rep.summary()['total']} cases, max_rel={rep.summary()['max_rel_err']:.2e}")


def test_criterion_5_kernel_agreement_d2():
    t0 = time.perf_counter()
    rep = run_kernel_suite("d2", points=100, seed=42, margin=0.2, tol=1e-6,
                           tail_tol=1e-10, max_degree=400)
    route = _group(rep, "d2/route/")
    ok = all(r.passed for r in route) and len(route) == 101  # 100 pairs + spot

    closed_spot = kernel_closed_d2_nu((0.25, 0.0, 0.0)).value
    series_spot = kernel_series_d2_nu((0.25, 0.0, 0.0),
                                      TruncationPolicy(400, 1e-12)).value
    ok = ok and abs(closed_spot - D2_SPOT) / D2_SPOT < 1e-13
    ok = ok and abs(series_spot - D2_SPOT) / D2_SPOT < 1e-9
    rejected = _kernel_closed_d2_alternate((0.25, 0.0, 0.0))
    ok = ok and abs(rejected - D2_SPOT_REJECTED) / D2_SPOT_REJECTED < 1e-13
    ok = ok and not any(r.passed for r in rep.informational)
    elapsed_ok = time.perf_counter() - t0 < 120.0
    _line(5, "d2 closed vs series on 100 pairs at rel 1e-6, spot value checked",
          ok and elapsed_ok, t0,
          f"spot={closed_spot.real:.9f} (rejected variant {rejected.real:.6f} stays rejected)")


def test_criterion_6_kernel_agreement_d1():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for p in (1.0, 2.0):
        for lam in (1.0, 2.0):
            rep = run_kernel_suite("d1", p=p, lam=lam, points=50, seed=42,
                                   margin=0.2, tol=1e-6, tail_tol=1e-10,
                                   max_degree=400)
            route = _group(rep, "d1/route/")
            ok = ok and all(r.passed for r in route) and len(route) == 50
            worst = max(worst, max(r.rel_err for r in route))
            ok = ok and not any(r.passed for r in rep.informational)
    elapsed_ok = time.perf_counter() - t0 < 300.0
    _line(6, "d1 closed (dual-number operator) vs series, 50 pairs x 4 (p, lam)",
          ok and elapsed_ok, t0, f"max_rel={worst:.2e}")


def test_criterion_7_potential_gradient_vs_finite_differences():
    t0 = time.perf_counter()
    rng = random.Random(1234)
    combos = [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)]
    pools = {c: sample_pairs(DomainSpec.d1(*c), 99, 25, 0.2) for c in combos}
    h = 1e-5
    worst = 0.0
    for i in range(100):
        p, lam = combos[i % 4]
        nu = pools[(p, lam)][i % 25].nu
        for j in range(4):
            seeded = tuple(DualComplex(v, 1 + 0j if k == j else 0j) for k, v in enumerate(nu))
            partial = potential_closed_d1(seeded, p, lam).der
            up, dn = list(nu), list(nu)
            up[j] += h
            dn[j] -= h
            fd = (potential_closed_d1(tuple(up), p, lam)
                  - potential_closed_d1(tuple(dn), p, lam)) / (2 * h)
            worst = max(worst, abs(partial - fd) / max(abs(fd), 1e-12))
    ok = worst < 1e-6
    elapsed_ok = time.perf_counter() - t0 < 10.0
    _line(7, "dual gradients vs central differences on 100 interior points",
          ok and elapsed_ok, t0, f"max_rel={worst:.2e}")


def test_criterion_8_ellipsoid_unit_ball_collapse():
    t0 = time.perf_counter()
    rep = run_kernel_suite("ellipsoid", exponents=(1, 1), points=50, seed=42,
                           margin=0.2, tol=1e-8, tail_tol=1e-10)
    rows = _group(rep, "ellipsoid/unit-ball-collapse")
    ok = all(r.passed for r in rows) and len(rows) == 50
    elapsed_ok = time.perf_counter() - t0 < 30.0
    _line(8, "ellipsoid series vs analytic ball kernel on 50 pairs at rel 1e-8",
          ok and elapsed_ok, t0, f"max_rel={max(r.rel_err for r in rows):.2e}")


def test_criterion_9_symmetry_positivity_continuity():
    t0 = time.perf_counter()
    ok = True
    for domain, kwargs in (("d2", {}), ("d1", {"p": 1.0, "lam": 2.0}),
                           ("d1", {"p": 2.0, "lam": 2.0})):
        rep = run_kernel_suite(domain, points=50, seed=42, margin=0.2, tol=1e-6, **kwargs)
        for prefix in ("hermitian", "diagonal-positive", "nu3-continuity"):
            rows = [r for r in rep.rows if f"/{prefix}/" in r.case_id]
            assert rows
            ok = ok and all(r.passed for r in rows)
    elapsed_ok = time.perf_counter() - t0 < 30.0
    _line(9, "hermitian symmetry, diagonal positivity, nu3 continuity (d1 and d2)",
          ok and elapsed_ok, t0)
