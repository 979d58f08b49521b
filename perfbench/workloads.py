"""The benchmark's three workloads, each one closed-loop pass in one thread.

A pass returns what it measured and what its correctness gate found:

  wall_s, cpu_s      timed region only (input generation and gates excluded)
  rows               gating comparisons made
  attempted, failed  gate attempts and failures: rows that missed their
                     tolerance, raised BergkernErrors, wrong outputs
  wrong              outputs that are wrong without bergkern saying so: a
                     report inconsistent with its rows or its exit code, a
                     kernel value off its second route, a non-finite value
  worst_rel          largest relative error over every compared value
  closed_us, series_us, evals   (eval-sweep only) per-route latencies

Every workload drives bergkern only through its public entry points:
`bergkern.cli.main` for the two verify workloads and the library functions
exported by the package for eval-sweep.
"""

from __future__ import annotations

import json
import math
import os
import random
import tempfile
import time

import bergkern
from bergkern import cli

KERNEL_SUITES = (
    ("d2", ["--domain", "d2", "--points", "100"]),
    ("d1", ["--domain", "d1", "--p", "2", "--lambda", "2", "--points", "50"]),
    ("ellipsoid-1-1", ["--domain", "ellipsoid", "--p", "1,1", "--points", "50",
                       "--tol", "1e-8"]),
    ("ellipsoid-2-3", ["--domain", "ellipsoid", "--p", "2,3", "--points", "50",
                       "--tol", "1e-8"]),
)

# The README's certification runs, with its fixed identity seed: about 3% of
# other seeds fail one multisum-collapse row (see README.md, "Known defects"),
# and a workload must run without failures to be timed.
IDENTITY_SUITES = (
    ("identities", ["identities", "--trials", "200", "--seed", "7"], False),
    ("norms-d2", ["norms", "--domain", "d2"], False),
    ("norms-d1", ["norms", "--domain", "d1"], False),
)

# eval-sweep: many parameter sets, few pairs each, so every set builds its
# shell tables cold and per-pair cost dominates.
D1_GRID = tuple((p, lam) for p in (0.5, 1.0, 2.0, 2.5) for lam in (1.0, 2.0, 3.0))
D1_PAIRS = 16
D2_PAIRS = 60
ELLIPSOIDS = (((1, 1), 16), ((1, 2), 10), ((2, 3), 10), ((1, 1, 1), 12))
MARGINS = (0.05, 0.1, 0.2, 0.4)
# d1 stops at 0.3: at 0.4, rejection sampling of d1(0.5, 1) takes about
# 0.5 s per point, which would dwarf the timed evaluations. It starts at 0.1:
# at 0.05 about one d1 pair in 7000 needs more than the series route's 400
# degrees and raises ConvergenceError (see README.md, "Known defects"); at
# 0.1 none of 30000 sampled pairs needed more than 251.
D1_MARGINS = (0.1, 0.2, 0.3)
ROUTE_TOL = 1e-6  # closed vs series, the CLI's kernel-suite default
BALL_TOL = 1e-8   # ellipsoid (1,...,1) vs the unit-ball closed form


def _rel(got: complex, ref: complex) -> float:
    return abs(got - ref) / abs(ref) if ref != 0 else abs(got - ref)


class _Gate:
    def __init__(self):
        self.rows = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.worst_rel = 0.0
        self.notes = []

    def fail(self, note: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.notes) < 20:
            self.notes.append(("WRONG " if wrong else "") + note)

    def result(self, wall_s: float, cpu_s: float, **extra) -> dict:
        return {"wall_s": wall_s, "cpu_s": cpu_s, "rows": self.rows,
                "attempted": self.attempted, "failed": self.failed, "wrong": self.wrong,
                "worst_rel": self.worst_rel, "notes": self.notes, **extra}


def _run_cli_suites(suites, seed: int, scratch: str) -> dict:
    """Run `bergkern verify` suites in-process and gate their JSON reports."""
    gate = _Gate()
    wall = cpu = 0.0
    for label, argv, seeded in suites:
        out = os.path.join(scratch, f"{label}.json")
        args = ["verify"] + argv + (["--seed", str(seed)] if seeded else []) + ["--out", out]
        w0, c0 = time.perf_counter(), time.process_time()
        rc = cli.main(args)
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        _gate_report(gate, label, rc, out)
    return gate.result(wall, cpu)


def _gate_report(gate: _Gate, label: str, rc: int, path: str) -> None:
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        gate.attempted += 1
        gate.fail(f"{label}: no readable report (exit {rc}): {exc}", wrong=True)
        return
    rows = report["rows"]
    summary = report["summary"]
    failing = [r for r in rows if not r["rel_err"] <= r["tol"]]
    gate.rows += len(rows)
    gate.attempted += max(len(rows), 1)
    # a row that misses its tolerance is a failure bergkern itself reports
    for r in failing:
        gate.fail(f"{label}: {r['case_id']} rel_err={r['rel_err']:.3e} tol={r['tol']:g}",
                  wrong=False)
    if summary["total"] != len(rows) or summary["failed"] != len(failing):
        gate.fail(f"{label}: summary {summary['total']}/{summary['failed']} disagrees "
                  f"with rows {len(rows)}/{len(failing)}", wrong=True)
    if not rows:
        gate.fail(f"{label}: report has no gating rows", wrong=True)
    if rc != (0 if not failing else 1):
        gate.fail(f"{label}: exit code {rc} with {len(failing)} failed rows", wrong=True)
    gate.worst_rel = max([gate.worst_rel] + [r["rel_err"] for r in rows])


def verify_kernels(seed: int, scratch: str) -> dict:
    return _run_cli_suites([(label, ["kernels"] + argv, True)
                            for label, argv in KERNEL_SUITES], seed, scratch)


def verify_identities(seed: int, scratch: str) -> dict:
    return _run_cli_suites(IDENTITY_SUITES, seed, scratch)


def _sweep_inputs(seed: int) -> list:
    """(kind, params, [pairs]) for every parameter set of one eval-sweep pass."""
    rng = random.Random(seed)

    def pairs(spec, count, margins=MARGINS):
        return [bergkern.sample_pairs(spec, rng.randrange(2**31), 1, rng.choice(margins))[0]
                for _ in range(count)]

    sets = [("d1", (p, lam), pairs(bergkern.DomainSpec.d1(p, lam), D1_PAIRS, D1_MARGINS))
            for p, lam in D1_GRID]
    sets.append(("d2", (), pairs(bergkern.DomainSpec.d2(), D2_PAIRS)))
    sets += [("ellipsoid", exps, pairs(bergkern.DomainSpec.ellipsoid(exps), count))
             for exps, count in ELLIPSOIDS]
    return sets


def _ball_kernel(nu) -> complex:
    n = len(nu)
    return math.factorial(n) / math.pi**n * (1 - sum(nu)) ** -(n + 1)


def eval_sweep(seed: int, scratch: str) -> dict:
    """Closed and series routes over many parameter sets, few pairs each."""
    sets = _sweep_inputs(seed)
    gate = _Gate()
    closed_us, series_us = [], []

    def timed(samples, fn, *args):
        t0 = time.perf_counter()
        value = fn(*args).value
        samples.append((time.perf_counter() - t0) * 1e6)
        return value

    w0, c0 = time.perf_counter(), time.process_time()
    for kind, params, pairs in sets:
        if kind == "d1":
            closed_fn, series_fn = bergkern.kernel_closed_d1, bergkern.kernel_series_d1
        elif kind == "d2":
            closed_fn, series_fn = bergkern.kernel_closed_d2, bergkern.kernel_series_d2
        else:
            closed_fn, series_fn = None, bergkern.kernel_series_ellipsoid
        for i, pair in enumerate(pairs):
            gate.attempted += 1
            where = f"{kind}{params}/{i}"
            try:
                if closed_fn is not None:
                    ref = timed(closed_us, closed_fn, pair, *params)
                    got = timed(series_us, series_fn, pair, *params)
                    tol = ROUTE_TOL
                else:
                    got = timed(series_us, series_fn, pair, params)
                    ref = _ball_kernel(pair.nu) if set(params) == {1} else None
                    tol = BALL_TOL
            except bergkern.BergkernError as exc:
                gate.fail(f"{where}: {type(exc).__name__}: {exc}", wrong=False)
                continue
            if ref is None:
                # single-route set: no second value to compare against
                if not (math.isfinite(got.real) and math.isfinite(got.imag)):
                    gate.fail(f"{where}: non-finite series value {got}", wrong=True)
                continue
            rel = _rel(got, ref)
            gate.rows += 1
            gate.worst_rel = max(gate.worst_rel, rel)
            if not rel <= tol:
                gate.fail(f"{where}: rel_err={rel:.3e} tol={tol:g}", wrong=True)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return gate.result(wall, cpu, closed_us=closed_us, series_us=series_us,
                       evals=len(closed_us) + len(series_us))


WORKLOADS = {
    "verify-kernels": verify_kernels,
    "verify-identities": verify_identities,
    "eval-sweep": eval_sweep,
}


def run_pass(workload: str, seed: int, scratch_root: str) -> dict:
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        return WORKLOADS[workload](seed, scratch)
