"""bergkern benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/bergkern).
Every pass runs in a fresh single-threaded interpreter (worker.py) with BLAS
threads pinned to 1, so shell tables and other in-process caches start cold
in every pass, exactly as for a user's process. Passes repeat until --seconds
have elapsed (at least three); pass k uses inputs seeded by seed*1000+k
(verify-identities has fixed inputs).
Timings and rates are whole-run totals over passes (wall_s and cpu_s are the
total divided by the pass count); setup_s, peak_rss_mb and min_digits are
medians over passes; latencies are pooled. On a shared machine the CPU's
speed can move in phases of tens of seconds: a median of passes then jumps
between phase levels, while a total moves with the share of the run spent in
each.

--trace 0 prints the end-to-end metrics. --trace 1 alternates an untraced and
a traced pass on the same inputs, prints the per-layer metrics of the traced
passes and the tracing overhead (traced wall_s minus untraced wall_s), and
leaves the spans under perfbench/out/spans/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Every pass checks its outputs. failed counts
gating rows that missed their tolerance, raised BergkernErrors and wrong
outputs; correct is false when any output was wrong without bergkern saying
so (see workloads.py). The full result with provenance is also written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("verify-kernels", "verify-identities", "eval-sweep")
PIN_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                  "VECLIB_MAXIMUM_THREADS")}
MIN_PASSES = 3
DEADLINE_S = 150.0       # start no pass that could end after this; the limit is 180 s
IMPORTTIME_RUNS = 3
REL_FLOOR = 1e-17        # min_digits of a pass whose worst rel_err is exactly 0

# (name, unit) of the end-to-end metrics every workload reports
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("rows_per_s", "1/s"), ("peak_rss_mb", "MB"), ("min_digits", "digits"))
# printed for eval-sweep only: per-evaluation work exists only there
SWEEP_ONLY = (("evals_per_s", "1/s"), ("closed_us_p50", "us"), ("closed_us_p90", "us"),
              ("series_us_p50", "us"), ("series_us_p90", "us"))


class PassError(RuntimeError):
    pass


def _median(values):
    return statistics.median(values)


def _mean(values):
    return statistics.fmean(values)


def _p90(values):
    return statistics.quantiles(values, n=10)[-1]


def _child_env() -> dict:
    env = dict(os.environ, **PIN_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_pass(workload: str, seed: int, pass_id: str, trace: int, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-id", pass_id, "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassError(f"pass {pass_id} did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass {pass_id} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def _run_passes(workload: str, seed: int, seconds: float, trace: int) -> list:
    """Passes until `seconds` have elapsed; with trace, (untraced, traced) pairs."""
    start = time.perf_counter()
    runs = []
    longest = 0.0
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if k >= MIN_PASSES and elapsed >= seconds:
            break
        if k > 0 and elapsed + longest > DEADLINE_S:
            break
        t0 = time.perf_counter()
        pass_seed = seed * 1000 + k
        group = [_run_pass(workload, pass_seed, f"{workload}-{seed}-{k}-t{t}", t,
                           DEADLINE_S + 20 - (time.perf_counter() - start))
                 for t in ((0, 1) if trace else (0,))]
        for r in group:
            r["pass_seed"] = pass_seed
        runs.append(group)
        longest = max(longest, time.perf_counter() - t0)
        k += 1
    return runs


def _end_to_end(passes: list) -> tuple[dict, dict]:
    """(metrics, sample counts) over untraced passes."""
    wall = sum(p["wall_s"] for p in passes)
    metrics = {
        "setup_s": _median([p["setup_s"] for p in passes]),
        "wall_s": _mean([p["wall_s"] for p in passes]),
        "cpu_s": _mean([p["cpu_s"] for p in passes]),
        "rows_per_s": sum(p["rows"] for p in passes) / wall,
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
        "min_digits": _median([-math.log10(max(p["worst_rel"], REL_FLOOR)) for p in passes]),
    }
    counts = {name: len(passes) for name in metrics}
    if "closed_us" in passes[0]:
        closed = [v for p in passes for v in p["closed_us"]]
        series = [v for p in passes for v in p["series_us"]]
        metrics.update({
            "evals_per_s": sum(p["evals"] for p in passes) / wall,
            "closed_us_p50": _median(closed), "closed_us_p90": _p90(closed),
            "series_us_p50": _median(series), "series_us_p90": _p90(series),
        })
        counts.update({"evals_per_s": len(passes), "closed_us_p50": len(closed),
                       "closed_us_p90": len(closed), "series_us_p50": len(series),
                       "series_us_p90": len(series)})
    return metrics, counts


def _import_breakdown() -> dict:
    import tracing
    samples = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bergkern"],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise PassError(f"import bergkern failed:\n{proc.stderr[-3000:]}")
        samples.append(tracing.import_breakdown(proc.stderr))
    return {name: _median([s[name] for s in samples]) for name in samples[0]}


def _source_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "bergkern")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _provenance(args, passes: list, counts: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "versions": passes[0]["versions"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "thread_env": PIN_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "pass_seeds": [p["pass_seed"] for p in passes],
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": counts,
    }


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, count in rows:
        print(f"  {name:<34} {value:>14.6g} {unit:<7} n={count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bergkern", "__init__.py")):
        print(f"no bergkern source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    try:
        groups = _run_passes(args.workload, args.seed, args.seconds, args.trace)
        imports = _import_breakdown() if args.trace else {}
    except PassError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    untraced = [g[0] for g in groups]
    every = [p for g in groups for p in g]
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    wrong = sum(p["wrong"] for p in every)
    e2e, counts = _end_to_end(untraced)
    notes = [n for p in every for n in p["notes"]]

    print(f"workload {args.workload}  seed {args.seed}  passes {len(groups)}  "
          f"trace {args.trace}  pass wall_s {' '.join(format(p['wall_s'], '.3f') for p in untraced)}")
    units = dict(END_TO_END + SWEEP_ONLY)
    _print_table("end-to-end (untraced passes; timings and rates over the whole run,"
                 " other metrics medians, latencies pooled):",
                 [(name, e2e[name], units[name], counts[name]) for name in e2e])
    print(f"  {'fail_ratio':<34} {failed / attempted:>14.6g} {'ratio':<7} "
          f"failed={failed} attempted={attempted} wrong={wrong}")
    for note in notes[:20]:
        print(f"  FAIL {note}")

    result = {"end_to_end": e2e, "fail_ratio": failed / attempted,
              "attempted": attempted, "failed": failed, "wrong": wrong, "notes": notes,
              "passes": [{key: p[key] for key in ("pass_seed", "setup_s", "wall_s", "cpu_s")}
                         for p in every]}
    if args.trace:
        import tracing
        traced = [g[1] for g in groups]
        layers = {name: _median([p["layers"][name] for p in traced])
                  for name, _ in tracing.LAYER_METRICS}
        layers.update(imports)
        layers["trace.overhead_s"] = _mean([p["wall_s"] for p in traced]) - e2e["wall_s"]
        unit_of = dict(tracing.LAYER_METRICS + tracing.IMPORT_METRICS) | {"trace.overhead_s": "s"}
        _print_table("per-layer (traced passes; medians per pass):",
                     [(name, layers[name], unit_of[name],
                       IMPORTTIME_RUNS if name.startswith("import.") else len(traced))
                      for name in layers])
        print(f"tracing overhead: traced wall_s {layers['trace.overhead_s'] + e2e['wall_s']:.4f} s"
              f" - untraced wall_s {e2e['wall_s']:.4f} s = {layers['trace.overhead_s']:+.4f} s;"
              f" spans in {', '.join(p['spans_file'] for p in traced)}")
        result["per_layer"] = layers
        metrics = {name: {"value": layers[name], "unit": unit_of[name]} for name in layers}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    result["provenance"] = _provenance(args, untraced, counts)
    print("provenance " + json.dumps(result["provenance"]))
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
