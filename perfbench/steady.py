"""Steadiness mode: repeat workloads over seeds and compare spreads to bounds.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--workload NAME ...]
                                [--out FILE] [--against FILE]
                                [--record FILE --label TEXT]

For each workload, runs `run.py --trace 0` once per seed (seed0, seed0+1, ...)
for BENCHMARK.json's run_seconds, then prints for every end-to-end metric the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median against the metric's bound. A spread above a third of the
bound reads "wide" and one above the bound "OVER"; setup_s is not held to
its spread, only to its median. A run that is incorrect or has any failed
operation also makes the exit code 1.

--out writes the summary as JSON. --against compares each median with the
one in an earlier summary and flags a median worse by more than the bound
("DRIFT"). --record appends the summary, labelled, to a trajectory file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    with open(os.path.join(HERE, "out", f"result-{workload}-seed{seed}-trace0.json"),
              encoding="utf-8") as fh:
        full = json.load(fh)
    return {"result": json.loads(lines[-1]), "full": full}


def _stats(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def _worse_by(metric: dict, new: float, old: float) -> float:
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out")
    parser.add_argument("--against")
    parser.add_argument("--record")
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    if args.record and not args.label:
        parser.error("--record needs --label")
    previous = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            previous = json.load(fh)

    seeds = list(range(args.seed0, args.seed0 + args.runs))
    summary = {"date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
               "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    failures = 0
    for workload in args.workload or names:
        runs = [_run(workload, seed, bench["run_seconds"]) for seed in seeds]
        summary.setdefault("provenance", runs[0]["full"]["provenance"])
        incorrect = [seed for seed, r in zip(seeds, runs) if not r["result"]["correct"]]
        failing = [seed for seed, r in zip(seeds, runs) if r["result"]["failed"]]
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        per_metric = {"failed": failed, "attempted": attempted}
        print(f"{workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"incorrect runs: {incorrect or 'none'}, failed {failed} of {attempted}"
              f" (runs with failures: {failing or 'none'})")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  verdict")
        gated = {m["name"]: m for m in bench["end_to_end"]}
        # eval-sweep's latencies and every workload's fail_ratio are printed
        # by run.py but carry no bound
        extra = [name for name in runs[0]["full"]["end_to_end"] if name not in gated]
        for name in list(gated) + extra + ["fail_ratio"]:
            values = [r["full"]["fail_ratio"] if name == "fail_ratio" else
                      r["full"]["end_to_end"][name] for r in runs]
            st = _stats(values)
            per_metric[name] = st
            if name not in gated:
                spread = "-" if st["spread"] is None else f"{st['spread']:.4f}"
                print(f"  {name:<14} {st['median']:>12.6g} {st['q1']:>12.6g} {st['q3']:>12.6g} "
                      f"{spread:>8} {'-':>6}  not gated")
                continue
            metric = gated[name]
            verdict = "ok"
            if name != "setup_s" and st["spread"] > metric["bound"]:
                verdict = "OVER"
            elif name != "setup_s" and st["spread"] > metric["bound"] / 3:
                verdict = "wide"
            if previous is not None:
                old = previous["workloads"][workload][name]["median"]
                worse = _worse_by(metric, st["median"], old)
                verdict += f"; vs earlier {worse:+.3f}" + (" DRIFT" if worse > metric["bound"] else "")
                failures += worse > metric["bound"]
            failures += verdict.startswith("OVER")
            print(f"  {name:<14} {st['median']:>12.6g} {st['q1']:>12.6g} {st['q3']:>12.6g} "
                  f"{st['spread']:>8.4f} {metric['bound']:>6}  {verdict}")
        summary["workloads"][workload] = per_metric
        # a workload must run without failures: a failure is not timed work
        failures += len(incorrect) + len(failing)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
    if args.record:
        trajectory = {"points": []}
        if os.path.exists(args.record):
            with open(args.record, encoding="utf-8") as fh:
                trajectory = json.load(fh)
        trajectory["points"].append({"label": args.label, **summary})
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(trajectory, fh, indent=2)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
