"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --pass-id ID --trace 0|1

Started by run.py, which pins BLAS threads and reads the line. The pass times
`import bergkern` (one set-up sample), runs the workload once and reports its
own peak resident memory. With --trace 1 it installs the span tracer first
and writes the spans to perfbench/out/spans/<pass-id>.jsonl.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _version(dist: str) -> str:
    # read from package metadata, so that reporting it imports nothing
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-id", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import bergkern
    setup_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(bergkern.__file__)) != os.path.join(SRC, "bergkern"):
        print(f"bergkern imported from {bergkern.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(args.pass_id)
        tracer.install()

    os.makedirs(OUT, exist_ok=True)
    result = workloads.run_pass(args.workload, args.seed, OUT)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": sys.version.split()[0], "bergkern": bergkern.__version__,
                          **{dist: _version(dist) for dist in ("numpy", "scipy")}}
    if tracer is not None:
        spans_dir = os.path.join(OUT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        path = os.path.join(spans_dir, f"{args.pass_id}.jsonl")
        tracer.dump(path)
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.rows_made)
        result["spans_file"] = os.path.relpath(path, ROOT)
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
