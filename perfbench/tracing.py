"""Span tracing of bergkern's modules, installed from outside the package.

The tracer replaces module-level names with wrappers; bergkern's source is
not touched. A public function is replaced in every bergkern module that
imported it, so calls made through `bergkern.cli`, `bergkern.suites` or the
package namespace are all seen. Counts that bergkern keeps only on internal
values (shells used, table lengths, membership tests) are read by wrapping
the internal name as the calling module sees it, and are attached to the
innermost open span instead of opening a span of their own, so they do not
split the self time of the layer that does the work.

Each span records name, start, end, parent and pass id; spans are kept in
memory and written out when the pass ends. Self time is a span's duration
minus the durations of its direct children (single thread, so children never
overlap).
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict


# span name -> (bergkern module, attribute) of the public function it wraps
SPANS = {
    "kernels.closed_d1": ("kernels", "kernel_closed_d1_nu"),
    "kernels.closed_d2": ("kernels", "kernel_closed_d2_nu"),
    "kernels.series_d1": ("kernels", "kernel_series_d1_nu"),
    "kernels.series_d2": ("kernels", "kernel_series_d2_nu"),
    "kernels.series_ellipsoid": ("kernels", "kernel_series_ellipsoid_nu"),
    "hypergeo.gauss_2f1": ("hypergeo", "gauss_2f1"),
    "hypergeo.appell_fa": ("hypergeo", "appell_fa"),
    "hypergeo.multisum": ("hypergeo", "doubled_index_multisum"),
    "hypergeo.decomposition": ("hypergeo", "fa_decomposition_rhs"),
    "hypergeo.closed_2f1": ("hypergeo", "closed_2f1_family"),
    "norms.closed": ("norms", "norm_closed"),
    "norms.quadrature": ("norms", "norm_quadrature"),
    "domains.sample": ("domains", "sample_interior"),
}
KERNEL_SERIES = ("kernels.series_d1", "kernels.series_d2", "kernels.series_ellipsoid")
HYPERGEO_SERIES = ("hypergeo.gauss_2f1", "hypergeo.appell_fa", "hypergeo.multisum",
                   "hypergeo.decomposition")

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    tuple((f"{name}.{field}", unit) for name in SPANS
          for field, unit in (("calls", "count"), ("self_s", "s")))
    + (("kernels.series_d1.cold_us", "us"), ("kernels.series_d1.warm_us", "us"),
       ("kernels.series.shells_used", "count"), ("kernels.series.useful_ratio", "ratio"),
       ("hypergeo.shells_used", "count"), ("hypergeo.useful_ratio", "ratio"),
       ("domains.sample.accept_ratio", "ratio"),
       ("report.rows", "count"), ("report.serialize_s", "s"))
)


def _bergkern_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bergkern" or name.startswith("bergkern."))]


class Tracer:
    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans = []      # finished spans, in end order
        self.stack = []      # open spans, innermost last
        self.rows_made = 0
        self._seen_d1 = set()

    # -- wrapping ------------------------------------------------------------

    def _replace(self, owner, name, wrapper, everywhere: bool) -> None:
        original = getattr(owner, name)
        owners = [m for m in _bergkern_modules()
                  if getattr(m, name, None) is original] if everywhere else [owner]
        for m in owners:
            setattr(m, name, wrapper)

    def _span_wrapper(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans) + len(self.stack), "name": name,
                    "parent": self.stack[-1]["id"] if self.stack else None,
                    "pass": self.pass_id}
            self.stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                self.spans.append(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result
        return wrapper

    def _note_wrapper(self, fn, on_call):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.stack:
                on_call(self.stack[-1], args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        domains, hypergeo, kernels, report = (
            importlib.import_module(f"bergkern.{name}")
            for name in ("domains", "hypergeo", "kernels", "report"))
        for name, (module_name, attr) in SPANS.items():
            module = importlib.import_module(f"bergkern.{module_name}")
            fn = getattr(module, attr)
            self._replace(module, attr,
                          self._span_wrapper(name, fn, self._on_result(name, fn)),
                          everywhere=True)

        def table_entries(span, args, kwargs, result):
            length = kwargs["length"] if "length" in kwargs else args[-1]
            span["entries"] = max(span.get("entries", 0), length)

        def shells_summed(span, args, kwargs, result):
            span["shells"] = max(span.get("shells", 0), result.shells_used)

        # table builders: entries built for the innermost series evaluation
        self._replace(hypergeo, "_ratio_logseq",
                      self._note_wrapper(hypergeo._ratio_logseq, table_entries), False)
        self._replace(kernels, "_powers_logseq",
                      self._note_wrapper(kernels._powers_logseq, table_entries), False)
        # shell summation as the kernels module sees it (d1 and d2 series)
        self._replace(kernels, "_sum_shells",
                      self._note_wrapper(kernels._sum_shells, shells_summed), False)

        def count_contains(span, args, kwargs, result):
            span["contains"] = span.get("contains", 0) + 1
        self._replace(domains, "contains",
                      self._note_wrapper(domains.contains, count_contains), False)

        make_row = report.make_row

        def counted_make_row(*args, **kwargs):
            self.rows_made += 1
            return make_row(*args, **kwargs)
        self._replace(report, "make_row", counted_make_row, everywhere=True)

        cls = report.VerificationReport
        for attr in ("to_json", "to_csv"):
            self._replace(cls, attr,
                          self._span_wrapper("report.serialize", getattr(cls, attr)), False)

    def _on_result(self, name, fn):
        if name == "kernels.series_d1":
            signature = inspect.signature(fn)

            def on_result(span, args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                key = (bound.arguments["p"], bound.arguments["lam"])
                span["cold"] = key not in self._seen_d1
                self._seen_d1.add(key)
            return on_result
        if name in HYPERGEO_SERIES:
            def on_result(span, args, kwargs, result):
                span["shells"] = result.shells_used
            return on_result
        if name == "domains.sample":
            def on_result(span, args, kwargs, result):
                span["points"] = len(result)
            return on_result
        return None

    # -- results -------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list, rows_made: int) -> dict:
    """Per-layer metrics of one traced pass, keyed as in LAYER_METRICS."""
    child_time = defaultdict(float)
    sub_shells = defaultdict(int)   # deepest shell summed in the subtree
    sub_entries = defaultdict(int)  # longest table built in the subtree
    for s in spans:  # children end, and so appear, before their parent
        sid = s["id"]
        sub_shells[sid] = max(sub_shells[sid], s.get("shells", 0))
        sub_entries[sid] = max(sub_entries[sid], s.get("entries", 0))
        parent = s["parent"]
        if parent is not None:
            child_time[parent] += s["end"] - s["start"]
            sub_shells[parent] = max(sub_shells[parent], sub_shells[sid])
            sub_entries[parent] = max(sub_entries[parent], sub_entries[sid])

    out = {}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for s in spans:
        calls[s["name"]] += 1
        self_s[s["name"]] += (s["end"] - s["start"]) - child_time[s["id"]]
    for name in SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]

    d1 = [s for s in spans if s["name"] == "kernels.series_d1"]
    out["kernels.series_d1.cold_us"] = _median(
        [(s["end"] - s["start"]) * 1e6 for s in d1 if s.get("cold")])
    out["kernels.series_d1.warm_us"] = _median(
        [(s["end"] - s["start"]) * 1e6 for s in d1 if not s.get("cold")])

    def shells_and_ratio(names, shells_of):
        chosen = [s for s in spans if s["name"] in names]
        built = [s for s in chosen if sub_entries[s["id"]] > 0]
        entries = sum(sub_entries[s["id"]] for s in built)
        used = sum(shells_of(s) for s in built)
        return (_median([shells_of(s) for s in chosen]),
                used / entries if entries else 0.0)

    out["kernels.series.shells_used"], out["kernels.series.useful_ratio"] = \
        shells_and_ratio(KERNEL_SERIES, lambda s: sub_shells[s["id"]])
    out["hypergeo.shells_used"], out["hypergeo.useful_ratio"] = \
        shells_and_ratio(HYPERGEO_SERIES, lambda s: s.get("shells", 0))

    samples = [s for s in spans if s["name"] == "domains.sample"]
    tests = sum(s.get("contains", 0) for s in samples)
    out["domains.sample.accept_ratio"] = (
        sum(s.get("points", 0) for s in samples) / tests if tests else 0.0)

    out["report.rows"] = rows_made
    out["report.serialize_s"] = sum(s["end"] - s["start"] for s in spans
                                    if s["name"] == "report.serialize")
    return out


def import_breakdown(stderr: str) -> dict:
    """Self import time (s) of scipy, numpy and bergkern from `-X importtime`."""
    totals = defaultdict(float)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        top = fields[2].strip().split(".")[0]
        totals[top] += int(fields[0]) * 1e-6
    return {"import.scipy_s": totals["scipy"], "import.numpy_s": totals["numpy"],
            "import.bergkern_self_s": totals["bergkern"]}


IMPORT_METRICS = (("import.scipy_s", "s"), ("import.numpy_s", "s"),
                  ("import.bergkern_self_s", "s"))
