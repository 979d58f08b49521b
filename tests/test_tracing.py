"""The benchmark's span tracer, run over bergkern as it is: the series
metrics it reads from wrapped internal names must not read zero."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_TRACED = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import bergkern
import tracing
tracer = tracing.Tracer("test")
tracer.install()
bergkern.kernel_series_d1_nu((0.1, 0.05j, 0.02, 0.1), 2.0, 2.0)
bergkern.appell_fa(1.5, (0.7, 1.3), (1.1, 0.6), (0.6 + 0.3j, -0.2 + 0.1j))
print(json.dumps(tracing.layer_metrics(tracer.spans, tracer.rows_made)))
"""


def test_tracer_reads_series_depth_and_table_use():
    # The tracer wraps hypergeo._ratio_logseq, kernels._powers_logseq and
    # kernels._sum_shells as their modules see them; a name bound before the
    # tracer installs would hide the calls and zero these metrics, which the
    # benchmark's gate (correct, failed) does not check. It runs in its own
    # process, as the wrappers stay installed.
    code = _TRACED.format(src=os.path.join(ROOT, "src"), perfbench=os.path.join(ROOT, "perfbench"))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=300)
    metrics = json.loads(run.stdout.splitlines()[-1])
    assert metrics["kernels.series_d1.calls"] == 1 and metrics["hypergeo.appell_fa.calls"] == 1
    for name in ("kernels.series.shells_used", "kernels.series.useful_ratio",
                 "hypergeo.useful_ratio"):
        assert metrics[name] > 0, (name, metrics[name])
