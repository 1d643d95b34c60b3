"""Contract of the traced benchmark run: every workload ends with all-numeric metrics.

`perfbench/layers.compute` reports a metric as None when a span the
workload is expected to produce is missing from the trace, for example when
a sampler stops calling a Gibbs block through the module global the tracer
wraps. Such a run ends in a JSON `null` and counts as malformed output.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("m1-estimate", "mc-cell", "m2-forecast-panel", "m2-forecast-unit")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_metric(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    bad = {name: m["value"] for name, m in result["metrics"].items()
           if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float))
           or not math.isfinite(m["value"])}
    assert not bad, f"non-numeric metrics: {bad}"
