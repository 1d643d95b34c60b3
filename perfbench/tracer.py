"""Run one sparsepanel CLI command with spans recorded around layer calls.

Usage: python3 perfbench/tracer.py TRACE_OUT -- <sparsepanel CLI arguments>

Nothing in the package is edited. Before the command runs, each traced
public function is replaced, in the namespace of the module that calls it,
by a wrapper that records a span: name, start, end, parent span, thread id
and process id. Every thread keeps its own span stack, so self time (a
span's duration minus its children's) stays meaningful when the Monte Carlo
harness runs replications on worker threads. Spans stay in memory and are
written to TRACE_OUT as JSON when the command ends.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time

_start = time.perf_counter()
import sparsepanel.cli  # noqa: E402  (timed as cli.import_s)

IMPORT_S = time.perf_counter() - _start

import numpy as np  # noqa: E402

from sparsepanel import blocks, chainout, m1, m2, mc, panel  # noqa: E402

from ess import min_bulk_ess  # noqa: E402
from layers import BLOCKS  # noqa: E402


class Tracer:
    """In-memory span recorder; one span stack per thread."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, thread, pid, attrs)
        self.chains = []  # (span id, {name: 1-D draws}) for the ESS metrics
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None, keep_chain=False):
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, threading.get_ident(),
                                   os.getpid(), attrs(args, kwargs) if attrs else None))
            if keep_chain:
                self.chains.append((span_id, {k: v for k, v in result.common.items()
                                              if np.ndim(v) == 1}))
            return result

        return traced

    def patch(self, module, attr, name, **options):
        setattr(module, attr, self.wrap(name, getattr(module, attr), **options))


def _units(position):
    """Span attributes: the number of units, read from a positional (N, ...) array."""
    return lambda args, kwargs: {"n": int(np.shape(args[position])[0])}


def install(tracer: Tracer) -> None:
    """Wrap every traced call site. Each entry names the calling module."""
    cli = sparsepanel.cli
    tracer.patch(cli, "load_panel", "panel.load_panel")
    tracer.patch(cli, "run_m1", "m1.run_m1", keep_chain=True)
    tracer.patch(cli, "run_m2", "m2.run_m2", keep_chain=True)
    tracer.patch(cli, "run_m2_individual", "m2.run_m2_individual", keep_chain=True,
                 attrs=lambda args, kwargs: {"draws": int(kwargs["n_draws"])})
    tracer.patch(cli, "run_experiment", "mc.run_experiment")
    tracer.patch(cli, "predict", "forecast.predict")
    tracer.patch(cli, "write_fan_chart", "forecast.write_fan_chart")
    tracer.patch(mc, "run_m1", "mc.chain", keep_chain=True)
    tracer.patch(mc, "simulate_m1", "panel.simulate")
    tracer.patch(m1, "m1_sweep", "m1.m1_sweep", attrs=_units(1))
    tracer.patch(m2, "m2_sweep", "m2.m2_sweep", attrs=_units(0))
    for module in (m1, m2):
        for fn in BLOCKS:
            if hasattr(module, fn):
                tracer.patch(module, fn, "blocks." + fn)
    for module in (blocks, panel):
        tracer.patch(module, "sample_mv_normal", "distributions.sample_mv_normal")
    tracer.patch(chainout.ChainOutput, "to_dir", "chainout.to_dir")


def main(argv) -> int:
    trace_out, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE_OUT -- <cli arguments>")
    tracer = Tracer()
    install(tracer)
    run = tracer.wrap("cli.main", sparsepanel.cli.main)
    code = run(cli_args)
    chains = [{"span": span_id, "min_bulk_ess": min_bulk_ess(draws)}
              for span_id, draws in tracer.chains]
    record = {
        "import_s": IMPORT_S,
        "spans": [dict(zip(("id", "parent", "name", "start", "end", "thread", "pid", "attrs"), s))
                  for s in tracer.spans],
        "chains": chains,
    }
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
