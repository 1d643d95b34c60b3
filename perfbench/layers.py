"""Per-layer metrics from one traced command.

Span names are "<layer>.<function>". A metric of a layer the workload does
not run is 0. A metric whose spans the workload is known to produce, but
which the trace did not record (for example calls made in a worker process
the tracer is not installed in), is None: untraced, not zero.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# The Gibbs blocks of `sparsepanel.blocks` that the samplers call.
BLOCKS = ("update_common_regression", "update_indicator_and_deviation_normal",
          "update_indicator_and_deviation_ig", "update_q", "update_v_delta_normal",
          "update_v_delta_sigma_rwmh", "update_v_delta_alpha_iw")
_M1_BLOCKS = BLOCKS[:6]
_M1_HOMOSK_BLOCKS = ("update_common_regression", "update_indicator_and_deviation_normal",
                     "update_q", "update_v_delta_normal")

# Span names each workload's command is known to produce.
EXPECTED = {
    "m1-estimate": {"panel.load_panel", "m1.run_m1", "m1.m1_sweep", "chainout.to_dir",
                    "distributions.sample_mv_normal", *("blocks." + b for b in _M1_BLOCKS)},
    "mc-cell": {"mc.run_experiment", "mc.chain", "panel.simulate", "m1.m1_sweep",
                "distributions.sample_mv_normal", *("blocks." + b for b in _M1_HOMOSK_BLOCKS)},
    "m2-forecast-panel": {"panel.load_panel", "m2.run_m2", "m2.m2_sweep", "forecast.predict",
                          "forecast.write_fan_chart", "distributions.sample_mv_normal",
                          *("blocks." + b for b in BLOCKS)},
    "m2-forecast-unit": {"panel.load_panel", "m2.run_m2_individual", "forecast.predict",
                         "forecast.write_fan_chart", "distributions.sample_mv_normal",
                         "blocks.update_common_regression"},
}

_CALLS = tuple("blocks." + b for b in BLOCKS) + ("distributions.sample_mv_normal",)

# Metric -> (unit, span names it is computed from).
METRICS = {
    "cli.import_s": ("s", ()),
    "cli.self_s": ("s", ()),
    "panel.load_panel_s": ("s", ("panel.load_panel",)),
    "panel.simulate_s": ("s", ("panel.simulate",)),
    "m1.sweeps": ("count", ("m1.m1_sweep",)),
    "m1.sweep_us": ("us", ("m1.m1_sweep",)),
    "m1.sweep_us_p99": ("us", ("m1.m1_sweep",)),
    "m1.us_per_unit_sweep": ("us", ("m1.m1_sweep",)),
    "m1.sweep_self_us": ("us", ("m1.m1_sweep",)),
    "m1.ess_per_s": ("1/s", ("m1.run_m1", "mc.chain")),
    **{f"{name}.{kind}": (unit, (name,))
       for name in _CALLS for kind, unit in (("calls", "count"), ("us_per_call", "us"))},
    "m2.sweeps": ("count", ("m2.m2_sweep",)),
    "m2.sweep_self_us_per_unit": ("us", ("m2.m2_sweep",)),
    "m2.individual_us_per_draw": ("us", ("m2.run_m2_individual",)),
    "m2.ess_per_s": ("1/s", ("m2.run_m2", "m2.run_m2_individual")),
    "chainout.to_dir_s": ("s", ("chainout.to_dir",)),
    "chainout.bytes_written": ("bytes", ("chainout.to_dir",)),
    "chainout.write_mb_per_s": ("MB/s", ("chainout.to_dir",)),
    "forecast.predict_s": ("s", ("forecast.predict",)),
    "forecast.write_fan_chart_s": ("s", ("forecast.write_fan_chart",)),
    "mc.chains": ("count", ("mc.chain",)),
    "mc.chain_s": ("s", ("mc.chain",)),
    "mc.cpu_per_wall": ("ratio", ("mc.run_experiment",)),
    "trace.overhead_s": ("s", ()),
}


def compute(trace: dict, workload: str, extra: dict) -> dict:
    """Every per-layer metric, as {name: value or None}.

    `extra` carries what the trace does not hold: the set-up's simulation
    time, the bytes the chain writer left on disk, and the wall time and
    CPU/wall ratio of the untraced and traced commands.
    """
    child = defaultdict(float)
    for s in trace["spans"]:
        if s["parent"]:
            child[s["parent"]] += s["end"] - s["start"]
    spans = defaultdict(list)
    for s in trace["spans"]:
        dur = s["end"] - s["start"]
        spans[s["name"]].append({**s, "dur": dur, "self": dur - child[s["id"]]})
    ess = {c["span"]: c["min_bulk_ess"] for c in trace["chains"]}

    def total(name, key="dur"):
        return sum(s[key] for s in spans[name])

    def per(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    def ess_rate(*names):
        # chains whose every parameter is held fixed have no ESS (NaN)
        return median(ess[s["id"]] / s["dur"] for n in names for s in spans[n]
                      if ess.get(s["id"]) == ess.get(s["id"]))

    m1_durs = sorted(s["dur"] for s in spans["m1.m1_sweep"])
    m1_units = sum(s["attrs"]["n"] for s in spans["m1.m1_sweep"])
    m2_units = sum(s["attrs"]["n"] for s in spans["m2.m2_sweep"])
    indiv_draws = sum(s["attrs"]["draws"] for s in spans["m2.run_m2_individual"])
    out = {
        "cli.import_s": trace["import_s"],
        "cli.self_s": spans["cli.main"][0]["self"],
        "panel.load_panel_s": total("panel.load_panel"),
        "panel.simulate_s": extra["setup_simulate_s"] + total("panel.simulate"),
        "m1.sweeps": len(m1_durs),
        "m1.sweep_us": 1e6 * median(m1_durs),
        # a p99 is reported only with at least ten samples beyond it
        "m1.sweep_us_p99": 1e6 * m1_durs[int(0.99 * len(m1_durs))] if len(m1_durs) >= 1000
        else 0.0,
        "m1.us_per_unit_sweep": per(total("m1.m1_sweep"), m1_units, 1e6),
        "m1.sweep_self_us": per(total("m1.m1_sweep", "self"), len(m1_durs), 1e6),
        "m1.ess_per_s": ess_rate("m1.run_m1", "mc.chain"),
    }
    for name in _CALLS:
        out[name + ".calls"] = len(spans[name])
        out[name + ".us_per_call"] = per(total(name), len(spans[name]), 1e6)
    out |= {
        "m2.sweeps": len(spans["m2.m2_sweep"]),
        "m2.sweep_self_us_per_unit": per(total("m2.m2_sweep", "self"), m2_units, 1e6),
        "m2.individual_us_per_draw": per(total("m2.run_m2_individual"), indiv_draws, 1e6),
        "m2.ess_per_s": ess_rate("m2.run_m2", "m2.run_m2_individual"),
        "chainout.to_dir_s": total("chainout.to_dir"),
        "chainout.bytes_written": extra["chain_bytes"],
        "chainout.write_mb_per_s": per(extra["chain_bytes"], total("chainout.to_dir"), 1e-6),
        "forecast.predict_s": total("forecast.predict"),
        "forecast.write_fan_chart_s": total("forecast.write_fan_chart"),
        "mc.chains": len(spans["mc.chain"]),
        "mc.chain_s": median(s["dur"] for s in spans["mc.chain"]),
        "mc.cpu_per_wall": extra["cpu_per_wall"] if spans["mc.run_experiment"] else 0.0,
        "trace.overhead_s": extra["traced_wall_s"] - extra["untraced_wall_s"],
    }
    missing = {name for name in EXPECTED[workload] if not spans[name]}
    for metric, (_, names) in METRICS.items():
        if missing.intersection(names):
            out[metric] = None
    return out
