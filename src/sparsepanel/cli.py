"""Command-line entry points for simulation, estimation, and evaluation runs.

Every command resolves its settings from an optional JSON config file plus
command-line flags (flags win), validates them with aggregated error
reporting, and writes its outputs together with a JSON manifest sufficient
to repeat the run. Progress goes to standard error; standard output carries
a single machine-readable JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from sparsepanel import __version__
from sparsepanel.blocks import CommonState, HyperParams
from sparsepanel.chainout import write_manifest
from sparsepanel.forecast import (
    SCENARIOS,
    inequality_decomposition,
    predict,
    write_decomposition,
    write_fan_chart,
)
from sparsepanel.m1 import M1Config, VARIANTS as M1_VARIANTS, run_m1
from sparsepanel.m2 import M2Config, VARIANTS as M2_VARIANTS, run_m2, run_m2_individual
from sparsepanel.mc import MCDesign, run_experiment
from sparsepanel.panel import load_panel, simulate_m1, simulate_m2, write_panel
from sparsepanel.rng import RngStream

COMMANDS = ("simulate", "estimate", "montecarlo", "forecast", "decompose")

# Every command draws from RngStream(seed, <purpose>) with one of these
# purposes; the single-unit models of all units run as one chain on
# UNIT_CHAINS_STREAM. `montecarlo` keys its cells and replications under
# RngStream(seed, 0) (see mc.run_experiment).
SIMULATE_STREAM = 1
CHAIN_STREAM = 2
PREDICT_STREAM = 3
UNIT_CHAINS_STREAM = 4
DECOMPOSE_STREAM = 5


@dataclass
class RunConfig:
    """Fully resolved settings for one command invocation."""

    command: str
    model: str = "m1"
    variant: Optional[str] = None
    data: Optional[str] = None
    draws: int = 5000
    burnin: int = 2500
    thin: int = 1
    seed: int = 0
    threads: int = 1
    out: str = "out"
    design: Optional[str] = None
    nsim: Optional[int] = None
    horizons: Tuple[int, ...] = (1,)
    scenario: str = "full_info_param_unc"
    n: int = 100
    t: int = 8
    extra: Dict = field(default_factory=dict)


def validate_config(config: Dict) -> Tuple[Optional[RunConfig], List[str], List[str]]:
    """Resolve defaults and check constraints, collecting every error.

    Returns (run_config_or_None, errors, warnings).
    """
    errors: List[str] = []
    warnings: List[str] = []
    cfg = dict(config)
    command = cfg.pop("command", "simulate")
    if command not in COMMANDS:
        errors.append(f"command: {command!r} is not one of {COMMANDS}")
        return None, errors, warnings
    known = {f for f in RunConfig.__dataclass_fields__ if f not in ("command", "extra")}
    extra = {k: cfg.pop(k) for k in list(cfg) if k not in known}
    rc = RunConfig(command=command, **cfg)
    rc.extra = extra

    if rc.model not in ("m1", "m2"):
        errors.append(f"model: {rc.model!r} is not one of ('m1', 'm2')")
    else:
        variants = M1_VARIANTS if rc.model == "m1" else M2_VARIANTS
        if rc.variant is None:
            rc.variant = "ss_homosk" if rc.model == "m1" else "baseline"
        elif rc.variant not in variants:
            errors.append(f"variant: {rc.variant!r} is not one of {variants} for model {rc.model}")
    try:  # through str, so that a config file's 1.5 is rejected, not truncated
        parts = rc.horizons.split(",") if isinstance(rc.horizons, str) else rc.horizons
        horizons = rc.horizons = tuple(int(str(h)) for h in parts)
    except (TypeError, ValueError):
        horizons = None
        errors.append(f"horizons: must be comma-separated integers, got {rc.horizons!r}")
    if rc.draws < 1:
        errors.append("draws: must be >= 1")
    if rc.burnin < 0:
        errors.append("burnin: must be >= 0")
    if rc.burnin >= rc.draws:
        errors.append(f"burnin: must be smaller than draws (burnin={rc.burnin}, draws={rc.draws})")
    if rc.thin < 1:
        errors.append("thin: must be >= 1")
    if rc.threads < 1:
        errors.append("threads: must be >= 1")
    if rc.n < 1:
        errors.append("n: must be >= 1")
    if rc.t < 1:
        errors.append("t: must be >= 1")
    if not (isinstance(rc.seed, int) and 0 <= rc.seed < 2**64):
        errors.append(f"seed: must be an integer in [0, 2**64), got {rc.seed!r}")
    if command in ("estimate", "forecast"):
        if rc.data is None:
            errors.append(f"data: required for the {command} command")
        elif not Path(rc.data).exists():
            errors.append(f"data: path {rc.data!r} does not exist")
    if command == "montecarlo":
        if rc.design is not None and not Path(rc.design).exists():
            errors.append(f"design: path {rc.design!r} does not exist")
        if rc.nsim is not None and rc.nsim < 1:
            errors.append("nsim: must be >= 1")
    if command == "forecast":
        if rc.scenario not in SCENARIOS:
            errors.append(f"scenario: {rc.scenario!r} is not one of {SCENARIOS}")
        if horizons is not None and not (horizons and min(horizons) >= 1
                                         and len(set(horizons)) == len(horizons)):
            errors.append(f"horizons: must be distinct positive integers, got {list(horizons)}")
        if rc.model != "m2":
            errors.append("model: forecasting requires model m2")
    if rc.variant == "rip" and any(k in extra for k in ("q_alpha", "q_alpha_prior")):
        warnings.append("variant rip pins the coefficient inclusion probability to 0; "
                        "the supplied q_alpha prior setting is ignored")
    if errors:
        return None, errors, warnings
    return rc, errors, warnings


def _threads_default() -> int:
    env = os.environ.get("SPARSEPANEL_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsepanel")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override its entries")
        p.add_argument("--model", choices=("m1", "m2"))
        p.add_argument("--variant")
        p.add_argument("--data")
        p.add_argument("--draws", type=int)
        p.add_argument("--burnin", type=int)
        p.add_argument("--thin", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--out")
        p.add_argument("--design")
        p.add_argument("--nsim", type=int)
        p.add_argument("--horizons", help="comma-separated, e.g. 1,2,3")
        p.add_argument("--scenario", choices=SCENARIOS)
        p.add_argument("--n", type=int)
        p.add_argument("--t", type=int)
    return parser


def _resolve_config(args: argparse.Namespace) -> Dict:
    cfg: Dict = {}
    if args.config:
        cfg.update(json.loads(Path(args.config).read_text()))
    for name in ("model", "variant", "data", "draws", "burnin", "thin", "seed",
                 "threads", "out", "design", "nsim", "scenario", "n", "t"):
        val = getattr(args, name, None)
        if val is not None:
            cfg[name] = val
    if getattr(args, "horizons", None) is not None:
        cfg["horizons"] = args.horizons
    if "threads" not in cfg:
        cfg["threads"] = _threads_default()
    cfg["command"] = args.command
    return cfg


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _write_manifest(out_dir: Path, rc: RunConfig, wall_time: float, outputs: List[str]) -> None:
    write_manifest(out_dir / "run_manifest.json", {
        "config": {k: v for k, v in asdict(rc).items() if k != "extra"},
        "seed": rc.seed,
        "versions": {
            "sparsepanel": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_seconds": round(wall_time, 3),
        "outputs": outputs,
    })


def _default_m1_truth() -> CommonState:
    return MCDesign(model="m1_homosk").theta


def _default_m2_truth(t: int) -> CommonState:
    # rho_i = 0.7 + N(0, 0.08^2) on the slab: fewer than 1e-4 of slab units
    # have |rho_i| >= 1, so simulated panels stay stationary.
    return CommonState(
        alpha=np.array([1.5, 0.5]),
        rho=0.7,
        q={"alpha": 0.4, "rho": 0.4, "sigma_u": 0.4, "sigma_eps": 0.4},
        v_delta_alpha=np.diag([0.3, 0.05]),
        v_delta_rho=0.0064,
        sigma2_u=np.full(t, 0.04),
        sigma2_eps=np.full(t, 0.02),
        v_delta_sigma_u=1.0,
        v_delta_sigma_eps=1.0,
        mu_s0=0.0,
        v_s0=0.05,
    )


def _theta_from_config(rc: RunConfig) -> CommonState:
    theta = _default_m1_truth() if rc.model == "m1" else _default_m2_truth(rc.t)
    for name, val in rc.extra.get("theta", {}).items():
        if name == "q":
            theta.q.update(val)
        elif name in ("sigma2_u", "sigma2_eps") and np.isscalar(val):
            setattr(theta, name, np.full(rc.t, float(val)))
        elif name in ("alpha", "v_delta_alpha") and rc.model == "m2":
            setattr(theta, name, np.asarray(val, dtype=float))
        else:
            setattr(theta, name, val)
    return theta


def _cmd_simulate(rc: RunConfig) -> Dict:
    rng = RngStream(rc.seed, SIMULATE_STREAM)
    theta = _theta_from_config(rc)
    if rc.model == "m1":
        hetsk = bool(rc.extra.get("heteroskedastic", False))
        data, _ = simulate_m1(theta, HyperParams.m1_defaults(), rc.n, rc.t, rng,
                              heteroskedastic=hetsk)
    else:
        profile = np.cumsum(np.ones((rc.n, rc.t)), axis=1)
        data, _ = simulate_m2(theta, HyperParams.m2_defaults(), rc.n, rc.t, profile, rng)
    out = Path(rc.out)
    out.mkdir(parents=True, exist_ok=True)
    write_panel(data, out / "panel.csv")
    return {"panel": str(out / "panel.csv"), "n": rc.n, "t": rc.t}


def _estimate_chain(rc: RunConfig, data):
    rng = RngStream(rc.seed, CHAIN_STREAM)
    if rc.model == "m1":
        config = M1Config(variant=rc.variant, n_draws=rc.draws, burn_in=rc.burnin, thin=rc.thin)
        return run_m1(data, config, rng)
    config = M2Config(variant=rc.variant, n_draws=rc.draws, burn_in=rc.burnin, thin=rc.thin)
    return run_m2(data, config, rng)


def _cmd_estimate(rc: RunConfig) -> Dict:
    _progress(f"loading panel from {rc.data}")
    data = load_panel(rc.data)
    _progress(f"running {rc.model}/{rc.variant}: {rc.draws} draws, {rc.burnin} burn-in")
    chain = _estimate_chain(rc, data)
    out = Path(rc.out)
    chain.to_dir(out)
    return {"chain_dir": str(out), "kept_draws": chain.n_draws}


def _cmd_montecarlo(rc: RunConfig) -> Dict:
    design_kwargs = {}
    if rc.design:
        design_kwargs = json.loads(Path(rc.design).read_text())
    if rc.nsim is not None:
        design_kwargs["n_sim"] = rc.nsim
    design_kwargs.setdefault("n_draws", rc.draws)
    design_kwargs.setdefault("burn_in", rc.burnin)
    for key in ("q_grid", "v_delta_alpha_grid", "estimators"):
        if key in design_kwargs:
            design_kwargs[key] = tuple(design_kwargs[key])
    design = MCDesign(**design_kwargs)
    n_cells = len(design.q_grid) * len(design.v_delta_alpha_grid)
    table = run_experiment(
        design, seed=rc.seed, threads=rc.threads,
        progress=lambda done, total, wall_s: _progress(
            f"cell {done}/{total} done in {wall_s:.2f} s: {len(design.estimators)} chains x {design.n_sim} "
            f"replications, {len(design.estimators) * design.n_sim * design.n_draws / wall_s:,.0f} sweeps/s"),
    )
    out = Path(rc.out)
    table.write(out)  # the table and its failure counts, even when the run then fails
    table.check_failures()
    return {"risk_table": str(out / "risk_table.csv"), "cells": n_cells}


def _cmd_forecast(rc: RunConfig) -> Dict:
    data = load_panel(rc.data)
    out = Path(rc.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = RngStream(rc.seed, PREDICT_STREAM)
    if rc.scenario == "individual_info":
        _progress(f"estimating the single-unit models of {len(data.unit_ids)} units")
        chain = run_m2_individual(data, n_draws=rc.draws, burn_in=rc.burnin,
                                  rng=RngStream(rc.seed, UNIT_CHAINS_STREAM), thin=rc.thin)
    else:
        _progress(f"estimating {rc.model}/{rc.variant} for forecasting")
        chain = _estimate_chain(rc, data)
    pred = predict(chain, data, rc.horizons, rc.scenario, rng)
    write_fan_chart(pred, out / "fan_chart.csv")
    return {"fan_chart": str(out / "fan_chart.csv"), "scenario": rc.scenario,
            "horizons": list(rc.horizons)}


def _cmd_decompose(rc: RunConfig) -> Dict:
    rc.model = "m2"
    n = rc.extra.get("cohort_size", 10_000)
    t = rc.extra.get("cohort_periods", 20)
    rc.t = t
    theta = _theta_from_config(rc)
    result = inequality_decomposition(theta, n=n, t=t, rng=RngStream(rc.seed, DECOMPOSE_STREAM))
    out = Path(rc.out)
    out.mkdir(parents=True, exist_ok=True)
    write_decomposition(result, out / "decomposition.csv")
    return {"decomposition": str(out / "decomposition.csv"), "cohort_size": n, "periods": t}


_RUNNERS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "montecarlo": _cmd_montecarlo,
    "forecast": _cmd_forecast,
    "decompose": _cmd_decompose,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    rc, errors, warnings = validate_config(cfg)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        summary = _RUNNERS[rc.command](rc)
    except Exception as exc:  # runtime failure, as opposed to bad usage
        chain = [str(exc)]
        cause = exc.__cause__
        while cause is not None:
            chain.append(str(cause))
            cause = cause.__cause__
        print("error: " + " <- ".join(chain), file=sys.stderr)
        return 1
    wall = time.monotonic() - start
    out_dir = Path(rc.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, rc, wall, sorted(summary))
    summary["command"] = rc.command
    summary["seed"] = rc.seed
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
