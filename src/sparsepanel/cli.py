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
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from sparsepanel import __version__
from sparsepanel.blocks import CommonState, HyperParams
from sparsepanel.chainout import ConfigurationError, write_manifest
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

# Every setting, declared once: {name: (default, rule, the commands that
# read it)}. A rule is an integer minimum, a tuple of choices, or one of
# "bool", "path", "seed", "horizons", "variant" and "theta" (see _rule_errors).
# Each setting a command reads is a flag of that command, but the CONFIG_ONLY
# ones. A config file may set any setting for any command, so that one file
# serves a whole workflow; a command ignores the settings it does not read.
COMMANDS = ("simulate", "estimate", "montecarlo", "forecast", "decompose")
_CHAINS = ("estimate", "forecast")
SETTINGS = {
    "model": ("m1", ("m1", "m2"), ("simulate", *_CHAINS)),
    "n": (100, 1, ("simulate",)),
    "t": (8, 2, ("simulate",)),  # no model fits a single period
    "variant": (None, "variant", _CHAINS),  # None: the model's first variant
    "data": (None, "path", _CHAINS),
    "design": (None, "path", ("montecarlo",)),
    "nsim": (None, 1, ("montecarlo",)),  # None: the design's n_sim
    "draws": (5000, 1, ("montecarlo", *_CHAINS)),
    "burnin": (2500, 0, ("montecarlo", *_CHAINS)),
    "thin": (1, 1, _CHAINS),
    "seed": (0, "seed", COMMANDS),
    "threads": (1, 1, ("montecarlo",)),  # SPARSEPANEL_THREADS when no flag or key sets it
    "out": ("out", "path", COMMANDS),
    "scenario": ("full_info_param_unc", SCENARIOS, ("forecast",)),
    "horizons": ((1,), "horizons", ("forecast",)),
    "heteroskedastic": (False, "bool", ("simulate",)),
    "cohort_size": (10_000, 2, ("decompose",)),
    "cohort_periods": (20, 1, ("decompose",)),
    "theta": ({}, "theta", ("simulate", "decompose")),  # after the settings its truth reads
}
CONFIG_ONLY = ("heteroskedastic", "cohort_size", "cohort_periods", "theta")
COMMAND_FIELDS = {command: tuple(name for name, (_, _, readers) in SETTINGS.items()
                                 if command in readers and name not in CONFIG_ONLY)
                  for command in COMMANDS}

# Every command draws from RngStream(seed, <purpose>) with one of these
# purposes; the single-unit models of all units run as one chain on
# UNIT_CHAINS_STREAM. `montecarlo` keys its cells and replications under
# RngStream(seed, 0) (see mc._task).
SIMULATE_STREAM = 1
CHAIN_STREAM = 2
PREDICT_STREAM = 3
UNIT_CHAINS_STREAM = 4
DECOMPOSE_STREAM = 5

# Design-file keys: MCDesign's fields but the two JSON cannot express, and
# those of them that hold lists.
_DESIGN_KEYS = tuple(f for f in MCDesign.__dataclass_fields__ if f not in ("theta", "hyper"))
_DESIGN_LISTS = ("q_grid", "v_delta_alpha_grid", "estimators")


def _is_int(value) -> bool:
    """An integer setting's type test: JSON true and false are no integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _shape(value) -> Optional[Tuple[int, ...]]:
    """The shape of a finite number or of a non-empty, rectangular (nested)
    list of them; None for anything else."""
    if not isinstance(value, list):  # a float must hold the number
        number = _is_int(value) or isinstance(value, float)
        return () if number and abs(value) <= sys.float_info.max else None
    shapes = {_shape(v) for v in value}
    return None if len(shapes) != 1 or None in shapes else (len(value), *shapes.pop())


def _fill_theta(theta, truth: CommonState) -> List[str]:
    """Fill a config file's `theta` entries into `truth`, the default truth
    of the model the command simulates, and return their errors: each entry
    must be one of its parameters, with its shape (the per-period variances
    may also be one number), and `q` an object of its blocks."""
    if not isinstance(theta, dict):
        return [f"theta: must be a JSON object, got {theta!r}"]
    names = tuple(k for k, v in vars(truth).items() if v is not None)
    errors = []
    for name, value in theta.items():
        if name not in names:
            errors.append(f"theta: unknown parameter {name!r}, expected one of {names}")
        elif name != "q":
            shape, got = np.shape(getattr(truth, name)), _shape(value)
            per_period = name in ("sigma2_u", "sigma2_eps")
            if got is None:
                errors.append(f"theta: {name} must be a number or a list of numbers, got {value!r}")
            elif got != shape and not (per_period and got in ((), (1,))):
                want = f"a list of shape {list(shape)}" if shape else "a number"
                want = f"a number or a list of 1 or {shape[0]} numbers" if per_period else want
                errors.append(f"theta: {name} must be {want}, got {value!r}")
            else:
                filled = np.full(shape, value, dtype=float)
                setattr(truth, name, filled if filled.ndim else float(filled))
        elif not isinstance(value, dict):
            errors.append(f"theta: q must be a JSON object of blocks, got {value!r}")
        else:
            for block, prob in value.items():
                if block not in truth.q:
                    errors.append(f"theta: q has unknown block {block!r}, expected one of {tuple(truth.q)}")
                elif not (_shape(prob) == () and 0.0 <= prob <= 1.0):
                    errors.append(f"theta: q[{block!r}] must be a number in [0, 1], got {prob!r}")
                else:
                    truth.q[block] = prob
    return errors


def _rule_errors(rc: argparse.Namespace, name: str, rule, default, bad) -> List[str]:
    """The errors of setting `name` of `rc` under its `rule`, given the names
    of the settings found `bad` before it; resolves `variant` and `horizons`."""
    value, problem = getattr(rc, name), None
    if rule == "theta":  # filled into the truth of the model it replaces, once that is known
        if bad & {"model", "t", "heteroskedastic", "cohort_periods"}:
            return []
        if rc.command == "simulate" and rc.model == "m1":  # the Monte Carlo design's truth
            rc.theta = MCDesign(model="m1_hetsk" if rc.heteroskedastic else "m1_homosk").theta
        else:  # M2's, which decompose simulates
            rc.theta = _default_m2_truth(rc.t if rc.command == "simulate" else rc.cohort_periods)
        return _fill_theta(value, rc.theta)
    if isinstance(rule, tuple) and value not in rule:
        problem = f"{value!r} is not one of {rule}"
    elif isinstance(rule, int) and not (_is_int(value) and value >= rule or value is None and default is None):
        problem = f"must be an integer >= {rule}, got {value!r}"
    elif rule == "seed" and not (_is_int(value) and 0 <= value < 2**64):
        problem = f"must be an integer in [0, 2**64), got {value!r}"
    elif rule == "bool" and not isinstance(value, bool):
        problem = f"must be true or false, got {value!r}"
    elif rule == "path":  # data and design name inputs; only design may be unset
        if value is None and default is None:
            problem = f"required for the {rc.command} command" if name == "data" else None
        elif not isinstance(value, str):
            problem = f"must be a path string, got {value!r}"
        elif name != "out" and not Path(value).exists():
            problem = f"path {value!r} does not exist"
    elif rule == "variant" and "model" not in bad:
        variants = M1_VARIANTS if rc.model == "m1" else M2_VARIANTS
        rc.variant = variants[0] if value is None else value
        if rc.variant not in variants:
            problem = f"{value!r} is not one of {variants} for model {rc.model}"
    elif rule == "horizons":
        try:  # through str, so that a config file's 1.5 is rejected, not truncated
            parts = value.split(",") if isinstance(value, str) else value
            rc.horizons = tuple(int(str(h)) for h in parts)
        except (TypeError, ValueError):
            problem = f"must be comma-separated integers, got {value!r}"
        else:
            if not (rc.horizons and min(rc.horizons) >= 1 and len(set(rc.horizons)) == len(rc.horizons)):
                problem = f"must be distinct positive integers, got {list(rc.horizons)}"
    return [f"{name}: {problem}"] if problem else []


def validate_config(config: Dict) -> Tuple[Optional[argparse.Namespace], List[str]]:
    """Resolve the settings the command reads and check each under its rule,
    collecting every error. A key that no command reads is an error.

    Returns (run_config_or_None, errors); the run config holds `command` and
    each setting the command reads.
    """
    cfg = dict(config)
    command = cfg.pop("command", "simulate")
    if command not in COMMANDS:
        return None, [f"command: {command!r} is not one of {COMMANDS}"]
    errors = [f"{k}: unknown key, expected one of {sorted(SETTINGS)}" for k in cfg if k not in SETTINGS]
    read = {name: row for name, row in SETTINGS.items() if command in row[2]}
    rc = argparse.Namespace(command=command, **{k: cfg.get(k, row[0]) for k, row in read.items()})
    bad = set()
    for name, (default, rule, _) in read.items():
        found = _rule_errors(rc, name, rule, default, bad)
        errors += found
        if found:
            bad.add(name)
    # montecarlo checks the chain lengths its design resolves to (_mc_design)
    if command in _CHAINS and not bad & {"draws", "burnin"} and rc.burnin >= rc.draws:
        errors.append(f"burnin: must be smaller than draws (burnin={rc.burnin}, draws={rc.draws})")
    if command == "forecast" and rc.model != "m2":
        errors.append("model: forecasting requires model m2")
    if command == "montecarlo" and not errors:
        design, design_errors = _mc_design(rc)
        errors += design_errors
        if design is not None:  # the manifest records the lengths that run
            rc.draws, rc.burnin = design.n_draws, design.burn_in
    return (None if errors else rc), errors


def _mc_design(rc: argparse.Namespace) -> Tuple[Optional[MCDesign], List[str]]:
    """The design of a `montecarlo` run: the design file's entries over
    MCDesign's defaults, `nsim` over the file's n_sim, and `draws` and
    `burnin` where the file sets no chain length. Returns (design or None,
    errors), each error naming the design key at fault."""
    kwargs = {}
    if rc.design is not None:
        try:
            kwargs = json.loads(Path(rc.design).read_text())
        except (OSError, ValueError) as exc:
            return None, [f"design: cannot read {rc.design!r}: {exc}"]
        if not isinstance(kwargs, dict):
            return None, [f"design: {rc.design!r} must hold a JSON object"]
    errors = []
    for key, value in kwargs.items():
        if key in ("theta", "hyper"):
            errors.append(f"design: key {key!r} cannot be set in a design file")
        elif key not in _DESIGN_KEYS:
            errors.append(f"design: unknown key {key!r}, expected one of {_DESIGN_KEYS}")
        elif key in _DESIGN_LISTS and not isinstance(value, list):
            errors.append(f"design: key {key!r} must be a list, got {value!r}")
    if errors:
        return None, errors
    if rc.nsim is not None:
        kwargs["n_sim"] = rc.nsim
    kwargs.setdefault("n_draws", rc.draws)
    kwargs.setdefault("burn_in", rc.burnin)
    try:
        return MCDesign(**{k: tuple(v) if k in _DESIGN_LISTS else v for k, v in kwargs.items()}), []
    except (ConfigurationError, TypeError) as exc:
        return None, [f"design: {exc}"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsepanel")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fields in COMMAND_FIELDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON config file; flags override its entries")
        for name in fields:
            rule = SETTINGS[name][1]
            p.add_argument("--" + name, **(
                {"choices": rule} if isinstance(rule, tuple) else
                {"type": int} if isinstance(rule, int) or rule == "seed" else
                {"help": "comma-separated, e.g. 1,2,3"} if rule == "horizons" else {}))
    return parser


def _resolve_config(args: argparse.Namespace) -> Dict:
    cfg = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(cfg, dict):
        raise ValueError(f"{args.config!r} must hold a JSON object")
    fields = COMMAND_FIELDS[args.command]
    cfg.update({name: getattr(args, name) for name in fields if getattr(args, name) is not None})
    if "threads" in fields and "threads" not in cfg:  # SPARSEPANEL_THREADS, 1 when unset or empty
        env = os.environ.get("SPARSEPANEL_THREADS") or "1"
        try:
            cfg["threads"] = int(env)
        except ValueError:  # for validate_config to reject
            cfg["threads"] = env
    cfg["command"] = args.command
    return cfg


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _write_manifest(out_dir: Path, rc: argparse.Namespace, wall_time: float, outputs: List[str]) -> None:
    write_manifest(out_dir / "run_manifest.json", {
        "config": {k: getattr(rc, k) for k in ("command",) + COMMAND_FIELDS[rc.command]},
        "seed": rc.seed,
        "versions": {
            "sparsepanel": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_seconds": round(wall_time, 3),
        "outputs": outputs,
    })


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


def _cmd_simulate(rc: argparse.Namespace) -> Dict:
    rng = RngStream(rc.seed, SIMULATE_STREAM)
    if rc.model == "m1":
        data, _ = simulate_m1(rc.theta, HyperParams.m1_defaults(), rc.n, rc.t, rng,
                              heteroskedastic=rc.heteroskedastic)
    else:
        profile = np.cumsum(np.ones((rc.n, rc.t)), axis=1)
        data, _ = simulate_m2(rc.theta, HyperParams.m2_defaults(), rc.n, rc.t, profile, rng)
    out = Path(rc.out)
    out.mkdir(parents=True, exist_ok=True)
    write_panel(data, out / "panel.csv")
    return {"panel": str(out / "panel.csv"), "n": rc.n, "t": rc.t}


def _estimate_chain(rc: argparse.Namespace, data):
    config, run = (M1Config, run_m1) if rc.model == "m1" else (M2Config, run_m2)
    return run(data, config(variant=rc.variant, n_draws=rc.draws, burn_in=rc.burnin, thin=rc.thin),
               RngStream(rc.seed, CHAIN_STREAM))


def _cmd_estimate(rc: argparse.Namespace) -> Dict:
    _progress(f"loading panel from {rc.data}")
    data = load_panel(rc.data)
    _progress(f"running {rc.model}/{rc.variant}: {rc.draws} draws, {rc.burnin} burn-in")
    chain = _estimate_chain(rc, data)
    out = Path(rc.out)
    chain.to_dir(out)
    return {"chain_dir": str(out), "kept_draws": chain.n_draws}


def _cmd_montecarlo(rc: argparse.Namespace) -> Dict:
    design, _ = _mc_design(rc)  # validate_config found no error in it
    n_cells = len(design.q_grid) * len(design.v_delta_alpha_grid)
    table = run_experiment(
        design, seed=rc.seed, threads=rc.threads,
        progress=lambda done, total, chain_s, workers: _progress(
            f"cell {done}/{total} done: {len(design.estimators)} chains x {design.n_sim} "
            f"replications in {chain_s:.2f} chain-s on {workers} worker(s), "
            f"{len(design.estimators) * design.n_sim * design.n_draws / chain_s:,.0f} sweeps/s"),
    )
    out = Path(rc.out)
    table.write(out)  # the table and its failure counts, even when the run then fails
    table.check_failures()
    return {"risk_table": str(out / "risk_table.csv"), "cells": n_cells}


def _cmd_forecast(rc: argparse.Namespace) -> Dict:
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


def _cmd_decompose(rc: argparse.Namespace) -> Dict:
    n, t = rc.cohort_size, rc.cohort_periods
    result = inequality_decomposition(rc.theta, n=n, t=t,
                                      rng=RngStream(rc.seed, DECOMPOSE_STREAM))
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
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not an object
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    rc, errors = validate_config(cfg)
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
