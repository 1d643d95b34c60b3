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
from dataclasses import dataclass, field
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
from sparsepanel.panel import M2_BLOCKS, load_panel, simulate_m1, simulate_m2, write_panel
from sparsepanel.rng import RngStream

# The RunConfig fields each command reads, each also a flag of that command.
# A config file may set any field for any command, so that one file serves a
# whole workflow; a command ignores the fields it does not read.
_CHAIN_FIELDS = ("model", "variant", "data", "draws", "burnin", "thin", "seed", "out")
COMMAND_FIELDS = {
    "simulate": ("model", "n", "t", "seed", "out"),
    "estimate": _CHAIN_FIELDS,
    "montecarlo": ("design", "nsim", "draws", "burnin", "seed", "threads", "out"),
    "forecast": _CHAIN_FIELDS + ("scenario", "horizons"),
    "decompose": ("seed", "out"),
}
COMMANDS = tuple(COMMAND_FIELDS)

# Smallest value of each integer setting but the seed (nsim may also be unset).
_MINIMUM = {"draws": 1, "burnin": 0, "thin": 1, "threads": 1, "nsim": 1, "n": 1, "t": 2}

# The config-file keys that are no flag, each with the commands that read it,
# and the smallest value of those that are integers. A config file holds no
# key but these and the flags of some command.
CONFIG_ONLY = {"theta": ("simulate", "decompose"), "heteroskedastic": ("simulate",),
               "cohort_size": ("decompose",), "cohort_periods": ("decompose",)}
_CONFIG_MINIMUM = {"cohort_size": 2, "cohort_periods": 1}
_CONFIG_KEYS = sorted({*CONFIG_ONLY, *(f for fields in COMMAND_FIELDS.values() for f in fields)})

# argparse options of the flags that are not free strings
_FLAG_OPTIONS = {
    "model": {"choices": ("m1", "m2")},
    "scenario": {"choices": SCENARIOS},
    "horizons": {"help": "comma-separated, e.g. 1,2,3"},
    **{name: {"type": int} for name in (*_MINIMUM, "seed")},
}

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
_THETA_KEYS = tuple(CommonState.__dataclass_fields__)


def _is_int(value) -> bool:
    """An integer setting's type test: JSON true and false are no integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_numbers(value) -> bool:
    """A number, or a non-empty list of them (nested for a matrix)."""
    if isinstance(value, list):
        return bool(value) and all(_is_numbers(v) for v in value)
    return _is_number(value)


def _theta_errors(theta, blocks: Tuple[str, ...]) -> List[str]:
    """The errors of a config file's `theta` entries, for a model whose
    unit-level blocks are `blocks`."""
    if not isinstance(theta, dict):
        return [f"theta: must be a JSON object, got {theta!r}"]
    errors = []
    for name, value in theta.items():
        if name not in _THETA_KEYS:
            errors.append(f"theta: unknown parameter {name!r}, expected one of {_THETA_KEYS}")
        elif name != "q":
            if not _is_numbers(value):
                errors.append(f"theta: {name} must be a number or a list of numbers, got {value!r}")
        elif not isinstance(value, dict):
            errors.append(f"theta: q must be a JSON object of blocks, got {value!r}")
        else:
            for block, prob in value.items():
                if block not in blocks:
                    errors.append(f"theta: q has unknown block {block!r}, expected one of {blocks}")
                elif not (_is_number(prob) and 0.0 <= prob <= 1.0):
                    errors.append(f"theta: q[{block!r}] must be a number in [0, 1], got {prob!r}")
    return errors


@dataclass
class RunConfig:
    """Fully resolved settings for one command invocation; a command reads
    only its `COMMAND_FIELDS` and, in `extra`, its `CONFIG_ONLY` keys."""

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


def validate_config(config: Dict) -> Tuple[Optional[RunConfig], List[str]]:
    """Resolve defaults and check the settings the command reads, collecting
    every error. A key that no command reads is an error.

    Returns (run_config_or_None, errors).
    """
    errors: List[str] = []
    cfg = dict(config)
    command = cfg.pop("command", "simulate")
    if command not in COMMANDS:
        errors.append(f"command: {command!r} is not one of {COMMANDS}")
        return None, errors
    errors += [f"{k}: unknown key, expected one of {_CONFIG_KEYS}" for k in cfg if k not in _CONFIG_KEYS]
    fields = COMMAND_FIELDS[command]
    extra = {k: cfg[k] for k, readers in CONFIG_ONLY.items() if k in cfg and command in readers}
    rc = RunConfig(command=command, extra=extra, **{k: cfg[k] for k in fields if k in cfg})

    if "model" in fields:
        if rc.model not in ("m1", "m2"):
            errors.append(f"model: {rc.model!r} is not one of ('m1', 'm2')")
        elif "variant" in fields:
            variants = M1_VARIANTS if rc.model == "m1" else M2_VARIANTS
            if rc.variant is None:
                rc.variant = "ss_homosk" if rc.model == "m1" else "baseline"
            elif rc.variant not in variants:
                errors.append(f"variant: {rc.variant!r} is not one of {variants} for model {rc.model}")
    bad = set()
    for name in fields:
        value, lowest = getattr(rc, name), _MINIMUM.get(name)
        if lowest is None or (name == "nsim" and value is None):
            continue
        if not (_is_int(value) and value >= lowest):
            errors.append(f"{name}: must be an integer >= {lowest}, got {value!r}")
            bad.add(name)
    # montecarlo checks the chain lengths its design resolves to (_mc_design)
    if (command != "montecarlo" and "burnin" in fields and not bad & {"draws", "burnin"}
            and rc.burnin >= rc.draws):
        errors.append(f"burnin: must be smaller than draws (burnin={rc.burnin}, draws={rc.draws})")
    if not (_is_int(rc.seed) and 0 <= rc.seed < 2**64):
        errors.append(f"seed: must be an integer in [0, 2**64), got {rc.seed!r}")
    for name in ("data", "design", "out"):  # only out may not be unset
        value = getattr(rc, name)
        if name in fields and not (isinstance(value, str) or value is None and name != "out"):
            errors.append(f"{name}: must be a path string, got {value!r}")
            bad.add(name)
    if "data" in fields and "data" not in bad:
        if rc.data is None:
            errors.append(f"data: required for the {command} command")
        elif not Path(rc.data).exists():
            errors.append(f"data: path {rc.data!r} does not exist")
    if "design" in fields and "design" not in bad and rc.design is not None \
            and not Path(rc.design).exists():
        errors.append(f"design: path {rc.design!r} does not exist")
    if "scenario" in fields and rc.scenario not in SCENARIOS:
        errors.append(f"scenario: {rc.scenario!r} is not one of {SCENARIOS}")
    if "horizons" in fields:
        try:  # through str, so that a config file's 1.5 is rejected, not truncated
            parts = rc.horizons.split(",") if isinstance(rc.horizons, str) else rc.horizons
            rc.horizons = tuple(int(str(h)) for h in parts)
        except (TypeError, ValueError):
            errors.append(f"horizons: must be comma-separated integers, got {rc.horizons!r}")
        else:
            if not (rc.horizons and min(rc.horizons) >= 1 and len(set(rc.horizons)) == len(rc.horizons)):
                errors.append(f"horizons: must be distinct positive integers, got {list(rc.horizons)}")
    for name, lowest in _CONFIG_MINIMUM.items():
        value = extra.get(name, lowest)
        if not (_is_int(value) and value >= lowest):
            errors.append(f"{name}: must be an integer >= {lowest}, got {value!r}")
    if not isinstance(extra.get("heteroskedastic", False), bool):
        errors.append(f"heteroskedastic: must be true or false, got {extra['heteroskedastic']!r}")
    if "theta" in extra:  # checked against the model it simulates, M2 for decompose
        m1 = command == "simulate" and rc.model == "m1"
        errors += _theta_errors(extra["theta"], ("alpha", "rho", "sigma") if m1 else M2_BLOCKS)
    if command == "forecast" and rc.model != "m2":
        errors.append("model: forecasting requires model m2")
    if command == "montecarlo" and not errors:
        design, design_errors = _mc_design(rc)
        errors += design_errors
        if design is not None:  # the manifest records the lengths that run
            rc.draws, rc.burnin = design.n_draws, design.burn_in
    return (None if errors else rc), errors


def _mc_design(rc: RunConfig) -> Tuple[Optional[MCDesign], List[str]]:
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


def _threads_default():
    """SPARSEPANEL_THREADS as an integer, 1 when it is unset or empty. A value
    that is no integer comes back as given, for validate_config to reject."""
    env = os.environ.get("SPARSEPANEL_THREADS")
    if not env:
        return 1
    try:
        return int(env)
    except ValueError:
        return env


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsepanel")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fields in COMMAND_FIELDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON config file; flags override its entries")
        for name in fields:
            p.add_argument("--" + name, **_FLAG_OPTIONS.get(name, {}))
    return parser


def _resolve_config(args: argparse.Namespace) -> Dict:
    cfg = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(cfg, dict):
        raise ValueError(f"{args.config!r} must hold a JSON object")
    fields = COMMAND_FIELDS[args.command]
    cfg.update({name: getattr(args, name) for name in fields if getattr(args, name) is not None})
    if "threads" in fields and "threads" not in cfg:
        cfg["threads"] = _threads_default()
    cfg["command"] = args.command
    return cfg


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _write_manifest(out_dir: Path, rc: RunConfig, wall_time: float, outputs: List[str]) -> None:
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


def _theta_from_config(model: str, t: int, extra: Dict) -> CommonState:
    """The default truth of `model` over `t` periods, with the config file's `theta` entries."""
    theta = MCDesign(model="m1_homosk").theta if model == "m1" else _default_m2_truth(t)
    for name, val in extra.get("theta", {}).items():
        if name == "q":
            theta.q.update(val)
        elif name in ("sigma2_u", "sigma2_eps") and np.isscalar(val):
            setattr(theta, name, np.full(t, float(val)))
        elif name in ("alpha", "v_delta_alpha") and model == "m2":
            setattr(theta, name, np.asarray(val, dtype=float))
        else:
            setattr(theta, name, val)
    return theta


def _cmd_simulate(rc: RunConfig) -> Dict:
    rng = RngStream(rc.seed, SIMULATE_STREAM)
    theta = _theta_from_config(rc.model, rc.t, rc.extra)
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
    n = rc.extra.get("cohort_size", 10_000)
    t = rc.extra.get("cohort_periods", 20)
    theta = _theta_from_config("m2", t, rc.extra)
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
