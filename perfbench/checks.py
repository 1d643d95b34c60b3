"""Correctness checks on each workload's outputs.

Every check is computed apart from the program (least squares fitted here,
a hash recomputed here, the simulation truth) or tests a property the method
must have. None compares with a stored copy of earlier output. A failed
check raises CheckError; a passing one returns the figures it compared.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np


class CheckError(AssertionError):
    pass


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def read_numeric_csv(path: Path):
    """Header names and an all-numeric body as a (rows, columns) array."""
    text = path.read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    names = header.split(",")
    values = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
    _require(values.size % len(names) == 0, f"{path.name}: ragged rows")
    return names, values.reshape(-1, len(names))


def _columns(names, table, prefix):
    idx = [j for j, name in enumerate(names) if name == prefix or name.startswith(prefix + "[")]
    return table[:, idx]


def per_unit_ols_intercepts(y: np.ndarray) -> np.ndarray:
    """Intercepts of y_it on (1, y_{i,t-1}), fitted unit by unit."""
    lag, cur = y[:, :-1], y[:, 1:]
    t = lag.shape[1]
    sx, sy = lag.sum(axis=1), cur.sum(axis=1)
    sxx, sxy = (lag * lag).sum(axis=1), (lag * cur).sum(axis=1)
    slope = (t * sxy - sx * sy) / (t * sxx - sx * sx)
    return (sy - slope * sx) / t


def check_m1_estimate(out: Path, inp: Path, kept: int) -> dict:
    manifest = json.loads((out / "manifest.json").read_text())
    digest = hashlib.sha256()
    for name in manifest["files"]:
        digest.update((out / name).read_bytes())
    _require(digest.hexdigest() == manifest["content_sha256"],
             "content_sha256 does not match the written CSV files")
    _require(manifest["files"] == ["common.csv", "unit.csv", "unit_means.csv"],
             f"unexpected chain files {manifest['files']}")
    tables = {name: read_numeric_csv(out / name) for name in manifest["files"]}
    for name in ("common.csv", "unit.csv"):
        _require(tables[name][1].shape[0] == kept,
                 f"{name}: {tables[name][1].shape[0]} rows, expected {kept} kept draws")
    truth = np.load(inp / "truth.npz")
    n_units = truth["alpha_i"].size
    _require(tables["unit_means.csv"][1].shape[0] == n_units,
             f"unit_means.csv: expected one row per unit ({n_units})")

    names, unit = tables["unit.csv"]
    for label, spike in (("alpha", 0.0), ("rho", 0.0), ("sigma", 1.0)):
        z = _columns(names, unit, "z_" + label)
        delta = _columns(names, unit, "delta_" + label)
        _require(z.size and z.shape == delta.shape, f"unit.csv lacks z_{label}/delta_{label}")
        _require(np.all((z == 0) | (z == 1)), f"z_{label} takes values outside {{0, 1}}")
        _require(np.all(delta[z == 0] == spike), f"delta_{label} leaves its spike where z is 0")

    names, means = tables["unit_means.csv"]
    alpha_hat = _columns(names, means, "alpha_i")[:, 0]
    risk = float(np.mean((alpha_hat - truth["alpha_i"]) ** 2))
    risk_ols = float(np.mean((per_unit_ols_intercepts(truth["y"]) - truth["alpha_i"]) ** 2))
    _require(risk < risk_ols,
             f"alpha-risk of posterior means {risk:.4f} is not below per-unit OLS {risk_ols:.4f}")

    names, common = tables["common.csv"]
    z_scores = {}
    for name, true in zip(("alpha", "rho", "sigma2"), truth["common"]):
        draws = _columns(names, common, name)[:, 0]
        z_scores[name] = float(abs(draws.mean() - true) / draws.std())
        _require(z_scores[name] < 4.0,
                 f"posterior mean of {name} lies {z_scores[name]:.1f} sd from the truth {true}")
    return {"alpha_risk": risk, "ols_alpha_risk": risk_ols, "max_z": max(z_scores.values())}


def read_risk_table(path: Path) -> dict:
    """{(target, estimator): (risk, stderr)} for a one-cell risk table."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows[0]) == 5, "risk table should hold exactly one q column")
    return {(r[0], r[2]): (float(r[3]), float(r[4])) for r in rows[1:]}


def pooled_ols_alpha_risk(spec: dict, seed: int) -> float:
    """Alpha-risk of pooled least squares on the cell's own panels.

    The panels are re-simulated with the streams `run_experiment` documents:
    RngStream(seed, 0).substream(cell).substream(replication).substream(0).
    """
    from sparsepanel.mc import MCDesign
    from sparsepanel.panel import simulate_m1
    from sparsepanel.rng import RngStream

    design = MCDesign(**{k: tuple(v) if isinstance(v, list) else v for k, v in spec.items()})
    (q,), (v,) = design.q_grid, design.v_delta_alpha_grid
    theta = replace(design.theta, q={"alpha": q, "rho": q, "sigma": 0.0}, v_delta_alpha=v)
    root = RngStream(seed=seed, stream_id=0)
    losses = []
    for rep in range(design.n_sim):
        data, truth = simulate_m1(theta, design.hyper, design.n, design.t,
                                  root.substream(0).substream(rep).substream(0))
        lag = data.y[:, :-1].ravel()
        coef = np.linalg.lstsq(np.column_stack([np.ones_like(lag), lag]),
                               data.y[:, 1:].ravel(), rcond=None)[0]
        losses.append(np.mean((coef[0] - (theta.alpha + truth.delta_alpha)) ** 2))
    return float(np.mean(losses))


def check_mc_cell(out: Path, inp: Path) -> dict:
    manifest = json.loads((out / "manifest.json").read_text())
    failed = manifest["failed_replications"]
    _require(not failed, f"failed replications: {failed}")
    table = read_risk_table(out / "risk_table.csv")
    risk = {est: table[("alpha", est)] for est in ("ss", "q0", "q1", "oracle")}
    seed = json.loads((inp / "config.json").read_text())["seed"]
    ols = pooled_ols_alpha_risk(json.loads((inp / "design.json").read_text()), seed)
    _require(abs(risk["q0"][0] - ols) <= 0.02 * ols,
             f"q0 alpha-risk {risk['q0'][0]:.4f} is not within 2% of pooled OLS {ols:.4f}")
    _require(risk["oracle"][0] <= risk["ss"][0] + 2.0 * risk["ss"][1],
             f"oracle alpha-risk {risk['oracle'][0]:.4f} exceeds ss {risk['ss'][0]:.4f} "
             f"+ 2 stderr")
    _require(risk["ss"][0] < risk["q1"][0],
             f"ss alpha-risk {risk['ss'][0]:.4f} is not below q1 {risk['q1'][0]:.4f}")
    return {"alpha_risk_" + est: r for est, (r, _) in risk.items()} | {"pooled_ols": ols}


def read_fan_chart(path: Path):
    """Units in file order, horizons, levels and a (unit, horizon, level) array."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    units = list(dict.fromkeys(r[0] for r in rows))
    horizons = sorted({int(r[1]) for r in rows})
    levels = sorted({float(r[2]) for r in rows})
    values = np.full((len(units), len(horizons), len(levels)), np.nan)
    u_idx = {u: i for i, u in enumerate(units)}
    for r in rows:
        values[u_idx[r[0]], horizons.index(int(r[1])), levels.index(float(r[2]))] = float(r[3])
    _require(len(rows) == values.size, "fan chart is not one row per unit, horizon and level")
    return units, horizons, levels, values


def coverage_band(level: float, n: int) -> tuple:
    """Four binomial standard errors either side of the nominal level."""
    half = 4.0 * np.sqrt(level * (1.0 - level) / n)
    return level - half, level + half


def check_forecast(out: Path, inp: Path, horizons) -> dict:
    truth = np.load(inp / "truth.npz")
    units, got_h, levels, values = read_fan_chart(out / "fan_chart.csv")
    _require(units == truth["unit_ids"].tolist(), "fan chart units differ from the panel's units")
    _require(got_h == list(horizons), f"fan chart horizons {got_h}, expected {list(horizons)}")
    _require(np.all(np.isfinite(values)), "fan chart holds non-finite values")
    _require(np.all(np.diff(values, axis=2) >= 0.0),
             "fan chart quantiles decrease with the quantile level")
    _require(0.05 in levels and 0.95 in levels, "fan chart lacks the 90% interval")
    holdout = truth["holdout"]
    lo, hi = values[:, 0, levels.index(0.05)], values[:, 0, levels.index(0.95)]
    coverage = float(np.mean((holdout >= lo) & (holdout <= hi)))
    band = coverage_band(0.9, len(units))
    _require(band[0] <= coverage <= band[1],
             f"one-step 90% coverage {coverage:.3f} lies outside [{band[0]:.3f}, {band[1]:.3f}]")
    return {"coverage_h1_90": coverage, "median_width_h1_90": float(np.median(hi - lo))}
