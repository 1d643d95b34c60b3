"""Tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from sparsepanel import cli
from sparsepanel.cli import _default_m2_truth, main, validate_config
from sparsepanel.forecast import predict, write_fan_chart
from sparsepanel.m2 import run_m2_individual
from sparsepanel.panel import load_panel, write_panel
from sparsepanel.rng import RngStream, as_generator

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_empty_config_defaults():
    rc, errors, warnings = validate_config({})
    assert errors == [] and warnings == []
    assert rc.command == "simulate"
    assert rc.model == "m1"
    assert rc.variant == "ss_homosk"
    assert rc.draws == 5000 and rc.burnin == 2500
    assert rc.seed == 0


def test_validate_aggregates_errors():
    rc, errors, _ = validate_config({
        "command": "estimate",
        "model": "m3",
        "draws": 100,
        "burnin": 100,
        "thin": 0,
    })
    assert rc is None
    text = "\n".join(errors)
    assert "model" in text
    assert "burnin" in text and "draws" in text
    assert "thin" in text
    assert "data" in text
    assert len(errors) >= 4


def test_validate_rip_prior_warning():
    rc, errors, warnings = validate_config({
        "command": "simulate", "model": "m2", "variant": "rip", "q_alpha": 0.4,
    })
    assert errors == []
    assert any("ignored" in w for w in warnings)
    assert rc.extra["q_alpha"] == 0.4


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--bogus", "1"])
    assert exc.value.code == 2


def test_validation_failure_exits_2(capsys):
    code, out, err = run_cli(["estimate", "--model", "m1", "--data", "/no/such.csv"], capsys)
    assert code == 2
    assert "does not exist" in err
    assert out == ""


def test_runtime_failure_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("unit,time,y\nu1,0,1.0\nu1,0,2.0\n")
    code, out, err = run_cli(
        ["estimate", "--model", "m1", "--data", str(bad), "--draws", "10",
         "--burnin", "5", "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert err.startswith("error:") or "error:" in err


def test_simulate_estimate_round_trip(tmp_path, capsys):
    sim = tmp_path / "sim"
    code, out, err = run_cli(
        ["simulate", "--model", "m1", "--n", "15", "--t", "6", "--seed", "3",
         "--out", str(sim)], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["command"] == "simulate"
    assert (sim / "panel.csv").exists()
    assert (sim / "run_manifest.json").exists()
    chain_dir = tmp_path / "chain"
    code, out, err = run_cli(
        ["estimate", "--model", "m1", "--variant", "ss_homosk",
         "--data", str(sim / "panel.csv"), "--draws", "60", "--burnin", "30",
         "--seed", "5", "--out", str(chain_dir)], capsys)
    assert code == 0
    assert json.loads(out)["kept_draws"] == 30
    assert (chain_dir / "common.csv").exists()
    manifest = json.loads((chain_dir / "run_manifest.json").read_text())
    assert manifest["config"]["seed"] == 5
    assert "numpy" in manifest["versions"]


def test_repeated_runs_byte_identical(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        sim = tmp_path / name
        code, _, _ = run_cli(
            ["simulate", "--model", "m2", "--n", "8", "--t", "5", "--seed", "11",
             "--out", str(sim)], capsys)
        assert code == 0
        files = {"panel.csv": (sim / "panel.csv").read_bytes()}
        chain_dir = sim / "chain"
        code, _, _ = run_cli(
            ["estimate", "--model", "m2", "--data", str(sim / "panel.csv"), "--draws", "30",
             "--burnin", "10", "--thin", "3", "--seed", "2", "--out", str(chain_dir)], capsys)
        assert code == 0
        for fname in ("common.csv", "unit.csv", "unit_means.csv"):
            files[fname] = (chain_dir / fname).read_bytes()
        manifest = json.loads((chain_dir / "manifest.json").read_text())
        del manifest["written_at"]
        files["manifest.json"] = manifest
        fc = sim / "fc"
        code, _, _ = run_cli(
            ["forecast", "--model", "m2", "--data", str(sim / "panel.csv"), "--draws", "30",
             "--burnin", "10", "--seed", "2", "--horizons", "1,2", "--out", str(fc)], capsys)
        assert code == 0
        files["fan_chart.csv"] = (fc / "fan_chart.csv").read_bytes()
        outs.append(files)
    assert outs[0] == outs[1]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "m1", "n": 10, "t": 5, "seed": 1}))
    out_dir = tmp_path / "o"
    code, out, _ = run_cli(
        ["simulate", "--config", str(cfg), "--n", "7", "--out", str(out_dir)], capsys)
    assert code == 0
    assert json.loads(out)["n"] == 7  # flag wins over the config file
    text = (out_dir / "panel.csv").read_text()
    units = {line.split(",")[0] for line in text.splitlines()[1:]}
    assert len(units) == 7


def test_threads_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPARSEPANEL_THREADS", "3")
    out_dir = tmp_path / "o"
    code, _, _ = run_cli(
        ["simulate", "--model", "m1", "--n", "5", "--t", "4", "--out", str(out_dir)], capsys)
    assert code == 0
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["config"]["threads"] == 3


def test_montecarlo_command(tmp_path, capsys):
    design = tmp_path / "design.json"
    design.write_text(json.dumps({
        "n": 12, "t": 8, "n_sim": 2, "q_grid": [0.4], "v_delta_alpha_grid": [0.5],
        "estimators": ["ss", "q0"],
    }))
    out_dir = tmp_path / "mc"
    code, out, err = run_cli(
        ["montecarlo", "--design", str(design), "--draws", "60", "--burnin", "30",
         "--seed", "2", "--out", str(out_dir)], capsys)
    assert code == 0
    assert (out_dir / "risk_table.csv").exists()
    assert "cell 1/1" in err
    assert "2 chains x 2 replications" in err and "sweeps/s" in err


def test_forecast_command(tmp_path, capsys):
    sim = tmp_path / "sim"
    run_cli(["simulate", "--model", "m2", "--n", "6", "--t", "5", "--seed", "3",
             "--out", str(sim)], capsys)
    fc = tmp_path / "fc"
    code, out, _ = run_cli(
        ["forecast", "--model", "m2", "--data", str(sim / "panel.csv"),
         "--draws", "60", "--burnin", "30", "--seed", "4", "--horizons", "1,2",
         "--scenario", "full_info_no_param_unc", "--out", str(fc)], capsys)
    assert code == 0
    assert json.loads(out)["horizons"] == [1, 2]
    header = (fc / "fan_chart.csv").read_text().splitlines()[0]
    assert header == "unit,horizon,quantile,value"


@pytest.mark.parametrize("horizons, message", [
    ("1,1", "horizons: must be distinct positive integers"),
    ("1,x", "horizons: must be comma-separated integers"),
])
def test_bad_horizons_exit_2(horizons, message, tmp_path, capsys):
    sim = tmp_path / "sim"
    run_cli(["simulate", "--model", "m2", "--n", "4", "--t", "4", "--out", str(sim)], capsys)
    code, out, err = run_cli(
        ["forecast", "--model", "m2", "--data", str(sim / "panel.csv"), "--draws", "20",
         "--burnin", "10", "--horizons", horizons, "--out", str(tmp_path / "fc")], capsys)
    assert code == 2
    assert out == ""
    assert any(line.startswith("error: " + message) for line in err.splitlines())
    assert not (tmp_path / "fc" / "fan_chart.csv").exists()


def test_config_file_horizons_must_be_integers():
    _, errors, _ = validate_config({"command": "forecast", "model": "m2", "horizons": [1.5, 2]})
    assert any(e.startswith("horizons: must be comma-separated integers") for e in errors)


def test_decompose_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cohort_size": 300, "cohort_periods": 6,
                               "theta": {"q": {"alpha": 0.0}}}))
    out_dir = tmp_path / "dec"
    code, out, _ = run_cli(
        ["decompose", "--config", str(cfg), "--seed", "1", "--out", str(out_dir)], capsys)
    assert code == 0
    lines = (out_dir / "decomposition.csv").read_text().splitlines()
    assert len(lines) == 7
    # no intercept heterogeneity: the intercept share column is exactly zero
    shares = [float(line.split(",")[4]) for line in lines[1:]]
    assert shares == [0.0] * 6


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bit_range_exits_2(seed, tmp_path, capsys):
    _, errors, _ = validate_config({"seed": seed})
    assert any(e.startswith("seed:") for e in errors)
    code, out, err = run_cli(["simulate", "--seed", str(seed), "--out", str(tmp_path / "o")],
                             capsys)
    assert code == 2
    assert "error: seed:" in err
    assert out == ""


def test_default_m2_truth_is_stationary(tmp_path, capsys):
    theta = _default_m2_truth(20)
    sd = np.sqrt(theta.v_delta_rho)
    # closed-form share of slab units with |rho_i| >= 1
    explosive = norm.sf(1.0, theta.rho, sd) + norm.cdf(-1.0, theta.rho, sd)
    assert explosive < 1e-4
    out_dir = tmp_path / "sim"
    code, _, _ = run_cli(["simulate", "--model", "m2", "--n", "400", "--t", "20", "--seed", "1",
                          "--out", str(out_dir)], capsys)
    assert code == 0
    y = load_panel(out_dir / "panel.csv").y
    assert np.nanmax(np.abs(y)) < 10


def test_unit_chain_streams_do_not_collide_across_seeds(tmp_path, capsys, monkeypatch):
    sim = tmp_path / "sim"
    run_cli(["simulate", "--model", "m2", "--n", "2", "--t", "5", "--seed", "3",
             "--out", str(sim)], capsys)
    real = cli.run_m2_individual
    states = []

    def spy(*args, rng, **kwargs):
        states.append(repr(as_generator(rng).bit_generator.state))
        return real(*args, rng=rng, **kwargs)

    monkeypatch.setattr(cli, "run_m2_individual", spy)
    per_seed = {}
    for seed in (0, 1):
        states.clear()
        code, _, _ = run_cli(
            ["forecast", "--model", "m2", "--data", str(sim / "panel.csv"), "--draws", "4",
             "--burnin", "2", "--seed", str(seed), "--scenario", "individual_info",
             "--out", str(tmp_path / f"fc{seed}")], capsys)
        assert code == 0
        # one sampler call for all units, drawing from RngStream(seed, 4)
        assert states == [repr(RngStream(seed, 4).generator.bit_generator.state)]
        per_seed[seed] = states[0]
    assert per_seed[0] != per_seed[1]


def test_forecast_rejects_regressors_it_cannot_extend(tmp_path, capsys):
    sim = tmp_path / "sim"
    run_cli(["simulate", "--model", "m2", "--n", "3", "--t", "5", "--seed", "3",
             "--out", str(sim)], capsys)
    data = load_panel(sim / "panel.csv")
    for column, value in ((0, 2.0), (1, 0.7)):
        x = data.x.copy()
        x[1, 2, column] = value
        bad = tmp_path / f"bad{column}.csv"
        write_panel(replace(data, x=x), bad)
        for scenario in ("full_info_param_unc", "individual_info"):
            code, out, err = run_cli(
                ["forecast", "--model", "m2", "--data", str(bad), "--draws", "4", "--burnin",
                 "2", "--scenario", scenario, "--out", str(tmp_path / "fc")], capsys)
            assert code == 1 and out == ""
            assert err.splitlines()[-1].startswith("error: forecast regressors must be "
                                                    "[1, experience/10]")


def test_individual_forecast_fits_every_observed_period(tmp_path, capsys):
    # a CSV panel holds only observed periods, so the CLI must fit all of them
    sim = tmp_path / "sim"
    code, _, _ = run_cli(["simulate", "--model", "m2", "--n", "3", "--t", "3", "--seed", "3",
                          "--out", str(sim)], capsys)
    assert code == 0
    data = load_panel(sim / "panel.csv")
    assert data.n_periods == 3 and data.mask.all()
    code, _, err = run_cli(
        ["forecast", "--model", "m2", "--data", str(sim / "panel.csv"), "--draws", "6",
         "--burnin", "2", "--seed", "1", "--scenario", "individual_info",
         "--out", str(tmp_path / "fc")], capsys)
    assert code == 0, err
    chain = run_m2_individual(data, n_draws=6, burn_in=2, rng=RngStream(1, 4))
    write_fan_chart(predict(chain, data, (1,), "individual_info", RngStream(1, 3)),
                    tmp_path / "expected.csv")
    assert ((tmp_path / "fc" / "fan_chart.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())


def strict_json(text):
    """json.loads that rejects the non-standard constants NaN and +-Infinity."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("model, variant", [("m1", "ss_homosk"), ("m2", "homosk")])
def test_chain_manifest_is_strict_json(model, variant, tmp_path, capsys):
    # homoskedastic variants make no RWMH proposals, so their acceptance rate is undefined
    sim = tmp_path / "sim"
    code, _, _ = run_cli(["simulate", "--model", model, "--n", "6", "--t", "5", "--seed", "3",
                          "--out", str(sim)], capsys)
    assert code == 0
    chain_dir = tmp_path / "chain"
    code, _, _ = run_cli(["estimate", "--model", model, "--variant", variant,
                          "--data", str(sim / "panel.csv"), "--draws", "40", "--burnin", "20",
                          "--out", str(chain_dir)], capsys)
    assert code == 0
    manifest = strict_json((chain_dir / "manifest.json").read_text())
    undefined = [name for name, value in manifest["diagnostics"].items() if value is None]
    assert undefined and all(name.startswith("rwmh_acceptance") for name in undefined)
    # chain and run manifests come from one writer: sorted keys, written_at in UTC
    for name in ("manifest.json", "run_manifest.json"):
        text = (chain_dir / name).read_text()
        manifest = strict_json(text)
        assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", manifest["written_at"])


def test_cli_import_loads_no_scipy():
    code = ("import sys, sparsepanel.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
