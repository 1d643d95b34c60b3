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

from sparsepanel import cli, mc
from sparsepanel.chainout import summarize
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


@pytest.fixture
def data_path(tmp_path):
    """A file to name as `data`: validate_config only checks that it exists."""
    path = tmp_path / "panel.csv"
    path.write_text("unit,time,y\n")
    return str(path)


def test_validate_empty_config_defaults(data_path):
    rc, errors, warnings = validate_config({})
    assert errors == [] and warnings == []
    assert rc.command == "simulate"
    assert (rc.model, rc.n, rc.t, rc.seed) == ("m1", 100, 8, 0)
    # the variant and chain lengths are defaults of the commands that read them
    rc, errors, warnings = validate_config({"command": "estimate", "data": data_path})
    assert errors == [] and warnings == []
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


@pytest.mark.parametrize("draws", ["5", 5.5, None])
def test_config_file_integer_settings_must_be_integers(draws, data_path):
    _, errors, _ = validate_config({"command": "estimate", "data": data_path, "draws": draws})
    assert errors == [f"draws: must be an integer >= 1, got {draws!r}"]


def test_validate_rip_prior_warning(data_path):
    rc, errors, warnings = validate_config({
        "command": "estimate", "model": "m2", "variant": "rip", "q_alpha": 0.4, "data": data_path,
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
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"n": 5, "t": 4, "n_sim": 1, "q_grid": [0.4],
                                  "v_delta_alpha_grid": [0.5], "estimators": ["q0"]}))
    out_dir = tmp_path / "o"
    code, _, _ = run_cli(["montecarlo", "--design", str(design), "--draws", "4", "--burnin", "2",
                          "--out", str(out_dir)], capsys)
    assert code == 0
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["config"]["threads"] == 3


@pytest.mark.parametrize("value", ["abc", "0"])
def test_malformed_threads_env_exits_2(value, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPARSEPANEL_THREADS", value)
    code, out, err = run_cli(["montecarlo", "--draws", "4", "--burnin", "2", "--out",
                              str(tmp_path / "o")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: threads: must be an integer >= 1"), err


@pytest.mark.parametrize("command, key", [("estimate", "data"), ("simulate", "out"),
                                          ("montecarlo", "design"), ("montecarlo", "out")])
def test_path_setting_that_is_not_a_string_exits_2(command, key, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: 5}))
    code, out, err = run_cli([command, "--config", str(config)], capsys)
    assert code == 2 and out == ""
    assert f"error: {key}: must be a path string, got 5" in err.splitlines(), err


def test_montecarlo_design_lengths_win_and_are_recorded(tmp_path, capsys):
    # "flags give the lengths the file does not set": a file that sets both
    # runs them whatever the flags say, and the run manifest records them.
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"n": 5, "t": 4, "n_sim": 1, "q_grid": [0.4],
                                  "v_delta_alpha_grid": [0.5], "estimators": ["q0"],
                                  "n_draws": 20, "burn_in": 10}))
    for flags in (["--draws", "40", "--burnin", "30"], ["--draws", "100"]):
        out_dir = tmp_path / "o"
        code, _, err = run_cli(["montecarlo", "--design", str(design), *flags,
                                "--out", str(out_dir)], capsys)
        assert code == 0, err
        config = json.loads((out_dir / "run_manifest.json").read_text())["config"]
        assert (config["draws"], config["burnin"]) == (20, 10)
        assert json.loads((out_dir / "manifest.json").read_text())["n_draws"] == 20
    # lengths from the flags are checked as the design's
    design.write_text(json.dumps({"n": 5, "t": 4, "n_sim": 1, "estimators": ["q0"]}))
    code, _, err = run_cli(["montecarlo", "--design", str(design), "--draws", "100",
                            "--out", str(tmp_path / "p")], capsys)
    assert code == 2
    assert "error: design: burn_in must satisfy 0 <= burn_in < n_draws" in err


def test_montecarlo_threads_give_the_same_table(tmp_path, capsys):
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"n": 12, "t": 8, "n_sim": 2, "q_grid": [0.0, 0.4],
                                  "v_delta_alpha_grid": [0.5], "estimators": ["ss", "q0"]}))
    tables = []
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        code, _, err = run_cli(["montecarlo", "--design", str(design), "--draws", "40",
                                "--burnin", "20", "--seed", "3", "--threads", threads,
                                "--out", str(out_dir)], capsys)
        assert code == 0, err
        assert f"on {threads} worker(s)" in err
        assert json.loads((out_dir / "manifest.json").read_text())["workers"] == int(threads)
        tables.append((out_dir / "risk_table.csv").read_bytes())
    assert tables[0] == tables[1]


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


def test_montecarlo_failure_writes_the_table_then_exits_1(tmp_path, capsys, monkeypatch):
    # One of two replications blows up: more than 5% of the cell fails, yet
    # the risk table and the failure counts are written before the exit.
    simulate = mc.simulate_m1

    def blow_up_replication_1(theta, hyper, n, t, stream, **kwargs):
        data, truth = simulate(theta, hyper, n, t, stream, **kwargs)
        return (replace(data, y=data.y * 1e300) if stream.key[-2] == 1 else data), truth

    monkeypatch.setattr(mc, "simulate_m1", blow_up_replication_1)
    design = tmp_path / "design.json"
    design.write_text(json.dumps({
        "n": 12, "t": 8, "n_sim": 2, "q_grid": [0.4], "v_delta_alpha_grid": [0.5],
        "estimators": ["ss", "q0"],
    }))
    out_dir = tmp_path / "mc"
    with np.errstate(all="ignore"):
        code, out, err = run_cli(
            ["montecarlo", "--design", str(design), "--draws", "60", "--burnin", "30",
             "--seed", "2", "--out", str(out_dir)], capsys)
    assert code == 1 and out == ""
    assert "error: estimator 'ss' failed 1/2 replications in cell q=0.4, v=0.5" in err
    assert (out_dir / "risk_table.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["failed_replications"] == {"q=0.4,v=0.5,ss": 1, "q=0.4,v=0.5,q0": 1}


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


@pytest.mark.parametrize("horizons, code", [("1,2", 0), ("1,x", 2)])
def test_config_file_horizons_string_is_split_on_commas(horizons, code, tmp_path, capsys):
    sim = tmp_path / "sim"
    run_cli(["simulate", "--model", "m2", "--n", "4", "--t", "4", "--out", str(sim)], capsys)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"horizons": horizons}))
    got, out, err = run_cli(
        ["forecast", "--model", "m2", "--data", str(sim / "panel.csv"), "--draws", "20",
         "--burnin", "10", "--config", str(config), "--out", str(tmp_path / "fc")], capsys)
    assert got == code
    if code == 0:
        assert json.loads(out)["horizons"] == [1, 2]
        rows = (tmp_path / "fc" / "fan_chart.csv").read_text().splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {"1", "2"}
    else:
        assert "error: horizons: must be comma-separated integers, got '1,x'" in err


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


def test_cli_import_loads_no_multiprocessing():
    # only a Monte Carlo run on more than one worker imports it
    code = "import sys, sparsepanel.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("design, message", [
    ({"theta": {"alpha": 1.0}}, "design: key 'theta' cannot be set in a design file"),
    ({"hyper": {"a": 2.0}}, "design: key 'hyper' cannot be set in a design file"),
    ({"n_sim": 2, "nsims": 3}, "design: unknown key 'nsims'"),
    ({"q_grid": 0.4}, "design: key 'q_grid' must be a list, got 0.4"),
    ({"v_delta_alpha_grid": 0.5}, "design: key 'v_delta_alpha_grid' must be a list, got 0.5"),
    ({"estimators": "ss"}, "design: key 'estimators' must be a list, got 'ss'"),
    ({"estimators": ["ss", "bogus"]}, "design: unknown estimator 'bogus'"),
    ({"n_draws": 10, "burn_in": 10}, "design: burn_in must satisfy 0 <= burn_in < n_draws"),
    ([0.4], "must hold a JSON object"),
    ("{", "design: cannot read"),
    ({"n": "abc"}, "design: n must be an integer, got 'abc'"),
    ({"t": True}, "design: t must be an integer, got True"),
    ({"n_sim": 1.5}, "design: n_sim must be an integer, got 1.5"),
    ({"n_draws": "40"}, "design: n_draws must be an integer, got '40'"),
    ({"burn_in": 2.0}, "design: burn_in must be an integer, got 2.0"),
    ({"q_grid": ["a"]}, "design: q_grid entries must be numbers in [0, 1], got 'a'"),
    ({"q_grid": [0.4, 1.5]}, "design: q_grid entries must be numbers in [0, 1], got 1.5"),
    ({"v_delta_alpha_grid": [-0.5]}, "design: v_delta_alpha_grid entries must be numbers > 0, "
                                     "got -0.5"),
])
def test_bad_design_file_exits_2(design, message, tmp_path, capsys):
    path = tmp_path / "design.json"
    path.write_text(design if isinstance(design, str) else json.dumps(design))
    code, out, err = run_cli(["montecarlo", "--design", str(path), "--draws", "4", "--burnin", "2",
                              "--out", str(tmp_path / "mc")], capsys)
    assert code == 2 and out == ""
    assert any(line.startswith("error: design:") and message in line for line in err.splitlines()), err
    assert not (tmp_path / "mc").exists()


@pytest.fixture
def m2_panel_csv(tmp_path_factory):
    sim = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--model", "m2", "--n", "4", "--t", "4", "--seed", "3",
                 "--out", str(sim)]) == 0
    return sim / "panel.csv"


def _flag_values(command, tmp_path, panel):
    """{flag: (argument, value the run manifest records)} for every flag of `command`."""
    out = {"seed": ("1", 1), "out": (str(tmp_path / "o"), str(tmp_path / "o"))}
    chain = {"model": ("m2", "m2"), "data": (str(panel), str(panel)), "draws": ("6", 6),
             "burnin": ("2", 2), "thin": ("2", 2)}
    if command == "simulate":
        return {**out, "model": ("m1", "m1"), "n": ("4", 4), "t": ("3", 3)}
    if command == "estimate":
        return {**out, **chain, "variant": ("homosk", "homosk")}
    if command == "forecast":
        return {**out, **chain, "variant": ("baseline", "baseline"),
                "scenario": ("full_info_no_param_unc", "full_info_no_param_unc"),
                "horizons": ("1,2", [1, 2])}
    if command == "montecarlo":
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"n": 5, "t": 4, "n_sim": 3, "q_grid": [0.4],
                                      "v_delta_alpha_grid": [0.5], "estimators": ["q0"]}))
        return {**out, "design": (str(design), str(design)), "nsim": ("1", 1), "draws": ("4", 4),
                "burnin": ("2", 2), "threads": ("2", 2)}
    return out


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_flag_of_a_command_lands_in_its_run_manifest(command, tmp_path, capsys, m2_panel_csv):
    values = _flag_values(command, tmp_path, m2_panel_csv)
    assert set(values) == set(cli.COMMAND_FIELDS[command])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cohort_size": 50, "cohort_periods": 3}))
    argv = [command, "--config", str(config)]
    for flag, (arg, _) in values.items():
        argv += ["--" + flag, arg]
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
    assert manifest["config"] == {"command": command, **{k: v for k, (_, v) in values.items()}}


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--draws"), ("estimate", "--nsim"), ("montecarlo", "--model"),
    ("forecast", "--n"), ("decompose", "--draws"),
])
def test_command_rejects_a_flag_it_does_not_read(command, flag, capsys):
    assert flag[2:] not in cli.COMMAND_FIELDS[command]
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_one_config_file_serves_every_command(tmp_path, capsys, m2_panel_csv):
    # draws=5 with the default burnin=2500 is invalid for a chain, and no
    # concern of decompose, which reads neither
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"draws": 5, "cohort_size": 50, "cohort_periods": 3}))
    code, _, err = run_cli(["decompose", "--config", str(config), "--out", str(tmp_path / "d")],
                           capsys)
    assert code == 0, err
    code, _, err = run_cli(["estimate", "--config", str(config), "--model", "m2", "--data",
                            str(m2_panel_csv), "--out", str(tmp_path / "e")], capsys)
    assert code == 2
    assert "error: burnin: must be smaller than draws (burnin=2500, draws=5)" in err
    code, _, err = run_cli(["estimate", "--config", str(config), "--model", "m2", "--data",
                            str(m2_panel_csv), "--burnin", "2", "--out", str(tmp_path / "e")], capsys)
    assert code == 0, err


def test_chain_manifest_summarizes_the_common_draws(tmp_path, capsys, m2_panel_csv):
    chain_dir = tmp_path / "chain"
    code, _, err = run_cli(["estimate", "--model", "m2", "--data", str(m2_panel_csv),
                            "--draws", "30", "--burnin", "10", "--seed", "4",
                            "--out", str(chain_dir)], capsys)
    assert code == 0, err
    manifest = strict_json((chain_dir / "manifest.json").read_text())
    header = (chain_dir / "common.csv").read_text().splitlines()[0].split(",")
    table = np.loadtxt(chain_dir / "common.csv", delimiter=",", skiprows=1)
    assert manifest["summaries"]["q_alpha"] == summarize(table[:, header.index("q_alpha")])
    assert set(manifest["summaries"]) == set(header)


@pytest.mark.parametrize("text", ["{", "[1]", "3"])
def test_config_file_that_is_not_a_json_object_exits_2(text, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(text)
    code, out, err = run_cli(["simulate", "--config", str(config), "--out", str(tmp_path / "o")],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read config:")
