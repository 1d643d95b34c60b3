"""Tests for the Monte Carlo risk-experiment driver."""

import json

import pytest

from sparsepanel.m1 import ConfigurationError
from sparsepanel.mc import MCDesign, _cell_theta, _estimator_config, run_experiment


def tiny_design(**kw):
    base = dict(
        model="m1_homosk",
        q_grid=(0.4,),
        v_delta_alpha_grid=(0.5,),
        n=20,
        t=8,
        n_sim=3,
        estimators=("ss", "q0", "oracle"),
        n_draws=80,
        burn_in=40,
    )
    base.update(kw)
    return MCDesign(**base)


def test_design_validation():
    with pytest.raises(ConfigurationError):
        MCDesign(model="m3")
    with pytest.raises(ConfigurationError):
        MCDesign(estimators=("ss", "nope"))
    with pytest.raises(ConfigurationError):
        MCDesign(model="m1_homosk", estimators=("ss", "ss_homosk_misspec"))
    with pytest.raises(ConfigurationError):
        MCDesign(n_sim=0)
    # the misspecified estimator is allowed when the data are heteroskedastic
    MCDesign(model="m1_hetsk", estimators=("ss", "ss_homosk_misspec"))


def test_default_truth_values():
    d = tiny_design()
    assert d.theta.alpha == 1.0
    assert d.theta.rho == 0.6
    assert d.theta.sigma2 == 0.8
    assert d.theta.q["sigma"] == 0.0
    hetsk = tiny_design(model="m1_hetsk", estimators=("ss",))
    assert hetsk.theta.q["sigma"] == 0.4


def test_estimator_variant_mapping():
    d = tiny_design()
    assert _estimator_config(d, "ss").variant == "ss_homosk"
    assert _estimator_config(d, "q0").variant == "homogeneous"
    assert _estimator_config(d, "q1").variant == "full_hetero_homosk"
    dh = tiny_design(model="m1_hetsk", estimators=("ss",))
    assert _estimator_config(dh, "ss").variant == "ss_hetsk"
    assert _estimator_config(dh, "q1").variant == "full_hetero_hetsk"
    assert _estimator_config(dh, "ss_homosk_misspec").variant == "ss_homosk"


def test_cell_theta_overrides_grid_values():
    d = tiny_design()
    theta = _cell_theta(d, q=0.7, v=0.05)
    assert theta.q == {"alpha": 0.7, "rho": 0.7, "sigma": 0.0}
    assert theta.v_delta_alpha == 0.05
    # the design's own truth is untouched
    assert d.theta.q["alpha"] == 0.4


def test_run_experiment_deterministic_and_thread_invariant():
    d = tiny_design()
    t1 = run_experiment(d, seed=4)
    t2 = run_experiment(d, seed=4)
    t3 = run_experiment(d, seed=4, threads=2)
    t4 = run_experiment(d, seed=5)
    key = (0.4, 0.5, "ss", "alpha")
    assert t1.risks[key] == t2.risks[key] == t3.risks[key]
    assert t1.risks[key] != t4.risks[key]
    assert t1.risks[key] > 0
    assert t1.stderrs[key] > 0
    assert t1.failed[(0.4, 0.5, "ss")] == 0


def test_risk_table_accessors_and_write(tmp_path):
    table = run_experiment(tiny_design(), seed=1)
    assert table.risk(0.4, 0.5, "ss") == table.risks[(0.4, 0.5, "ss", "alpha")]
    assert table.stderr(0.4, 0.5, "q0", "rho") == table.stderrs[(0.4, 0.5, "q0", "rho")]
    table.write(tmp_path)
    text = (tmp_path / "risk_table.csv").read_text()
    header = text.splitlines()[0].split(",")
    assert "risk_q0.4" in header and "stderr_q0.4" in header
    assert sum(1 for line in text.splitlines()[1:] if line) == 2 * 1 * 3
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["n_sim"] == 3
    assert manifest["estimators"] == ["ss", "q0", "oracle"]
    assert list(manifest["cell_wall_s"]) == ["q=0.4,v=0.5"]
    assert all(s > 0 for s in manifest["cell_wall_s"].values())
