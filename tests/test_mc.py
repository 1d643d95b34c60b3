"""Tests for the Monte Carlo risk-experiment driver."""

import json
from dataclasses import replace

import numpy as np
import pytest

from sparsepanel import mc
from sparsepanel.m1 import ConfigurationError
from sparsepanel.mc import MCDesign, _cell_losses, _cell_theta, _estimator_config, run_experiment
from sparsepanel.rng import RngStream


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


# (estimator, target) -> (risk, stderr) of the cell q=0.4, v=0.5 at seed 4, as
# the harness gave them when it ran each replication's chains on its own.
RECORDED = {
    "m1_homosk": {
        ("ss", "alpha"): (0.2131547128609191, 0.07037193156859206),
        ("ss", "rho"): (0.0416069783227018, 0.014102721335308065),
        ("q0", "alpha"): (1.3180515041660337, 0.8272288550153019),
        ("q0", "rho"): (0.4281351286132005, 0.31795659143871463),
        ("oracle", "alpha"): (0.12575408941082497, 0.05374461324207897),
        ("oracle", "rho"): (0.01834338691618183, 0.004344079933336638),
    },
    "m1_hetsk": {
        ("ss", "alpha"): (0.23241854755805888, 0.08548441023499694),
        ("ss", "rho"): (0.039129676829298625, 0.005186171927729364),
        ("q1", "alpha"): (0.18881608547908305, 0.04719227662373756),
        ("q1", "rho"): (0.04935450762668315, 0.016627255585831616),
        ("oracle", "alpha"): (0.1273261789915072, 0.03991151464039327),
        ("oracle", "rho"): (0.02010428042015958, 0.004061199455597328),
        ("ss_homosk_misspec", "alpha"): (0.19540362936275435, 0.03432323708108715),
        ("ss_homosk_misspec", "rho"): (0.03852691204302176, 0.011814274983354172),
    },
}


@pytest.mark.parametrize("model", sorted(RECORDED))
def test_batched_cell_reproduces_recorded_risks(model):
    # Batching replications into one chain per estimator changes no draw:
    # only the order of sums over units may move the last bits.
    estimators = tuple(dict.fromkeys(est for est, _ in RECORDED[model]))
    table = run_experiment(tiny_design(model=model, estimators=estimators), seed=4)
    for (est, target), (risk, stderr) in RECORDED[model].items():
        assert table.risk(0.4, 0.5, est, target) == pytest.approx(risk, rel=1e-12, abs=0)
        assert table.stderr(0.4, 0.5, est, target) == pytest.approx(stderr, rel=1e-12, abs=0)
        assert table.failed[(0.4, 0.5, est)] == 0


def test_non_finite_replication_fails_alone(monkeypatch):
    # One replication's panel is scaled to 1e300, so its draws go non-finite.
    # It counts as failed, and the replications it shares chains with keep
    # their losses exactly.
    design = tiny_design(n_sim=20)
    theta = _cell_theta(design, 0.4, 0.5)
    streams = [RngStream(4, 0).substream(0).substream(rep) for rep in range(design.n_sim)]
    clean = _cell_losses(design, theta, streams)
    simulate = mc.simulate_m1

    def blow_up_replication_2(theta, hyper, n, t, stream, **kwargs):
        data, truth = simulate(theta, hyper, n, t, stream, **kwargs)
        if stream.key[-2] == 2:
            data = replace(data, y=data.y * 1e300)
        return data, truth

    monkeypatch.setattr(mc, "simulate_m1", blow_up_replication_2)
    with np.errstate(all="ignore"):
        broken = _cell_losses(design, theta, streams)
        table = run_experiment(design, seed=4)
    ok = np.arange(design.n_sim) != 2
    for est in design.estimators:
        (loss, finite), (clean_loss, clean_finite) = broken[est], clean[est]
        assert clean_finite.all()
        np.testing.assert_array_equal(finite, ok)
        for target in ("alpha", "rho"):
            np.testing.assert_array_equal(loss[target][ok], clean_loss[target][ok])
        assert table.failed[(0.4, 0.5, est)] == 1
