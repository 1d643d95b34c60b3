"""Tests for panel ingestion, serialization, sample construction, and the
model simulators."""

from dataclasses import replace

import numpy as np
import pytest

from sparsepanel.blocks import CommonState, HyperParams
from sparsepanel.panel import (
    EmptySampleError,
    PanelData,
    PanelIngestionError,
    SampleSpec,
    draw_unit_deviations,
    load_panel,
    make_estimation_sample,
    residualize,
    simulate_m1,
    simulate_m2,
    write_panel,
)
from sparsepanel.rng import RngStream


def _theta_m1(q=0.4, hetsk=False):
    return CommonState(
        alpha=1.0, rho=0.6, sigma2=0.8,
        q={"alpha": q, "rho": q, "sigma": q if hetsk else 0.0},
        v_delta_alpha=0.5, v_delta_rho=0.09,
        v_delta_sigma=1.0 if hetsk else None,
    )


def test_load_panel_basic(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "unit,time,y\n"
        "b,2,2.5\n"
        "a,1,1.0\n"
        "a,3,3.0\n"
        "b,1,0.5\n"
    )
    data = load_panel(path)
    assert data.unit_ids == ("a", "b")
    np.testing.assert_array_equal(data.times, [1, 2, 3])
    assert data.y[0, 0] == 1.0 and data.y[1, 1] == 2.5
    # gaps become missing
    assert not data.mask[0, 1]
    assert np.isnan(data.y[0, 1])
    assert not data.balanced


def test_load_panel_rejects_duplicates_and_garbage(tmp_path):
    dup = tmp_path / "dup.csv"
    dup.write_text("unit,time,y\na,1,1.0\na,1,2.0\n")
    with pytest.raises(PanelIngestionError):
        load_panel(dup)
    bad = tmp_path / "bad.csv"
    bad.write_text("unit,time,y\na,1,oops\n")
    with pytest.raises(PanelIngestionError):
        load_panel(bad)


def test_write_then_load_roundtrip(tmp_path):
    rng = RngStream(seed=21, stream_id=0)
    data, _ = simulate_m1(_theta_m1(), HyperParams.m1_defaults(), n=7, t=5, rng=rng)
    path = tmp_path / "panel.csv"
    write_panel(data, path)
    back = load_panel(path)
    assert back.unit_ids == data.unit_ids
    np.testing.assert_array_equal(back.times, data.times)
    np.testing.assert_array_equal(back.y, data.y)  # .17g is lossless for doubles
    np.testing.assert_array_equal(back.mask, data.mask)


def test_roundtrip_with_covariates_and_gaps(tmp_path):
    rng = RngStream(seed=22, stream_id=0)
    theta = CommonState(
        alpha=np.array([1.0, 0.3]), rho=0.6,
        q={"alpha": 0.4, "rho": 0.4, "sigma_u": 0.3, "sigma_eps": 0.3},
        v_delta_alpha=np.diag([0.24, 0.05]), v_delta_rho=0.05,
        sigma2_u=np.full(6, 0.1), sigma2_eps=np.full(6, 0.05),
        v_delta_sigma_u=1.0, v_delta_sigma_eps=1.0, mu_s0=0.0, v_s0=0.05,
    )
    h = np.arange(1, 7)[None, :] + np.zeros((5, 1))
    data, _ = simulate_m2(theta, HyperParams.m2_defaults(), n=5, t=6,
                          experience_profile=h, rng=rng)
    path = tmp_path / "m2.csv"
    write_panel(data, path)
    back = load_panel(path)
    np.testing.assert_array_equal(back.mask, data.mask[:, 1:])  # t=0 has no data at all
    np.testing.assert_array_equal(back.y[:, :], data.y[:, 1:])
    np.testing.assert_array_equal(back.x, data.x[:, 1:, :])


def test_make_estimation_sample_balanced():
    y = np.arange(24, dtype=float).reshape(4, 6)
    data = PanelData(unit_ids=("a", "b", "c", "d"), times=np.arange(6), y=y,
                     mask=np.ones((4, 6), dtype=bool))
    est, hold = make_estimation_sample(
        data, SampleSpec(kind="balanced", n_periods=4, holdout_periods=2)
    )
    np.testing.assert_array_equal(est.times, [0, 1, 2, 3])
    np.testing.assert_array_equal(hold.times, [4, 5])
    assert est.y.shape == (4, 4)


def test_make_estimation_sample_balanced_drops_incomplete_units():
    y = np.ones((3, 5))
    mask = np.ones((3, 5), dtype=bool)
    mask[1, 2] = False
    data = PanelData(unit_ids=("a", "b", "c"), times=np.arange(5), y=y, mask=mask)
    est, _ = make_estimation_sample(
        data, SampleSpec(kind="balanced", n_periods=4, holdout_periods=1)
    )
    assert est.unit_ids == ("a", "c")


def test_make_estimation_sample_unbalanced_min_run():
    mask = np.array(
        [
            [True, True, True, True, False],
            [True, False, True, False, True],
            [False, False, True, True, True],
        ]
    )
    data = PanelData(unit_ids=("a", "b", "c"), times=np.arange(5),
                     y=np.where(mask, 1.0, np.nan), mask=mask)
    est, hold = make_estimation_sample(
        data, SampleSpec(kind="unbalanced", min_consecutive=2, holdout_periods=1)
    )
    # Within periods 0..3, unit b has no run of 2 consecutive observations.
    assert est.unit_ids == ("a", "c")
    np.testing.assert_array_equal(hold.times, [4])


def test_make_estimation_sample_empty_raises():
    data = PanelData(unit_ids=("a",), times=np.arange(3), y=np.full((1, 3), np.nan),
                     mask=np.zeros((1, 3), dtype=bool))
    with pytest.raises(EmptySampleError):
        make_estimation_sample(data, SampleSpec(kind="unbalanced", min_consecutive=2,
                                                holdout_periods=1))


def test_residualize_removes_fitted_component():
    gen = RngStream(seed=23, stream_id=0).generator
    y = gen.standard_normal((4, 5))
    data = PanelData(unit_ids=tuple("abcd"), times=np.arange(5), y=y,
                     mask=np.ones((4, 5), dtype=bool))
    # time dummies
    dummies = np.tile(np.eye(5), (4, 1))
    out = residualize(data, dummies)
    np.testing.assert_allclose(out.y.mean(axis=0), 0.0, atol=1e-12)


def test_simulate_m1_moments_and_determinism():
    theta = _theta_m1(q=0.0)
    rng = RngStream(seed=24, stream_id=0)
    data, truth = simulate_m1(theta, HyperParams.m1_defaults(), n=20000, t=8, rng=rng)
    assert np.all(data.y[:, 0] == 0.0)
    # With q = 0 every unit follows the common AR(1).
    assert not truth.z["alpha"].any() and not truth.z["rho"].any()
    mean_t1 = data.y[:, 1].mean()
    assert mean_t1 == pytest.approx(theta.alpha, abs=3 * np.sqrt(theta.sigma2 / 20000))
    long_run = theta.alpha * (1 - theta.rho**8) / (1 - theta.rho)
    assert data.y[:, 8].mean() == pytest.approx(long_run, abs=0.05)
    data2, _ = simulate_m1(theta, HyperParams.m1_defaults(), n=20000, t=8,
                           rng=RngStream(seed=24, stream_id=0))
    np.testing.assert_array_equal(data.y, data2.y)


def test_simulate_m1_spike_and_slab_truth():
    theta = _theta_m1(q=0.4, hetsk=True)
    data, truth = simulate_m1(theta, HyperParams.m1_defaults(), n=50000, t=2,
                              rng=RngStream(seed=25, stream_id=0), heteroskedastic=True)
    for label in ("alpha", "rho", "sigma"):
        assert truth.z[label].mean() == pytest.approx(0.4, abs=0.01)
    # Spike draws sit exactly at the spike value.
    assert np.all(truth.delta_alpha[truth.z["alpha"] == 0] == 0.0)
    assert np.all(truth.delta_sigma[truth.z["sigma"] == 0] == 1.0)
    active = truth.delta_rho[truth.z["rho"] == 1]
    assert active.var() == pytest.approx(0.09, rel=0.05)
    act_sigma = truth.delta_sigma[truth.z["sigma"] == 1]
    assert act_sigma.mean() == pytest.approx(1.0, abs=0.05)


def test_simulate_m2_structure():
    theta = CommonState(
        alpha=np.array([1.0, 0.3]), rho=0.6,
        q={"alpha": 1.0, "rho": 0.0, "sigma_u": 0.0, "sigma_eps": 0.0},
        v_delta_alpha=np.diag([0.24, 0.05]), v_delta_rho=0.05,
        sigma2_u=np.full(4, 0.1), sigma2_eps=np.full(4, 0.05),
        v_delta_sigma_u=1.0, v_delta_sigma_eps=1.0, mu_s0=0.3, v_s0=0.05,
    )
    data, truth = simulate_m2(theta, HyperParams.m2_defaults(), n=30000, t=4,
                              experience_profile=np.arange(1, 5)[None, :],
                              rng=RngStream(seed=26, stream_id=0))
    assert data.x.shape == (30000, 5, 2)
    np.testing.assert_allclose(data.x[:, 1, :], np.tile([1.0, 0.1], (30000, 1)))
    assert not data.mask[:, 0].any() and data.mask[:, 1:].all()
    assert truth.s.shape == (30000, 5)
    assert truth.s[:, 0].mean() == pytest.approx(0.3, abs=0.01)
    assert truth.s[:, 0].var() == pytest.approx(0.05, rel=0.05)
    assert truth.delta_alpha[:, 0].var() == pytest.approx(0.24, rel=0.05)
    # y = x'(alpha+delta) + s + noise
    fitted = data.x[:, 1, :] @ np.asarray(theta.alpha) + (data.x[:, 1, :] * truth.delta_alpha).sum(axis=1)
    resid = data.y[:, 1] - fitted - truth.s[:, 1]
    assert resid.var() == pytest.approx(0.1, rel=0.05)


def test_draw_unit_deviations_all_blocks():
    q = {"alpha": 0.3, "rho": 0.5, "sigma": 0.2, "sigma_u": 0.6, "sigma_eps": 0.4}
    theta = CommonState(
        alpha=np.zeros(2), rho=0.5, q=q, v_delta_alpha=np.diag([0.5, 0.1]), v_delta_rho=0.04,
        v_delta_sigma=0.5, v_delta_sigma_u=1.0, v_delta_sigma_eps=None,
    )
    n = 40_000
    units = draw_unit_deviations(theta, n, RngStream(seed=27, stream_id=0), blocks=tuple(q))
    for label, rate in q.items():
        assert units.z[label].mean() == pytest.approx(rate, abs=4 * np.sqrt(rate * (1 - rate) / n))
    z_a, z_r = units.z["alpha"] == 1, units.z["rho"] == 1
    assert units.delta_alpha.shape == (n, 2)
    assert np.all(units.delta_alpha[~z_a] == 0.0) and np.all(units.delta_rho[~z_r] == 0.0)
    np.testing.assert_allclose(units.delta_alpha[z_a].var(axis=0), [0.5, 0.1], rtol=0.05)
    assert units.delta_rho[z_r].var() == pytest.approx(0.04, rel=0.05)
    for label in ("sigma", "sigma_u"):
        delta, z = getattr(units, "delta_" + label), units.z[label] == 1
        assert np.all(delta[~z] == 1.0)
        # unit-mean inverse-gamma slab
        assert delta[z].mean() == pytest.approx(1.0, abs=4 * delta[z].std() / np.sqrt(z.sum()))
    # no slab variance: every unit sits at the spike
    assert np.all(units.delta_sigma_eps == 1.0)
    scalar = draw_unit_deviations(replace(theta, v_delta_alpha=0.5), 10, RngStream(seed=28),
                                  blocks=("alpha",))
    assert scalar.delta_alpha.shape == (10,) and scalar.delta_rho is None
