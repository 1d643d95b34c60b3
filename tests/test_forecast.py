"""Tests for predictive simulation, scoring, and the variance decomposition."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm

from sparsepanel.blocks import CommonState, HyperParams
from sparsepanel.forecast import (
    PredictiveDraws,
    core_units_from_chain,
    inequality_decomposition,
    interval_width_ratios,
    predict,
    score,
    write_decomposition,
    write_fan_chart,
    write_scores,
)
from sparsepanel.m2 import M2Config, run_m2, run_m2_individual
from sparsepanel.panel import simulate_m2


def m2_truth(t, q_alpha=0.5, q_sigma=0.3):
    return CommonState(
        alpha=np.array([1.0, 0.5]),
        rho=0.7,
        q={"alpha": q_alpha, "rho": 0.5, "sigma_u": q_sigma, "sigma_eps": q_sigma},
        v_delta_alpha=np.diag([0.3, 0.05]),
        v_delta_rho=0.04,
        sigma2_u=np.full(t, 0.1),
        sigma2_eps=np.full(t, 0.05),
        v_delta_sigma_u=0.5,
        v_delta_sigma_eps=0.5,
        mu_s0=0.2,
        v_s0=0.05,
    )


def make_fit(n=15, t=6, seed=0, n_draws=120, burn_in=60):
    theta = m2_truth(t)
    rng = np.random.default_rng(seed)
    h = np.cumsum(np.ones((n, t)), axis=1)
    data, truth = simulate_m2(theta, HyperParams.m2_defaults(), n, t, h, rng)
    chain = run_m2(data, M2Config(variant="baseline", n_draws=n_draws, burn_in=burn_in),
                   np.random.default_rng(seed + 1))
    return data, truth, chain


def test_predict_shapes_and_horizon_validation():
    data, _, chain = make_fit()
    pred = predict(chain, data, [1, 3], "full_info_param_unc", np.random.default_rng(0))
    assert pred.draws.shape == (chain.n_draws, 15, 2)
    assert pred.horizons == (1, 3)
    assert np.all(np.isfinite(pred.draws))
    assert np.all(pred.h1_vars > 0)
    with pytest.raises(ValueError):
        predict(chain, data, [0], "full_info_param_unc", np.random.default_rng(0))
    with pytest.raises(ValueError):
        predict(chain, data, [1], "nope", np.random.default_rng(0))
    with pytest.raises(ValueError, match="distinct"):
        predict(chain, data, [1, 1], "full_info_param_unc", np.random.default_rng(0))


def test_gapped_horizons_simulate_every_step():
    # horizons 1 and 3 come from the same simulated paths as horizons 1, 2, 3,
    # and horizon one's conditional moments do not depend on the set
    data, _, chain = make_fit(n=6)
    full = predict(chain, data, [1, 2, 3], "full_info_param_unc", np.random.default_rng(5))
    gapped = predict(chain, data, [3, 1], "full_info_param_unc", np.random.default_rng(5))
    later = predict(chain, data, [2], "full_info_param_unc", np.random.default_rng(5))
    assert gapped.horizons == (1, 3)
    np.testing.assert_array_equal(gapped.draws, full.draws[:, :, [0, 2]])
    np.testing.assert_array_equal(later.draws, full.draws[:, :, [1]])
    for pred in (gapped, later):
        np.testing.assert_array_equal(pred.h1_means, full.h1_means)
        np.testing.assert_array_equal(pred.h1_vars, full.h1_vars)


def test_missing_unit_draws_raise():
    data, _, _ = make_fit(n=5)
    chain = run_m2(data, M2Config(variant="baseline", n_draws=40, burn_in=20), np.random.default_rng(3))
    chain = replace(chain, unit={})
    with pytest.raises(ValueError, match="unit draws"):
        predict(chain, data, [1], "full_info_param_unc", np.random.default_rng(0))


def test_no_param_unc_variance_smaller():
    # Law of total variance: marginalizing over the posterior can only add
    # predictive variance relative to fixing parameters at their means.
    data, _, chain = make_fit(n=12, t=6, n_draws=400, burn_in=100)
    rng = np.random.default_rng(7)
    full = predict(chain, data, [1], "full_info_param_unc", rng)
    fixed = predict(chain, data, [1], "full_info_no_param_unc", rng)
    var_full = full.draws[:, :, 0].var(axis=0)
    var_fixed = fixed.draws[:, :, 0].var(axis=0)
    # compare exact conditional variances plus mean dispersion, not MC noise
    rb_full = full.h1_vars.mean(axis=0) + full.h1_means.var(axis=0)
    rb_fixed = fixed.h1_vars[0]
    assert np.all(rb_fixed <= rb_full + 1e-12)
    assert var_fixed.mean() < var_full.mean() * 1.05


def test_zero_shock_variances_collapse_to_deterministic_path():
    data, _, chain = make_fit(n=6, n_draws=60, burn_in=30)
    for name in ("sigma2_u", "sigma2_eps"):
        chain.common[name] = np.zeros_like(chain.common[name])
    for name in ("delta_sigma_u", "delta_sigma_eps"):
        chain.unit[name] = np.ones_like(chain.unit[name])
    fixed = dict(chain.common)
    # freeze every parameter draw at its first value so the path is unique
    for name in chain.common:
        chain.common[name] = np.repeat(chain.common[name][:1], chain.n_draws, axis=0)
    for name in chain.unit:
        chain.unit[name] = np.repeat(chain.unit[name][:1], chain.n_draws, axis=0)
    pred = predict(chain, data, [1, 2], "full_info_param_unc", np.random.default_rng(1))
    assert np.all(pred.draws.std(axis=0) < 1e-12)
    lo, hi = pred.interval(1, 0.90)
    np.testing.assert_allclose(hi - lo, 0.0, atol=1e-12)


def test_score_values_and_perfect_forecast():
    n = 4
    draws = np.zeros((200, n, 1))
    h1_means = np.zeros((200, n))
    h1_vars = np.ones((200, n))
    pred = PredictiveDraws(draws, h1_means, h1_vars, "full_info_param_unc", (1,),
                           tuple(f"u{i}" for i in range(n)))
    report = score(pred, np.zeros(n))
    assert report.mse == 0.0
    np.testing.assert_allclose(report.per_unit_lps, -0.9189385332046727, rtol=1e-12)
    np.testing.assert_allclose(report.lps, -0.9189385332046727, rtol=1e-12)


def test_score_zero_density_reports_units():
    draws = np.zeros((50, 2, 1))
    pred = PredictiveDraws(draws, np.zeros((50, 2)), np.zeros((50, 2)),
                           "full_info_param_unc", (1,), ("a", "b"))
    report = score(pred, np.array([0.0, 1.0]))
    assert report.lps == float("-inf")
    assert report.zero_density_units == ["b"]
    assert np.isneginf(report.per_unit_lps[1])


def test_score_matches_scipy_logsumexp_on_infinite_columns():
    # columns: finite densities; one zero-variance draw at the realization
    # (+inf); every draw at zero variance away from it (all -inf)
    rng = np.random.default_rng(4)
    n_draws = 60
    realized = np.array([0.3, -1.2, 2.0])
    m = rng.normal(0.0, 1.0, size=(n_draws, 3))
    v = rng.uniform(0.5, 2.0, size=(n_draws, 3))
    m[7, 1], v[7, 1] = realized[1], 0.0
    m[:, 2], v[:, 2] = realized[2] + 1.0, 0.0
    pred = PredictiveDraws(m[:, :, None], m, v, "full_info_param_unc", (1,), ("a", "b", "c"))
    report = score(pred, realized)

    logpdf = np.full((n_draws, 3), -np.inf)
    pos = v > 0
    logpdf[pos] = norm.logpdf(np.broadcast_to(realized, m.shape)[pos], m[pos], np.sqrt(v[pos]))
    logpdf[7, 1] = np.inf
    ref = logsumexp(logpdf, axis=0) - np.log(n_draws)
    assert ref[1] == np.inf and ref[2] == -np.inf
    np.testing.assert_array_equal(report.per_unit_lps[1:], ref[1:])
    assert report.per_unit_lps[0] == pytest.approx(ref[0], rel=1e-14)
    assert report.zero_density_units == ["c"]


def test_score_deltas():
    pred = PredictiveDraws(np.zeros((10, 2, 1)), np.zeros((10, 2)), np.ones((10, 2)),
                           "full_info_param_unc", (1,), ("a", "b"))
    base = score(pred, np.array([1.0, 1.0]))
    alt = score(pred, np.array([2.0, 2.0]))
    assert alt.mse_delta_vs(base) == pytest.approx(100.0 * (4.0 - 1.0) / 1.0)
    assert alt.lps_delta_vs(base) < 0


def test_lps_stable_under_doubling():
    rng = np.random.default_rng(11)
    n = 30
    m = rng.normal(0.0, 0.3, size=(4000, n))
    v = rng.uniform(0.5, 1.5, size=(4000, n))
    y = rng.normal(0.0, 1.0, size=n)

    def lps_with(d):
        pred = PredictiveDraws(m[:d, :, None], m[:d], v[:d], "full_info_param_unc", (1,),
                               tuple(f"u{i}" for i in range(n)))
        return score(pred, y).lps

    assert abs(lps_with(4000) - lps_with(2000)) < 0.005


def test_interval_width_ratios_identity_and_exclusion():
    rng = np.random.default_rng(5)
    draws = rng.normal(size=(500, 3, 1))
    pred = PredictiveDraws(draws, draws[:, :, 0], np.ones((500, 3)),
                           "full_info_param_unc", (1,), ("a", "b", "c"))
    rep = interval_width_ratios(pred, pred)
    np.testing.assert_allclose(rep.ratios, 1.0)
    assert rep.excluded_units == []
    assert rep.overall_mean == pytest.approx(1.0)
    degenerate = PredictiveDraws(np.zeros((500, 3, 1)), np.zeros((500, 3)),
                                 np.zeros((500, 3)), "full_info_param_unc", (1,),
                                 ("a", "b", "c"))
    rep = interval_width_ratios(pred, degenerate)
    assert rep.excluded_units == ["a", "b", "c"]
    assert np.isnan(rep.overall_mean)


def test_individual_scenario_widens_intervals():
    data, _, chain = make_fit(n=8, t=6, n_draws=300, burn_in=100)
    rng = np.random.default_rng(9)
    full = predict(chain, data, [1], "full_info_param_unc", rng)
    singles = run_m2_individual(data, n_draws=400, burn_in=200,
                                rng=np.random.default_rng(100))
    indiv = predict(singles, data, [1], "individual_info", rng)
    w_full = np.subtract(*reversed(full.interval(1)))
    w_indiv = np.subtract(*reversed(indiv.interval(1)))
    assert (w_indiv / w_full).mean() > 1.0
    core = core_units_from_chain(chain)
    rep = interval_width_ratios(indiv, full, core_mask=core)
    assert rep.overall_mean > 1.0


def test_decomposition_coupling_invariants():
    t = 12
    theta = m2_truth(t, q_alpha=0.0, q_sigma=0.0)
    res = inequality_decomposition(theta, n=2000, t=t, rng=np.random.default_rng(0))
    # no intercept heterogeneity in truth: the counterfactual is identical
    np.testing.assert_array_equal(res.alpha_share, 0.0)
    assert np.all(res.v_baseline > 0)
    assert np.all(res.alpha_share <= 1.0)
    assert np.all(res.transitory_share <= 1.0)

    theta = m2_truth(t, q_alpha=0.0, q_sigma=0.0)
    theta.sigma2_u = np.zeros(t)
    res = inequality_decomposition(theta, n=2000, t=t, rng=np.random.default_rng(1))
    np.testing.assert_array_equal(res.transitory_share, 0.0)

    theta.sigma2_eps = np.zeros(t)
    theta.v_s0 = 0.0
    theta.q["rho"] = 0.0
    res = inequality_decomposition(theta, n=2000, t=t, rng=np.random.default_rng(2))
    np.testing.assert_allclose(res.v_no_alpha_dev, 0.0, atol=1e-28)


def test_decomposition_alpha_share_declines_with_persistence():
    t = 20
    theta = m2_truth(t, q_alpha=0.6, q_sigma=0.0)
    theta.rho = 0.98
    theta.q["rho"] = 0.0
    res = inequality_decomposition(theta, n=20000, t=t, rng=np.random.default_rng(3))
    share = res.alpha_share
    assert share[2] > share[-1]
    late = share[8:]
    assert np.all(np.diff(late) < 0.02)


def test_csv_writers(tmp_path):
    data, _, chain = make_fit(n=5, n_draws=60, burn_in=30)
    pred = predict(chain, data, [1, 2], "full_info_param_unc", np.random.default_rng(2))
    write_fan_chart(pred, tmp_path / "fan.csv")
    lines = (tmp_path / "fan.csv").read_text().splitlines()
    assert lines[0] == "unit,horizon,quantile,value"
    assert len(lines) == 1 + 5 * 2 * 5
    rep = score(pred, data.y[:, -1])
    write_scores({"full_info_param_unc": rep}, tmp_path / "scores.csv")
    assert "full_info_param_unc" in (tmp_path / "scores.csv").read_text()
    theta = m2_truth(6)
    res = inequality_decomposition(theta, n=500, t=6, rng=np.random.default_rng(4))
    write_decomposition(res, tmp_path / "decomp.csv")
    assert len((tmp_path / "decomp.csv").read_text().splitlines()) == 7
