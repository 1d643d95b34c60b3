"""Tests for the latent-state panel model sampler."""

import numpy as np
import pytest

from m2_oracle import build_state_prior_cov, dense_state_draw
from sparsepanel.blocks import CommonState, HyperParams, UnitState
from sparsepanel.m2 import (
    ConfigurationError,
    IndividualPriors,
    M2Config,
    _state_precision_1t,
    draw_states_and_alpha_deviation,
    run_m2,
    run_m2_individual,
)
from sparsepanel.panel import simulate_m2


def m2_truth(t, q_alpha=0.5, q_rho=0.5, q_sigma=0.3):
    return CommonState(
        alpha=np.array([1.0, 0.5]),
        rho=0.7,
        q={"alpha": q_alpha, "rho": q_rho, "sigma_u": q_sigma, "sigma_eps": q_sigma},
        v_delta_alpha=np.diag([0.3, 0.05]),
        v_delta_rho=0.04,
        sigma2_u=np.full(t, 0.1),
        sigma2_eps=np.full(t, 0.05),
        v_delta_sigma_u=0.5,
        v_delta_sigma_eps=0.5,
        mu_s0=0.2,
        v_s0=0.05,
    )


def simulate_small(n=12, t=5, seed=0, **q):
    theta = m2_truth(t, **q)
    rng = np.random.default_rng(seed)
    h = np.cumsum(np.ones((n, t)), axis=1)
    data, truth = simulate_m2(theta, HyperParams.m2_defaults(), n, t, h, rng)
    return data, truth, theta


def small_config(variant="baseline", n_draws=60, burn_in=30, **kw):
    return M2Config(variant=variant, n_draws=n_draws, burn_in=burn_in, **kw)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        M2Config(variant="nope")
    with pytest.raises(ConfigurationError):
        M2Config(variant="baseline", n_draws=10, burn_in=10)
    with pytest.raises(ConfigurationError):
        M2Config(variant="baseline", n_draws=10, burn_in=2, thin=0)
    assert M2Config(variant="baseline").heteroskedastic
    assert not M2Config(variant="homosk").heteroskedastic
    assert M2Config(variant="rip").coef_heterogeneity is False
    assert M2Config(variant="hip").coef_heterogeneity is True
    assert M2Config(variant="baseline").coef_heterogeneity is None


def test_state_prior_cov_matches_simulated_paths():
    rng = np.random.default_rng(7)
    phi, v_s0, t = 0.8, 0.3, 6
    eps_vars = np.array([0.2, 0.5, 0.1, 0.4, 0.3, 0.2])
    n_paths = 200_000
    s = np.empty((n_paths, t + 1))
    s[:, 0] = np.sqrt(v_s0) * rng.standard_normal(n_paths)
    for step in range(1, t + 1):
        s[:, step] = phi * s[:, step - 1] + np.sqrt(eps_vars[step - 1]) * rng.standard_normal(n_paths)
    emp = np.cov(s, rowvar=False)
    cov = build_state_prior_cov(phi, eps_vars, v_s0)
    assert cov.shape == (t + 1, t + 1)
    np.testing.assert_allclose(cov, emp, atol=6 * np.max(np.diag(cov)) / np.sqrt(n_paths) * 3)


def test_state_precision_inverts_prior_cov():
    rng = np.random.default_rng(3)
    for phi in (0.0, 0.6, 1.0):
        eps_vars = rng.uniform(0.05, 0.5, size=5)
        v_s0 = rng.uniform(0.02, 0.3)
        cov = build_state_prior_cov(phi, eps_vars, v_s0)
        prec, logdet = _state_precision_1t(phi, eps_vars, v_s0)
        np.testing.assert_allclose(np.linalg.inv(prec), cov[1:, 1:], rtol=1e-9, atol=1e-12)
        sign, ld = np.linalg.slogdet(cov[1:, 1:])
        assert sign > 0
        np.testing.assert_allclose(logdet, ld, rtol=1e-10)


def _random_state_block(n, t, k, seed):
    """Fixed inputs for the state block: data with masked cells, parameters, noise."""
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, t, k))
    x[:, :, 0] = 1.0
    mask = gen.random((n, t)) > 0.25
    y = np.where(mask, gen.normal(size=(n, t)), 0.0)
    root = gen.normal(size=(k, k)) * 0.3
    common = CommonState(
        alpha=gen.normal(size=k), rho=0.7, q={"alpha": 0.4},
        v_delta_alpha=root @ root.T + 0.2 * np.eye(k), v_delta_rho=0.04,
        sigma2_u=gen.uniform(0.2, 0.8, t), sigma2_eps=gen.uniform(0.1, 0.5, t),
        v_delta_sigma_u=0.5, v_delta_sigma_eps=0.5, mu_s0=0.3, v_s0=0.2,
    )
    units = UnitState(
        z={}, delta_alpha=np.zeros((n, k)), delta_rho=gen.normal(0.0, 0.2, n),
        delta_sigma_u=gen.uniform(0.5, 2.0, n), delta_sigma_eps=gen.uniform(0.5, 2.0, n),
        s=np.zeros((n, t + 1)),
    )
    noise = (gen.random(n), gen.standard_normal((n, t + k)), gen.standard_normal(n))
    return (y, x, mask, common, units), noise


@pytest.mark.parametrize("variant", ["baseline", "rip", "hip"])
@pytest.mark.parametrize("n,t,k", [(12, 6, 2), (12, 6, 1), (1, 5, 2), (7, 2, 2), (1, 2, 1)])
def test_banded_state_draw_matches_dense_oracle(variant, n, t, k):
    inputs, (u, e, e0) = _random_state_block(n, t, k, seed=100 * n + 10 * t + k)
    hetero = M2Config(variant=variant).coef_heterogeneity
    slab, spike = np.zeros(n), np.full(n, np.nextafter(1.0, 0.0))
    forced = {"baseline": (1, 0), "rip": (0, 0), "hip": (1, 1)}[variant]
    for u_case, z_expected in ((u, None), (slab, forced[0]), (spike, forced[1])):
        ref = dense_state_draw(*inputs, hetero, u_case, e, e0)
        got = draw_states_and_alpha_deviation(*inputs, hetero, u_case, e, e0)
        if z_expected is not None:
            assert np.all(ref["z"] == z_expected)
        np.testing.assert_array_equal(got.z, ref["z"])
        for name in ("log_odds", "logdet_p0", "logdet_p1", "delta_alpha", "s"):
            np.testing.assert_allclose(getattr(got, name), ref[name], rtol=1e-10, atol=1e-10,
                                       err_msg=name)
        # zero noise draws the posterior means given the indicators
        mean = draw_states_and_alpha_deviation(*inputs, hetero, u_case, 0 * e, 0 * e0)
        np.testing.assert_array_equal(mean.z, ref["z"])
        np.testing.assert_allclose(mean.s[:, 1:], ref["mean_states"], rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(mean.delta_alpha, ref["mean_delta_alpha"], rtol=1e-10,
                                   atol=1e-10)


def test_reproducible_and_seed_sensitive():
    data, _, _ = simulate_small()
    cfg = small_config()
    a = run_m2(data, cfg, np.random.default_rng(11))
    b = run_m2(data, cfg, np.random.default_rng(11))
    c = run_m2(data, cfg, np.random.default_rng(12))
    np.testing.assert_array_equal(a.common["rho"], b.common["rho"])
    np.testing.assert_array_equal(a.unit["s_last"], b.unit["s_last"])
    assert not np.array_equal(a.common["rho"], c.common["rho"])


def test_rip_variant_pins_coefficients_homogeneous():
    data, _, _ = simulate_small(q_alpha=0.0, q_rho=0.0)
    chain = run_m2(data, small_config("rip"), np.random.default_rng(5))
    assert np.all(chain.unit["z_alpha"] == 0)
    assert np.all(chain.unit["z_rho"] == 0)
    assert np.all(chain.unit["delta_rho"] == 0)
    assert np.all(chain.unit["delta_alpha_0"] == 0)
    assert np.all(chain.common["q_alpha"] == 0.0)
    assert np.all(chain.common["q_rho"] == 0.0)
    # inclusion of the variance deviations is still sampled
    assert not np.all(chain.common["q_sigma_u"] == 0.0)


def test_hip_variant_activates_all_coefficients():
    data, _, _ = simulate_small(q_alpha=1.0, q_rho=1.0)
    chain = run_m2(data, small_config("hip"), np.random.default_rng(6))
    assert np.all(chain.unit["z_alpha"] == 1)
    assert np.all(chain.unit["z_rho"] == 1)
    assert np.all(chain.common["q_alpha"] == 1.0)
    assert np.any(chain.unit["delta_rho"] != 0)


def test_homosk_variant_has_unit_variance_scales():
    data, _, _ = simulate_small(q_sigma=0.0)
    chain = run_m2(data, small_config("homosk"), np.random.default_rng(8))
    assert np.all(chain.unit["delta_sigma_u"] == 1.0)
    assert np.all(chain.unit["delta_sigma_eps"] == 1.0)
    assert np.all(chain.unit["z_sigma_u"] == 0)
    assert "v_delta_sigma_u" not in chain.common


def test_fixed_common_holds_shared_parameters():
    data, _, theta = simulate_small()
    chain = run_m2(data, small_config(), np.random.default_rng(9), fixed_common=theta)
    assert np.all(chain.common["rho"] == theta.rho)
    np.testing.assert_array_equal(chain.common["alpha"], np.tile(theta.alpha, (chain.n_draws, 1)))
    np.testing.assert_array_equal(chain.common["sigma2_u"][0], theta.sigma2_u)
    assert np.all(chain.common["q_alpha"] == theta.q["alpha"])
    # unit-level quantities still move
    assert np.std(chain.unit["s_last"][:, 0]) > 0


def test_output_shapes_and_thinning():
    data, _, _ = simulate_small(n=8, t=4)
    chain = run_m2(data, small_config(n_draws=50, burn_in=20, thin=3), np.random.default_rng(1))
    assert chain.n_draws == 10
    assert chain.common["alpha"].shape == (10, 2)
    assert chain.common["sigma2_u"].shape == (10, 4)
    assert chain.common["v_delta_alpha"].shape == (10, 2, 2)
    assert chain.unit["delta_rho"].shape == (10, 8)
    for name, mean in chain.unit_means.items():
        np.testing.assert_allclose(mean, chain.unit[name].mean(axis=0), rtol=1e-12, atol=1e-12)


def test_individual_model_runs_and_rejects_short_history():
    data, _, _ = simulate_small(n=3, t=6)
    y_unit = data.y[0, 1:]
    x_unit = data.x[0, 1:, :]
    chain = run_m2_individual(y_unit, x_unit, n_draws=80, burn_in=40, rng=np.random.default_rng(2))
    assert chain.common["coef"].shape == (40, 2)
    assert chain.common["rho_i"].shape == (40,)
    assert np.all(chain.common["sigma2_u"] > 0)
    with pytest.raises(ValueError):
        run_m2_individual(y_unit[:2], x_unit[:2], n_draws=10, burn_in=5,
                          rng=np.random.default_rng(2))


def test_individual_priors_defaults():
    p = IndividualPriors()
    np.testing.assert_allclose(np.diag(p.coef_var), [0.24, 0.05])
    assert p.rho_mean == 0.8


def test_recovers_common_mean_roughly():
    # Moderate-information check: with all heterogeneity switched off the
    # posterior for the common coefficients should concentrate near truth.
    t = 10
    theta = m2_truth(t, q_alpha=0.0, q_rho=0.0, q_sigma=0.0)
    theta.sigma2_u = np.full(t, 0.02)
    theta.sigma2_eps = np.full(t, 0.2)
    rng = np.random.default_rng(21)
    n = 300
    h = np.cumsum(np.ones((n, t)), axis=1)
    data, _ = simulate_m2(theta, HyperParams.m2_defaults(), n, t, h, rng)
    chain = run_m2(data, small_config("homosk", n_draws=400, burn_in=200),
                   np.random.default_rng(22))
    assert abs(chain.common["alpha"][:, 0].mean() - 1.0) < 0.15
    assert abs(chain.common["rho"].mean() - 0.7) < 0.1
