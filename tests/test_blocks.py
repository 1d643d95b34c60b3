"""Tests for the Gibbs updating blocks against independent oracles:
closed-form conjugate posteriors, numerical quadrature, and
Kolmogorov-Smirnov comparisons of sampled draws."""

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import gammaln

from sparsepanel.blocks import (
    HyperParams,
    RwmhAdaptState,
    log_posterior_slab_variance,
    update_common_regression,
    update_indicator_and_deviation_ig,
    update_indicator_and_deviation_normal,
    update_q,
    update_v_delta_normal,
    update_v_delta_sigma_rwmh,
)
from sparsepanel.distributions import InverseGammaSpec
from sparsepanel.rng import RngStream


def test_common_regression_posterior_moments():
    gen = RngStream(seed=11, stream_id=0).generator
    x = np.column_stack([np.ones(40), gen.standard_normal(40)])
    beta_true = np.array([1.0, 0.5])
    y = x @ beta_true + 0.3 * gen.standard_normal(40)
    prior_mean = np.zeros(2)
    prior_cov = np.diag([1.0, 0.25])
    w = 1.0 / 0.09
    xtx = w * x.T @ x
    xty = w * x.T @ y
    _, post_mean, post_cov = update_common_regression(prior_mean, prior_cov, xtx, xty, gen)
    expected_cov = np.linalg.inv(np.linalg.inv(prior_cov) + xtx)
    expected_mean = expected_cov @ (np.linalg.inv(prior_cov) @ prior_mean + xty)
    np.testing.assert_allclose(post_cov, expected_cov, rtol=1e-10)
    np.testing.assert_allclose(post_mean, expected_mean, rtol=1e-10)
    draws = np.array(
        [update_common_regression(prior_mean, prior_cov, xtx, xty, gen)[0] for _ in range(40000)]
    )
    for j in range(2):
        ks = stats.kstest(draws[:, j], "norm", args=(expected_mean[j], np.sqrt(expected_cov[j, j])))
        assert ks.statistic < 0.02


def test_update_q_is_beta_posterior():
    gen = RngStream(seed=12, stream_id=0).generator
    z = np.array([1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0])
    a, b = 1.0, 1.0
    draws = np.array([update_q(z, a, b, gen) for _ in range(40000)])
    ks = stats.kstest(draws, "beta", args=(a + z.sum(), b + z.size - z.sum()))
    assert ks.statistic < 0.02


def test_update_v_delta_is_inverse_gamma_posterior():
    gen = RngStream(seed=13, stream_id=0).generator
    z = np.array([1, 0, 1, 1, 0])
    deltas = np.array([0.4, 99.0, -0.2, 0.9, 99.0])  # spike entries must be ignored
    spec = InverseGammaSpec(6.0, 2.0)
    draws = np.array([update_v_delta_normal(z, deltas, spec, gen) for _ in range(40000)])
    nu_post = spec.nu + 3
    tau_post = spec.tau + 0.4**2 + 0.2**2 + 0.9**2
    ks = stats.kstest(draws, "invgamma", args=(nu_post / 2, 0, tau_post / 2))
    assert ks.statistic < 0.02


def test_indicator_and_deviation_normal_against_closed_form():
    gen = RngStream(seed=14, stream_id=0).generator
    q, v = 0.35, 0.6
    precision = np.array([4.0, 0.5])
    score = np.array([3.0, -0.4])
    n_rep = 60000
    z_draws = np.empty((n_rep, 2))
    d_draws = np.empty((n_rep, 2))
    for r in range(n_rep):
        z_draws[r], d_draws[r] = update_indicator_and_deviation_normal(q, v, precision, score, gen)
    v_bar = 1.0 / (1.0 / v + precision)
    d_bar = v_bar * score
    k = (q / (1 - q)) * np.sqrt(v_bar / v) * np.exp(d_bar**2 / (2 * v_bar))
    p_slab = k / (1 + k)
    np.testing.assert_allclose(z_draws.mean(axis=0), p_slab, atol=0.01)
    for j in range(2):
        active = d_draws[z_draws[:, j] == 1, j]
        ks = stats.kstest(active, "norm", args=(d_bar[j], np.sqrt(v_bar[j])))
        assert ks.statistic < 0.02
        assert np.all(d_draws[z_draws[:, j] == 0, j] == 0.0)


def test_indicator_and_deviation_ig_against_closed_form():
    gen = RngStream(seed=15, stream_id=0).generator
    q, v = 0.4, 0.8
    ssr = np.array([6.0])
    t = np.array([8])
    nu0, tau0 = 2.0 / v + 4.0, 2.0 / v + 2.0
    nu_bar, tau_bar = nu0 + t[0], tau0 + ssr[0]
    log_k = (
        np.log(q / (1 - q))
        + gammaln(nu_bar / 2) - gammaln(nu0 / 2)
        + (nu0 / 2) * np.log(tau0 / 2) - (nu_bar / 2) * np.log(tau_bar / 2)
        + ssr[0] / 2
    )
    p_slab = 1.0 / (1.0 + np.exp(-log_k))
    n_rep = 60000
    z_draws = np.empty(n_rep)
    d_draws = np.empty(n_rep)
    for r in range(n_rep):
        z, d = update_indicator_and_deviation_ig(q, v, ssr, t, gen)
        z_draws[r], d_draws[r] = z[0], d[0]
    assert z_draws.mean() == pytest.approx(p_slab, abs=0.01)
    active = d_draws[z_draws == 1]
    ks = stats.kstest(active, "invgamma", args=(nu_bar / 2, 0, tau_bar / 2))
    assert ks.statistic < 0.02
    assert np.all(d_draws[z_draws == 0] == 1.0)


def test_slab_variance_log_posterior_matches_direct_formula():
    prior = InverseGammaSpec(12.0, 10.0)
    deltas = np.array([0.7, 1.8, 1.1])
    for omega in (0.2, 1.0, 3.5):
        shape = 1.0 / omega + 2.0
        scale = 1.0 / omega + 1.0
        direct = 0.0
        for d in deltas:
            direct += shape * np.log(scale) - gammaln(shape) - (shape + 1) * np.log(d) - scale / d
        direct += -(prior.nu / 2 + 1) * np.log(omega) - prior.tau / (2 * omega)
        got = log_posterior_slab_variance(omega, deltas.size, np.sum(np.log(deltas) + 1.0 / deltas), prior)
        # The implementation may drop delta-only terms that do not involve omega.
        # Compare differences across omega values instead of levels.
        if omega == 0.2:
            offset = direct - got
        else:
            assert direct - got == pytest.approx(offset, abs=1e-9)


def test_rwmh_targets_quadrature_distribution():
    prior = InverseGammaSpec(12.0, 10.0)
    # the last unit sits at the spike: its deviation must not enter the posterior
    deltas = np.array([0.7, 1.8, 1.1, 0.5, 50.0])
    active = np.array([1, 1, 1, 1, 0])
    gen = RngStream(seed=16, stream_id=0).generator
    adapt = RwmhAdaptState()
    omega = 1.0
    n_keep = 40000
    draws = np.empty(n_keep)
    for j in range(5000):
        omega, adapt = update_v_delta_sigma_rwmh(omega, active, deltas, prior, adapt, gen)
    for j in range(n_keep):
        omega, adapt = update_v_delta_sigma_rwmh(omega, active, deltas, prior, adapt, gen, adapt_enabled=False)
        draws[j] = omega

    log_post = lambda w: log_posterior_slab_variance(w, 4, np.sum(np.log(deltas[:4]) + 1.0 / deltas[:4]), prior)
    grid_norm = quad(lambda w: np.exp(log_post(w)), 1e-8, 60, limit=300)[0]

    def cdf(w):
        return quad(lambda t: np.exp(log_post(t)), 1e-8, w, limit=300)[0] / grid_norm

    for p in (0.1, 0.25, 0.5, 0.75, 0.9):
        target = np.quantile(draws, p)
        assert cdf(target) == pytest.approx(p, abs=0.02)
    assert 0.3 < adapt.acceptance_rate < 0.6


def test_rwmh_adaptation_reaches_target_acceptance():
    prior = InverseGammaSpec(12.0, 10.0)
    deltas = np.array([0.9, 1.4])
    active = np.ones(deltas.size, dtype=np.int64)
    gen = RngStream(seed=17, stream_id=0).generator
    adapt = RwmhAdaptState()
    omega = 1.0
    for _ in range(20000):
        omega, adapt = update_v_delta_sigma_rwmh(omega, active, deltas, prior, adapt, gen)
    assert adapt.acceptance_rate == pytest.approx(0.44, abs=0.05)


def test_hyperparams_defaults():
    m1 = HyperParams.m1_defaults()
    assert m1.v_alpha == 1.0 and m1.v_rho == 0.25
    assert (m1.sigma2.nu, m1.sigma2.tau) == (12.0, 10.0)
    assert (m1.v_delta_alpha.nu, m1.v_delta_alpha.tau) == (6.0, 4.0)
    assert (m1.v_delta_rho.nu, m1.v_delta_rho.tau) == (6.0, 2.0)
    assert (m1.v_delta_sigma.nu, m1.v_delta_sigma.tau) == (12.0, 10.0)
    assert (m1.a, m1.b) == (1.0, 1.0)
    m2 = HyperParams.m2_defaults()
    assert m2.mu_rho == 0.8 and m2.v_rho == 1.0
    assert (m2.v_s0.nu, m2.v_s0.tau) == (6.0, 0.2)
    assert m2.mu_s0_var == 0.05
    assert (m2.v_delta_rho.nu, m2.v_delta_rho.tau) == (16.5, 3.625)
    np.testing.assert_allclose(np.diag(m2.v_delta_alpha_iw.scale), [0.5, 0.1])
