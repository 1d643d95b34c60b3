"""Joint-distribution tests for the Gibbs samplers (Geweke 2004, JASA 99:799-804).

Two ways of sampling from the joint law of (parameters, data) must agree:
direct prior-then-likelihood simulation, and a chain that alternates one
Gibbs sweep on the parameters with re-simulation of the data. Disagreement
in the moments of any test function flags an incorrect updating block.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from sparsepanel.blocks import CommonState, HyperParams, RwmhAdaptState, UnitState
from sparsepanel.chainout import DrawRecorder
from sparsepanel.distributions import sample_inverse_wishart, sample_mv_normal
from sparsepanel.m1 import M1Config, UnitMoments, m1_sweep
from sparsepanel.m2 import M2Config, m2_sweep, panel_moments
from sparsepanel.panel import (
    M2_BLOCKS,
    draw_unit_deviations,
    simulate_m1,
    simulate_m1_given,
    simulate_m2_given,
)


def batch_means_variance(x: np.ndarray, n_batches: int = 30) -> float:
    """Variance of the sample mean of a stationary series via batch means."""
    n = x.size
    b = n // n_batches
    means = x[: b * n_batches].reshape(n_batches, b).mean(axis=1)
    return float(means.var(ddof=1) / n_batches)


def z_statistics(marginal: Dict[str, np.ndarray], successive: Dict[str, np.ndarray]) -> Dict[str, float]:
    """Standardized mean differences between the two simulators, with a
    batch-means correction for the autocorrelated chain.

    A test function that is constant under both simulators has no variance
    to standardize by, so its two values are compared exactly: z is 0 when
    they agree and +-inf when they differ, never NaN.
    """
    out = {}
    for name, mc in marginal.items():
        sc = successive[name]
        if np.ptp(mc) == 0 and np.ptp(sc) == 0:
            diff = float(sc[0] - mc[0])
            out[name] = 0.0 if diff == 0 else math.copysign(math.inf, diff)
            continue
        var = mc.var(ddof=1) / mc.size + batch_means_variance(sc)
        out[name] = float((sc.mean() - mc.mean()) / np.sqrt(var))
    return out


def _draw_m1_common(config: M1Config, gen) -> CommonState:
    """A prior draw of the common parameters; q is pinned where the variant pins it."""
    hyper = config.hyper
    heteroskedastic = config.heteroskedastic

    def draw_q() -> float:
        return float(gen.beta(hyper.a, hyper.b)) if config.pinned_q is None else config.pinned_q

    q = {"alpha": draw_q(), "rho": draw_q(), "sigma": draw_q() if heteroskedastic else 0.0}
    return CommonState(
        alpha=float(hyper.mu_alpha + np.sqrt(hyper.v_alpha) * gen.standard_normal()),
        rho=float(hyper.mu_rho + np.sqrt(hyper.v_rho) * gen.standard_normal()),
        sigma2=float(hyper.sigma2.draw(gen)),
        q=q,
        v_delta_alpha=float(hyper.v_delta_alpha.draw(gen)),
        v_delta_rho=float(hyper.v_delta_rho.draw(gen)),
        v_delta_sigma=float(hyper.v_delta_sigma.draw(gen))
        if heteroskedastic else None,
    )


def _m1_test_functions(common: CommonState, units: UnitState, config: M1Config) -> Dict[str, float]:
    g = {
        "alpha": common.alpha,
        "alpha_sq": common.alpha**2,
        "rho": common.rho,
        "rho_sq": common.rho**2,
        "sigma2": common.sigma2,
        "log_sigma2": np.log(common.sigma2),
        "q_alpha": common.q["alpha"],
        "q_rho": common.q["rho"],
        "mean_z_alpha": units.z["alpha"].mean(),
        "mean_z_rho": units.z["rho"].mean(),
        "mean_delta_alpha": units.delta_alpha.mean(),
        "mean_delta_alpha_sq": (units.delta_alpha**2).mean(),
        "mean_delta_rho_sq": (units.delta_rho**2).mean(),
        "alpha_times_rho": common.alpha * common.rho,
    }
    if config.variant != "homogeneous":  # the homogeneous sweep never updates the slab variances
        g["log_v_delta_alpha"] = np.log(common.v_delta_alpha)
        g["log_v_delta_rho"] = np.log(common.v_delta_rho)
    if config.heteroskedastic:
        g["q_sigma"] = common.q["sigma"]
        g["log_v_delta_sigma"] = np.log(common.v_delta_sigma)
        g["mean_z_sigma"] = units.z["sigma"].mean()
        g["mean_log_delta_sigma"] = np.log(units.delta_sigma).mean()
    return g


def run_geweke_m1(variant: str, n: int, t: int, n_iter: int, rng,
                  thin: int = 1) -> Dict[str, Dict[str, np.ndarray]]:
    """Collect test-function draws from both simulators for the panel model.

    The marginal simulator draws from `rng.substream(0)` and the successive
    one from `rng.substream(1)`, where `rng` is an RngStream."""
    config = M1Config(variant=variant, n_draws=2, burn_in=0)
    hyper = config.hyper
    hetsk = config.heteroskedastic
    gen_mc = rng.substream(0).generator
    gen_sc = rng.substream(1).generator

    marginal = DrawRecorder(n_iter)
    for _ in range(n_iter):
        common = _draw_m1_common(config, gen_mc)
        _, units = simulate_m1(common, hyper, n, t, gen_mc, heteroskedastic=hetsk)
        marginal.record(_m1_test_functions(common, units, config))

    successive = DrawRecorder(n_iter * thin, thin=thin)
    common = _draw_m1_common(config, gen_sc)
    _, units = simulate_m1(common, hyper, n, t, gen_sc, heteroskedastic=hetsk)
    adapt = RwmhAdaptState()
    y0 = np.zeros(n)
    for j in range(successive.n_draws):
        y = simulate_m1_given(common, units, t, gen_sc)
        m1_sweep(config, UnitMoments(y0, y[:, 1:]), common, units, adapt, gen_sc, adapt_enabled=False)
        if successive.keeps(j):
            successive.record(_m1_test_functions(common, units, config))

    return {"marginal": marginal.common, "successive": successive.common}


def _draw_m2_common(hyper: HyperParams, k: int, t: int, config, gen) -> CommonState:
    hetero = config.coef_heterogeneity
    q_coef = {None: None, False: 0.0, True: 1.0}[hetero]
    q = {
        "alpha": float(gen.beta(hyper.a, hyper.b)) if q_coef is None else q_coef,
        "rho": float(gen.beta(hyper.a, hyper.b)) if q_coef is None else q_coef,
        "sigma_u": float(gen.beta(hyper.a, hyper.b)) if config.heteroskedastic else 0.0,
        "sigma_eps": float(gen.beta(hyper.a, hyper.b)) if config.heteroskedastic else 0.0,
    }
    prior_cov = np.atleast_2d(np.asarray(hyper.v_alpha, dtype=float))
    mu = np.broadcast_to(np.asarray(hyper.mu_alpha, dtype=float), (k,))
    iw = hyper.v_delta_alpha_iw
    return CommonState(
        alpha=sample_mv_normal(mu, prior_cov, gen),
        rho=float(hyper.mu_rho + np.sqrt(hyper.v_rho) * gen.standard_normal()),
        q=q,
        v_delta_alpha=sample_inverse_wishart(iw.dof, iw.scale, gen),
        v_delta_rho=float(hyper.v_delta_rho.draw(gen)),
        sigma2_u=hyper.sigma2_u.draw(gen, size=t),
        sigma2_eps=hyper.sigma2_eps.draw(gen, size=t),
        v_delta_sigma_u=float(hyper.v_delta_sigma_u.draw(gen))
        if config.heteroskedastic else None,
        v_delta_sigma_eps=float(hyper.v_delta_sigma_eps.draw(gen))
        if config.heteroskedastic else None,
        mu_s0=float(hyper.mu_s0_mean + np.sqrt(hyper.mu_s0_var) * gen.standard_normal()),
        v_s0=float(hyper.v_s0.draw(gen)),
    )


def _m2_test_functions(common: CommonState, units: UnitState, config) -> Dict[str, float]:
    g = {
        "rho": common.rho,
        "rho_sq": common.rho**2,
        "mu_s0": common.mu_s0,
        "log_v_s0": np.log(common.v_s0),
        "log_v_delta_rho": np.log(common.v_delta_rho),
        "mean_z_rho": units.z["rho"].mean(),
        "mean_delta_rho_sq": (units.delta_rho**2).mean(),
        "mean_s0": units.s[:, 0].mean(),
        "mean_s_last": units.s[:, -1].mean(),
        "mean_s_sq": (units.s**2).mean(),
        "mean_log_sigma2_u": np.log(common.sigma2_u).mean(),
        "mean_log_sigma2_eps": np.log(common.sigma2_eps).mean(),
    }
    for j, a in enumerate(np.atleast_1d(common.alpha)):
        g[f"alpha_{j}"] = a
        g[f"alpha_{j}_sq"] = a**2
    vda = np.atleast_2d(common.v_delta_alpha)
    for j in range(vda.shape[0]):
        g[f"log_v_delta_alpha_{j}{j}"] = np.log(vda[j, j])
    g["mean_z_alpha"] = units.z["alpha"].mean()
    g["mean_delta_alpha_sq"] = (units.delta_alpha**2).mean()
    if config.coef_heterogeneity is None:
        g["q_alpha"] = common.q["alpha"]
        g["q_rho"] = common.q["rho"]
    if config.heteroskedastic:
        g["q_sigma_u"] = common.q["sigma_u"]
        g["q_sigma_eps"] = common.q["sigma_eps"]
        g["log_v_delta_sigma_u"] = np.log(common.v_delta_sigma_u)
        g["log_v_delta_sigma_eps"] = np.log(common.v_delta_sigma_eps)
        g["mean_z_sigma_u"] = units.z["sigma_u"].mean()
        g["mean_z_sigma_eps"] = units.z["sigma_eps"].mean()
        g["mean_log_delta_sigma_u"] = np.log(units.delta_sigma_u).mean()
        g["mean_log_delta_sigma_eps"] = np.log(units.delta_sigma_eps).mean()
    return g


def run_geweke_m2(variant: str, n: int, t: int, k: int, n_iter: int, rng,
                  thin: int = 1) -> Dict[str, Dict[str, np.ndarray]]:
    """Collect test-function draws from both simulators for the state-space model,
    with the same streams as `run_geweke_m1`."""
    config = M2Config(variant=variant, n_draws=2, burn_in=0, hyper=HyperParams.m2_defaults(k=k))
    hyper = config.hyper
    gen_mc = rng.substream(0).generator
    gen_sc = rng.substream(1).generator
    x = np.ones((n, t, k))
    if k > 1:
        x[:, :, 1] = np.arange(1, t + 1)[None, :] / 10.0
    mask = np.ones((n, t), dtype=bool)

    marginal = DrawRecorder(n_iter)
    for _ in range(n_iter):
        common = _draw_m2_common(hyper, k, t, config, gen_mc)
        units = draw_unit_deviations(common, n, gen_mc, blocks=M2_BLOCKS)
        units.s, _ = simulate_m2_given(common, units, x, gen_mc)
        marginal.record(_m2_test_functions(common, units, config))

    successive = DrawRecorder(n_iter * thin, thin=thin)
    common = _draw_m2_common(hyper, k, t, config, gen_sc)
    units = draw_unit_deviations(common, n, gen_sc, blocks=M2_BLOCKS)
    adapts = {"sigma_u": RwmhAdaptState(), "sigma_eps": RwmhAdaptState()}
    moments = panel_moments(mask, x)  # the data change, the mask and regressors do not
    for j in range(successive.n_draws):
        # refresh the states with the data, so the chain visits the full
        # joint law of (parameters, states, outcomes)
        units.s, y = simulate_m2_given(common, units, x, gen_sc)
        m2_sweep(y, x, moments, common, units, config, adapts, gen_sc, adapt_enabled=False)
        if successive.keeps(j):
            successive.record(_m2_test_functions(common, units, config))

    return {"marginal": marginal.common, "successive": successive.common}
