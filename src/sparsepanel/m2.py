"""Gibbs sampler for the panel state-space model.

y_it = x_it'(alpha + delta_alpha_i) + s_it + sigma_{u,t} sqrt(delta_sigma_u_i) u_it
s_it = (rho + delta_rho_i) s_{i,t-1} + sigma_{eps,t} sqrt(delta_sigma_eps_i) eps_it
s_i0 ~ N(mu_s0, v_s0)

Per-unit deviations carry spike-and-slab priors; the measurement and state
noise variances are period-specific. Variants: "baseline", "homosk" (no
variance discrepancies), "rip" (no coefficient heterogeneity), "hip" (every
unit's coefficients deviate).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, NamedTuple, Optional

import numpy as np
from scipy import special

from sparsepanel.blocks import (
    CommonState,
    HyperParams,
    RwmhAdaptState,
    UnitState,
    _log_odds_prior,
    update_common_regression,
    update_indicator_and_deviation_ig,
    update_indicator_and_deviation_normal,
    update_q,
    update_v_delta_alpha_iw,
    update_v_delta_normal,
    update_v_delta_sigma_rwmh,
)
from sparsepanel.chainout import ChainOutput
from sparsepanel.distributions import InverseGammaSpec, sample_inverse_gamma
from sparsepanel.m1 import ConfigurationError
from sparsepanel.panel import PanelData
from sparsepanel.rng import as_generator

VARIANTS = ("baseline", "homosk", "rip", "hip")


def _state_precision_1t(phi: float, eps_vars: np.ndarray, v_s0: float):
    """Tridiagonal precision and log-determinant of the prior covariance of
    (s_1, ..., s_T) with s_0 integrated out.

    Marginally s_1 has variance phi^2 v_s0 + eps_vars[0] and the rest of the
    chain is Markov, so the precision stays tridiagonal.
    """
    t_len = eps_vars.size
    w = eps_vars.copy()
    w[0] = phi**2 * v_s0 + eps_vars[0]
    prec = np.zeros((t_len, t_len))
    for t in range(t_len):
        prec[t, t] = 1.0 / w[t]
        if t + 1 < t_len:
            prec[t, t] += phi**2 / w[t + 1]
            prec[t, t + 1] = prec[t + 1, t] = -phi / w[t + 1]
    log_det_cov = float(np.sum(np.log(w)))
    return prec, log_det_cov


@dataclass
class M2Config:
    variant: str = "baseline"
    n_draws: int = 5000
    burn_in: int = 2500
    thin: int = 1
    hyper: HyperParams = field(default_factory=HyperParams.m2_defaults)
    store_unit_draws: bool = True
    adapt_after_burnin: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if not 0 <= self.burn_in < self.n_draws:
            raise ConfigurationError("burn_in must satisfy 0 <= burn_in < n_draws")
        if self.thin < 1:
            raise ConfigurationError("thin must be >= 1")
        for name in ("sigma2_u", "sigma2_eps", "v_delta_alpha_iw", "v_s0"):
            if getattr(self.hyper, name) is None:
                raise ConfigurationError(f"hyper must carry a {name} prior")

    @property
    def heteroskedastic(self) -> bool:
        return self.variant != "homosk"

    @property
    def coef_heterogeneity(self) -> Optional[bool]:
        """None: spike-and-slab; False: units forced common; True: all deviate."""
        return {"rip": False, "hip": True}.get(self.variant)


def init_m2_state(n: int, t: int, k: int, config: M2Config):
    hyper = config.hyper
    q_coef = {None: hyper.a / (hyper.a + hyper.b), False: 0.0, True: 1.0}[config.coef_heterogeneity]
    q_sig = hyper.a / (hyper.a + hyper.b) if config.heteroskedastic else 0.0
    common = CommonState(
        alpha=np.broadcast_to(np.asarray(hyper.mu_alpha, dtype=float), (k,)).copy(),
        rho=float(hyper.mu_rho),
        q={"alpha": q_coef, "rho": q_coef, "sigma_u": q_sig, "sigma_eps": q_sig},
        v_delta_alpha=hyper.v_delta_alpha_iw.mean,
        v_delta_rho=hyper.v_delta_rho.mean,
        sigma2_u=np.full(t, hyper.sigma2_u.mean),
        sigma2_eps=np.full(t, hyper.sigma2_eps.mean),
        v_delta_sigma_u=hyper.v_delta_sigma_u.mean if config.heteroskedastic else None,
        v_delta_sigma_eps=hyper.v_delta_sigma_eps.mean if config.heteroskedastic else None,
        mu_s0=float(hyper.mu_s0_mean),
        v_s0=hyper.v_s0.mean,
    )
    z_coef = 1 if config.coef_heterogeneity else 0
    units = UnitState(
        z={
            "alpha": np.full(n, z_coef, dtype=np.int64),
            "rho": np.full(n, z_coef, dtype=np.int64),
            "sigma_u": np.zeros(n, dtype=np.int64),
            "sigma_eps": np.zeros(n, dtype=np.int64),
        },
        delta_alpha=np.zeros((n, k)),
        delta_rho=np.zeros(n),
        delta_sigma_u=np.ones(n),
        delta_sigma_eps=np.ones(n),
        s=np.zeros((n, t + 1)),
    )
    return common, units


class StateDraw(NamedTuple):
    """One draw of the state block, as arrays over units."""

    log_odds: np.ndarray     # (N,) posterior log-odds of the slab for delta_alpha
    logdet_p0: np.ndarray    # (N,) log det of the states-only posterior precision
    logdet_p1: np.ndarray    # (N,) log det of the joint (states, delta_alpha) precision
    z: np.ndarray            # (N,) alpha indicators
    delta_alpha: np.ndarray  # (N, k)
    s: np.ndarray            # (N, T+1), s_0 first


def draw_states_and_alpha_deviation(y, x, mask, common, units, hetero, u, e, e0) -> StateDraw:
    """Joint draw of (z_alpha, s_1..s_T, delta_alpha), then s_0, for all units.

    Per unit the variables are ordered states first, so the posterior
    precision is P1 = [[P0, DX], [X'D, V_alpha^-1 + X'DX]] with P0 the
    tridiagonal prior precision of the states plus diag(D). Its Cholesky
    factor is [[L0, 0], [C', Ls]]: L0 is lower bidiagonal (one forward pass
    over T, vectorised over units) and Ls factors the k x k Schur complement
    S = V_alpha^-1 + X'DX - C'C, so log det P1 = log det P0 + log det S.
    The prior mean phi^t mu_s0 enters only through s_1, and its quadratic is
    the same under both indicator values, so it drops from the odds.
    `u` (N,), `e` (N, T+k) and `e0` (N,) are the uniform and standard
    normal noise the draw consumes; `e[:, :T]` drives the states.
    """
    n, t_len, k = x.shape
    q = {None: common.q["alpha"], False: 0.0, True: 1.0}[hetero]
    v_alpha = np.atleast_2d(common.v_delta_alpha)
    phi = common.rho + units.delta_rho
    w = common.sigma2_eps[None, :] * units.delta_sigma_eps[:, None]
    w[:, 0] += phi**2 * common.v_s0  # s_0 integrated out
    d = np.where(mask, 1.0 / (common.sigma2_u[None, :] * units.delta_sigma_u[:, None]), 0.0)
    y_check = np.where(mask, y - x @ common.alpha, 0.0)
    xd = x * d[:, :, None]
    diag = 1.0 / w + d
    diag[:, :-1] += phi[:, None] ** 2 / w[:, 1:]
    sub = -phi[:, None] / w[:, 1:]

    # Forward pass, with rows indexed by period: P0 = L diag(piv) L' with L
    # unit lower bidiagonal (multipliers lo), so L0 = L diag(piv)^1/2, and
    # fw = L0^-1 [b0, DX] for both right-hand sides.
    piv, lo, sub = diag.T.copy(), np.zeros((t_len, n)), sub.T
    fw = np.concatenate([(d * y_check).T[:, :, None], xd.transpose(1, 0, 2)], axis=2)
    fw[0, :, 0] += phi * common.mu_s0 / w[:, 0]
    for t in range(1, t_len):
        lo[t] = sub[t - 1] / piv[t - 1]
        piv[t] -= lo[t] * sub[t - 1]
        fw[t] -= lo[t][:, None] * fw[t - 1]
    root_piv = np.sqrt(piv)
    fw = np.moveaxis(fw / root_piv[:, :, None], 0, 1)
    logdet_p0 = np.log(piv).sum(axis=0)

    # Schur complement for delta_alpha; its forward solve gives quad1 - quad0.
    gram = np.swapaxes(fw, 1, 2) @ fw  # [[b0'P0^-1 b0, w0'C], [C'w0, C'C]]
    xdt = np.swapaxes(xd, 1, 2)
    ls = np.linalg.cholesky(np.linalg.inv(v_alpha) + xdt @ x - gram[:, 1:, 1:])
    wa = np.linalg.solve(ls, xdt @ y_check[:, :, None] - gram[:, 1:, :1])
    logdet_s = 2.0 * np.log(np.diagonal(ls, axis1=1, axis2=2)).sum(axis=1)
    log_k = (_log_odds_prior(q) - 0.5 * (np.linalg.slogdet(v_alpha)[1] + logdet_s)
             + 0.5 * np.sum(wa[:, :, 0] ** 2, axis=1))
    z = (u < special.expit(log_k)).astype(np.int64)
    alpha_dev = np.linalg.solve(np.swapaxes(ls, 1, 2), wa + e[:, t_len:, None])
    alpha_dev = np.where(z[:, None, None] == 1, alpha_dev, 0.0)

    # Back pass: states given delta_alpha, then s_0 given s_1.
    states = (fw[:, :, 0] + e[:, :t_len] - (fw[:, :, 1:] @ alpha_dev)[:, :, 0]).T / root_piv
    for t in range(t_len - 1, 0, -1):
        states[t - 1] -= lo[t] * states[t]
    s = np.empty((n, t_len + 1))
    s[:, 1:] = states.T
    gain = phi * common.v_s0 / w[:, 0]
    var_s0 = np.maximum(common.v_s0 - gain * phi * common.v_s0, 0.0)
    s[:, 0] = common.mu_s0 + gain * (s[:, 1] - phi * common.mu_s0) + np.sqrt(var_s0) * e0
    return StateDraw(log_k, logdet_p0, logdet_p0 + logdet_s, z, alpha_dev[:, :, 0], s)


def m2_sweep(y, x, mask, common: CommonState, units: UnitState, config: M2Config,
             adapts: Dict[str, RwmhAdaptState], gen, fixed_common: bool = False,
             adapt_enabled: bool = True) -> None:
    """One full Gibbs sweep, in place. `y`, `mask` are (N, T); `x` is (N, T, k).

    Unobserved cells contribute nothing to measurement blocks; state blocks
    always run over every period.
    """
    hyper = config.hyper
    n, t_len, k = x.shape
    hetero = config.coef_heterogeneity
    hetsk = config.heteroskedastic
    s_lag = units.s[:, :-1]
    s_now = units.s[:, 1:]

    w_u = np.where(mask, 1.0 / (common.sigma2_u[None, :] * units.delta_sigma_u[:, None]), 0.0)
    w_eps = 1.0 / (common.sigma2_eps[None, :] * units.delta_sigma_eps[:, None])

    if not fixed_common:
        # Common regression coefficients from the measurement equation.
        y_check = np.where(mask, y - np.einsum("itk,ik->it", x, units.delta_alpha) - s_now, 0.0)
        xtx = np.einsum("itj,it,itk->jk", x, w_u, x)
        xty = np.einsum("itj,it->j", x, w_u * y_check)
        prior_cov = np.atleast_2d(np.asarray(hyper.v_alpha, dtype=float))
        prior_mean = np.broadcast_to(np.asarray(hyper.mu_alpha, dtype=float), (k,))
        draw, _, _ = update_common_regression(prior_mean, prior_cov, xtx, xty, gen)
        common.alpha = np.atleast_1d(draw)

        # Common autoregressive coefficient from the state equation.
        s_tilde = s_now - units.delta_rho[:, None] * s_lag
        prec = float(np.sum(w_eps * s_lag**2))
        score = float(np.sum(w_eps * s_lag * s_tilde))
        draw, _, _ = update_common_regression(
            np.array([hyper.mu_rho]), np.array([[hyper.v_rho]]), np.array([[prec]]),
            np.array([score]), gen,
        )
        common.rho = float(draw[0])

        if hetero is None:
            common.q["alpha"] = update_q(units.z["alpha"], hyper.a, hyper.b, gen)
            common.q["rho"] = update_q(units.z["rho"], hyper.a, hyper.b, gen)
        if hetsk:
            common.q["sigma_u"] = update_q(units.z["sigma_u"], hyper.a, hyper.b, gen)
            common.q["sigma_eps"] = update_q(units.z["sigma_eps"], hyper.a, hyper.b, gen)

        common.v_delta_alpha = update_v_delta_alpha_iw(
            units.z["alpha"], units.delta_alpha, hyper.v_delta_alpha_iw, gen
        )
        common.v_delta_rho = update_v_delta_normal(
            units.z["rho"], units.delta_rho, hyper.v_delta_rho, gen
        )
        if hetsk:
            for label, attr in (("sigma_u", "delta_sigma_u"), ("sigma_eps", "delta_sigma_eps")):
                active = getattr(units, attr)[units.z[label] == 1]
                prior = hyper.v_delta_sigma_u if label == "sigma_u" else hyper.v_delta_sigma_eps
                value, _ = update_v_delta_sigma_rwmh(
                    getattr(common, "v_delta_" + label), active, prior, adapts[label], gen,
                    adapt_enabled=adapt_enabled,
                )
                setattr(common, "v_delta_" + label, value)

    # Autoregressive deviations from the state equation.
    if hetero is not False:
        s_check = s_now - common.rho * s_lag
        prec_i = (w_eps * s_lag**2).sum(axis=1)
        score_i = (w_eps * s_lag * s_check).sum(axis=1)
        q_rho = {None: common.q["rho"], True: 1.0}[hetero]
        units.z["rho"], units.delta_rho = update_indicator_and_deviation_normal(
            q_rho, common.v_delta_rho, prec_i, score_i, gen
        )
    # Variance discrepancies, odds evaluated at the spike value.
    if hetsk:
        resid_u = np.where(
            mask,
            y - np.einsum("itk,ik->it", x, common.alpha[None, :] + units.delta_alpha) - s_now,
            0.0,
        )
        ssr_u = (resid_u**2 / common.sigma2_u[None, :]).sum(axis=1)
        units.z["sigma_u"], units.delta_sigma_u = update_indicator_and_deviation_ig(
            common.q["sigma_u"], common.v_delta_sigma_u, ssr_u, mask.sum(axis=1), gen
        )
        resid_eps = s_now - (common.rho + units.delta_rho)[:, None] * s_lag
        ssr_eps = (resid_eps**2 / common.sigma2_eps[None, :]).sum(axis=1)
        units.z["sigma_eps"], units.delta_sigma_eps = update_indicator_and_deviation_ig(
            common.q["sigma_eps"], common.v_delta_sigma_eps, ssr_eps, np.full(n, t_len), gen
        )

    # States and alpha deviations; the noise is drawn in fixed-size arrays.
    draw = draw_states_and_alpha_deviation(
        y, x, mask, common, units, hetero,
        gen.random(n), gen.standard_normal((n, t_len + k)), gen.standard_normal(n),
    )
    units.z["alpha"][:], units.delta_alpha[:], units.s[:] = draw.z, draw.delta_alpha, draw.s

    if not fixed_common:
        # Initial-state hyperparameters.
        s0 = units.s[:, 0]
        v_bar = 1.0 / (1.0 / hyper.mu_s0_var + n / common.v_s0)
        m_bar = v_bar * (hyper.mu_s0_mean / hyper.mu_s0_var + s0.sum() / common.v_s0)
        common.mu_s0 = float(m_bar + np.sqrt(v_bar) * gen.standard_normal())
        post = InverseGammaSpec(
            nu=hyper.v_s0.nu + n, tau=hyper.v_s0.tau + float(np.sum((s0 - common.mu_s0) ** 2))
        )
        common.v_s0 = float(sample_inverse_gamma(post, gen))

        # Period variances.
        resid_u = np.where(
            mask,
            y - np.einsum("itk,ik->it", x, common.alpha[None, :] + units.delta_alpha)
            - units.s[:, 1:],
            0.0,
        )
        resid_eps = units.s[:, 1:] - (common.rho + units.delta_rho)[:, None] * units.s[:, :-1]
        n_t = mask.sum(axis=0).astype(float)
        ssr_u_t = (resid_u**2 / units.delta_sigma_u[:, None]).sum(axis=0)
        ssr_eps_t = (resid_eps**2 / units.delta_sigma_eps[:, None]).sum(axis=0)
        # IG((nu + count)/2, (tau + ssr)/2) for every period in one draw, as
        # the reciprocal of a Gamma draw (see `sample_inverse_gamma`).
        common.sigma2_u = 1.0 / gen.gamma((hyper.sigma2_u.nu + n_t) / 2.0,
                                          2.0 / (hyper.sigma2_u.tau + ssr_u_t))
        common.sigma2_eps = 1.0 / gen.gamma((hyper.sigma2_eps.nu + n) / 2.0,
                                            2.0 / (hyper.sigma2_eps.tau + ssr_eps_t))


def _extract_m2_arrays(data: PanelData):
    y, mask, x = data.y, data.mask, data.x
    if x is None:
        raise ConfigurationError("the state-space model requires covariates")
    # Drop leading columns with no observations (the simulator keeps a t=0
    # column for the initial state).
    first = 0
    while first < y.shape[1] and not mask[:, first].any():
        first += 1
    y, mask, x = y[:, first:], mask[:, first:], x[:, first:, :]
    if y.shape[1] < 2:
        raise ConfigurationError("need at least 2 observed periods")
    if not mask.any(axis=1).all():
        raise ConfigurationError("every unit needs at least one observation")
    y = np.where(mask, y, 0.0)
    x = np.where(mask[:, :, None], x, 0.0)
    return y, mask, x


def run_m2(data: PanelData, config: M2Config, rng,
           fixed_common: Optional[CommonState] = None) -> ChainOutput:
    """Run the Gibbs sampler and collect post-burn-in, thinned draws."""
    gen = as_generator(rng)
    y, mask, x = _extract_m2_arrays(data)
    n, t_len, k = x.shape
    common, units = init_m2_state(n, t_len, k, config)
    if fixed_common is not None:
        common = replace(fixed_common)
        common.q = dict(fixed_common.q)
        common.alpha = np.atleast_1d(np.asarray(fixed_common.alpha, dtype=float)).copy()
        common.sigma2_u = np.asarray(fixed_common.sigma2_u, dtype=float).copy()
        common.sigma2_eps = np.asarray(fixed_common.sigma2_eps, dtype=float).copy()
    adapts = {"sigma_u": RwmhAdaptState(), "sigma_eps": RwmhAdaptState()}
    kept = (config.n_draws - config.burn_in + config.thin - 1) // config.thin
    common_draws = {
        "alpha": np.empty((kept, k)),
        "rho": np.empty(kept),
        "sigma2_u": np.empty((kept, t_len)),
        "sigma2_eps": np.empty((kept, t_len)),
        "mu_s0": np.empty(kept),
        "v_s0": np.empty(kept),
        "q_alpha": np.empty(kept),
        "q_rho": np.empty(kept),
        "q_sigma_u": np.empty(kept),
        "q_sigma_eps": np.empty(kept),
        "v_delta_alpha": np.empty((kept, k, k)),
        "v_delta_rho": np.empty(kept),
    }
    if config.heteroskedastic:
        common_draws["v_delta_sigma_u"] = np.empty(kept)
        common_draws["v_delta_sigma_eps"] = np.empty(kept)
    unit_names = [
        "delta_rho", "delta_sigma_u", "delta_sigma_eps",
        "z_alpha", "z_rho", "z_sigma_u", "z_sigma_eps", "s_last",
    ] + [f"delta_alpha_{j}" for j in range(k)]
    unit_draws = {name: np.empty((kept, n)) for name in unit_names} if config.store_unit_draws else {}
    unit_sums = {name: np.zeros(n) for name in unit_names}
    kept_count = 0
    for j in range(config.n_draws):
        in_burn = j < config.burn_in
        m2_sweep(
            y, x, mask, common, units, config, adapts, gen,
            fixed_common=fixed_common is not None,
            adapt_enabled=in_burn or config.adapt_after_burnin,
        )
        if in_burn or (j - config.burn_in) % config.thin:
            continue
        idx = kept_count
        kept_count += 1
        common_draws["alpha"][idx] = common.alpha
        common_draws["rho"][idx] = common.rho
        common_draws["sigma2_u"][idx] = common.sigma2_u
        common_draws["sigma2_eps"][idx] = common.sigma2_eps
        common_draws["mu_s0"][idx] = common.mu_s0
        common_draws["v_s0"][idx] = common.v_s0
        for label in ("alpha", "rho", "sigma_u", "sigma_eps"):
            common_draws["q_" + label][idx] = common.q[label]
        common_draws["v_delta_alpha"][idx] = np.atleast_2d(common.v_delta_alpha)
        common_draws["v_delta_rho"][idx] = common.v_delta_rho
        if config.heteroskedastic:
            common_draws["v_delta_sigma_u"][idx] = common.v_delta_sigma_u
            common_draws["v_delta_sigma_eps"][idx] = common.v_delta_sigma_eps
        values = {
            "delta_rho": units.delta_rho,
            "delta_sigma_u": units.delta_sigma_u,
            "delta_sigma_eps": units.delta_sigma_eps,
            "z_alpha": units.z["alpha"],
            "z_rho": units.z["rho"],
            "z_sigma_u": units.z["sigma_u"],
            "z_sigma_eps": units.z["sigma_eps"],
            "s_last": units.s[:, -1],
        }
        for col in range(k):
            values[f"delta_alpha_{col}"] = units.delta_alpha[:, col]
        for name in unit_sums:
            unit_sums[name] += values[name]
        for name in unit_draws:
            unit_draws[name][idx] = values[name]
    assert kept_count == kept
    return ChainOutput(
        common=common_draws,
        unit=unit_draws,
        unit_means={name: total / kept for name, total in unit_sums.items()},
        diagnostics={
            "rwmh_acceptance_sigma_u": adapts["sigma_u"].acceptance_rate,
            "rwmh_acceptance_sigma_eps": adapts["sigma_eps"].acceptance_rate,
        },
        config={
            "model": "m2",
            "variant": config.variant,
            "n_draws": config.n_draws,
            "burn_in": config.burn_in,
            "thin": config.thin,
        },
        unit_ids=data.unit_ids,
    )


@dataclass
class IndividualPriors:
    """Priors for estimating one unit in isolation on its own history."""

    coef_var: np.ndarray = field(default_factory=lambda: np.diag([0.24, 0.05]))
    rho_mean: float = 0.8
    rho_var: float = 0.25
    noise_u: InverseGammaSpec = field(default_factory=lambda: InverseGammaSpec(4.02, 0.101))
    noise_eps: InverseGammaSpec = field(default_factory=lambda: InverseGammaSpec(4.02, 0.101))
    s0_var: float = 0.05


def run_m2_individual(y_unit, x_unit, n_draws: int, burn_in: int, rng,
                      priors: Optional[IndividualPriors] = None,
                      thin: int = 1) -> ChainOutput:
    """Single-unit state-space sampler ignoring the rest of the panel.

    y_t = x_t' a + s_t + sigma_u u_t,  s_t = r s_{t-1} + sigma_eps eps_t,
    with constant variances and proper Normal/IG priors on everything.
    """
    gen = as_generator(rng)
    priors = priors or IndividualPriors()
    y_unit = np.asarray(y_unit, dtype=float)
    x_unit = np.atleast_2d(np.asarray(x_unit, dtype=float))
    t_len, k = x_unit.shape
    if y_unit.size != t_len:
        raise ValueError("y and x disagree on the number of periods")
    if t_len < 3:
        raise ValueError("individual estimation needs at least 3 periods")
    if not 0 <= burn_in < n_draws:
        raise ConfigurationError("burn_in must satisfy 0 <= burn_in < n_draws")
    coef_var = np.atleast_2d(np.asarray(priors.coef_var, dtype=float))[:k, :k]
    coef_prec = np.linalg.inv(coef_var)

    a = np.zeros(k)
    r = priors.rho_mean
    sig_u = priors.noise_u.mean
    sig_eps = priors.noise_eps.mean
    s = np.zeros(t_len + 1)

    kept = (n_draws - burn_in + thin - 1) // thin
    out = {
        "coef": np.empty((kept, k)),
        "rho_i": np.empty(kept),
        "sigma2_u": np.empty(kept),
        "sigma2_eps": np.empty(kept),
        "s_last": np.empty(kept),
    }
    idx = 0
    for j in range(n_draws):
        # Joint (coefficients, states) draw given variances and r.
        q_s, _ = _state_precision_1t(r, np.full(t_len, sig_eps), priors.s0_var)
        p = np.zeros((k + t_len, k + t_len))
        p[:k, :k] = coef_prec + x_unit.T @ x_unit / sig_u
        p[:k, k:] = x_unit.T / sig_u
        p[k:, :k] = x_unit / sig_u
        p[k:, k:] = q_s + np.eye(t_len) / sig_u
        b = np.concatenate([x_unit.T @ y_unit / sig_u, y_unit / sig_u])
        chol = np.linalg.cholesky(p)
        mean = np.linalg.solve(p, b)
        draw = mean + np.linalg.solve(chol.T, gen.standard_normal(k + t_len))
        a, s[1:] = draw[:k], draw[k:]
        # s_0 given s_1 (zero prior mean).
        v1 = r**2 * priors.s0_var + sig_eps
        gain = r * priors.s0_var / v1
        s[0] = gain * s[1] + np.sqrt(max(priors.s0_var - gain * r * priors.s0_var, 0.0)) * gen.standard_normal()
        # r from the state regression.
        draw_r, _, _ = update_common_regression(
            np.array([priors.rho_mean]), np.array([[priors.rho_var]]),
            np.array([[np.sum(s[:-1] ** 2) / sig_eps]]),
            np.array([np.sum(s[:-1] * s[1:]) / sig_eps]), gen,
        )
        r = float(draw_r[0])
        # Noise variances.
        resid_u = y_unit - x_unit @ a - s[1:]
        sig_u = float(sample_inverse_gamma(
            InverseGammaSpec(priors.noise_u.nu + t_len, priors.noise_u.tau + float(resid_u @ resid_u)), gen
        ))
        resid_eps = s[1:] - r * s[:-1]
        sig_eps = float(sample_inverse_gamma(
            InverseGammaSpec(priors.noise_eps.nu + t_len, priors.noise_eps.tau + float(resid_eps @ resid_eps)), gen
        ))
        if j < burn_in or (j - burn_in) % thin:
            continue
        out["coef"][idx] = a
        out["rho_i"][idx] = r
        out["sigma2_u"][idx] = sig_u
        out["sigma2_eps"][idx] = sig_eps
        out["s_last"][idx] = s[-1]
        idx += 1
    assert idx == kept
    return ChainOutput(
        common=out,
        unit={},
        unit_means={},
        diagnostics={},
        config={"model": "m2_individual", "n_draws": n_draws, "burn_in": burn_in, "thin": thin},
        unit_ids=("unit",),
    )
