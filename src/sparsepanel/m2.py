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

import math
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional

import numpy as np

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
from sparsepanel.chainout import ChainOutput, ConfigurationError, DrawRecorder, check_chain_lengths
from sparsepanel.distributions import (InverseGammaSpec, _cholesky, _inv, _solve_lower, expit,
                                       sample_inverse_gamma)
from sparsepanel.panel import M2_BLOCKS, PanelData
from sparsepanel.rng import as_generator

VARIANTS = ("baseline", "homosk", "rip", "hip")


@dataclass
class M2Config:
    variant: str = "baseline"
    n_draws: int = 5000
    burn_in: int = 2500
    thin: int = 1
    hyper: HyperParams = field(default_factory=HyperParams.m2_defaults)
    store_unit_draws: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        check_chain_lengths(self.n_draws, self.burn_in, self.thin)
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


class PanelMoments(NamedTuple):
    """What every sweep of one chain reads of its panel, built once. A count shared
    by every unit (or period) is one int, sparing its draws per-element tables."""

    maskf: np.ndarray        # (N, T), 1.0 where a cell carries a measurement
    n_obs: object            # (N,) observation counts, or their shared value
    n_t: object              # (T,) units observed in each period, or their shared value
    xx: np.ndarray           # (N*T, k*k) outer products x x' of every cell


def panel_moments(mask, x) -> PanelMoments:
    def _shared(counts):
        return int(counts[0]) if (counts == counts[0]).all() else counts

    n, t_len, _ = x.shape
    return PanelMoments(mask.astype(float), _shared(mask.sum(axis=1)), _shared(mask.sum(axis=0)),
                        (x[:, :, :, None] * x[:, :, None, :]).reshape(n * t_len, -1))


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
    `mask` is boolean or 0/1 floats. `u` (N,), `e` (N, T+k) and `e0` (N,) are
    the uniform and standard normal noise the draw consumes; `e[:, :T]` drives the states.
    """
    n, t_len, k = x.shape
    v_alpha = np.atleast_2d(common.v_delta_alpha)
    phi = common.rho + units.delta_rho
    w = common.sigma2_eps[:, None] * units.delta_sigma_eps  # (T, N), as are piv, sub, lo
    w[0] += phi**2 * common.v_s0  # s_0 integrated out
    d = mask / (common.sigma2_u * units.delta_sigma_u[:, None])
    y_check = y - x @ common.alpha
    piv = 1.0 / w + d.T
    piv[:-1] += phi**2 / w[1:]
    sub = -phi / w[1:]

    # Forward pass, with rows indexed by period: P0 = L diag(piv) L' with L
    # unit lower bidiagonal (multipliers lo), so L0 = L diag(piv)^1/2, and
    # fw = L0^-1 [b0, DX] for both right-hand sides. The loops run over lists
    # of flat row views (lo repeated over each unit's k + 1 columns), which
    # index faster than the arrays they update in place and need no broadcast.
    yx = np.concatenate([y_check[:, :, None], x], axis=2)
    dyx = yx * d[:, :, None]
    xd_yx = dyx[:, :, 1:].transpose(0, 2, 1) @ yx  # [X'D y_check, X'DX]
    fw = dyx.transpose(1, 0, 2).copy()
    fw[0, :, 0] += phi * common.mu_s0 / w[0]
    piv_t, sub2_t = list(piv), list(sub * sub)
    for t in range(1, t_len):
        piv_t[t] -= sub2_t[t - 1] / piv_t[t - 1]
    lo = sub / piv[:-1]  # lo[t - 1] multiplies row t - 1 into row t
    fw_t, lo_t = list(fw.reshape(t_len, -1)), list(np.repeat(lo, k + 1, axis=1))
    for t in range(1, t_len):
        fw_t[t] -= lo_t[t - 1] * fw_t[t - 1]
    root_piv = np.sqrt(piv)
    fw /= root_piv[:, :, None]
    logdet_p0 = np.log(piv).sum(axis=0)

    # Schur complement for delta_alpha; its forward solve gives quad1 - quad0.
    gram = fw.transpose(1, 2, 0) @ fw.transpose(1, 0, 2)  # [[b0'P0^-1 b0, w0'C], [C'w0, C'C]]
    schur = _inv(v_alpha) + xd_yx[:, :, 1:] - gram[:, 1:, 1:]
    r = xd_yx[:, :, 0] - gram[:, 1:, 0]
    ls, lv = _cholesky(schur, 0.0), _cholesky(v_alpha, 0.0)
    if ls is None or lv is None:
        raise np.linalg.LinAlgError("V_alpha or a Schur complement is not positive definite")
    wa = _solve_lower(ls, r)
    logdet_s = 2.0 * np.log(ls.diagonal(0, 1, 2)).sum(axis=1)
    if hetero is None:
        logdet_v = 2.0 * np.log(lv.diagonal()).sum()
        log_k = (_log_odds_prior(common.q["alpha"]) - 0.5 * (logdet_v + logdet_s)
                 + 0.5 * (wa * wa).sum(axis=1))
        z = (u < expit(log_k)).astype(np.int64)
    else:  # a forced indicator: infinite odds, and `u` goes unused
        log_k = np.full(n, np.inf if hetero else -np.inf)
        z = np.full(n, int(hetero))
    alpha_dev = np.where(z[:, None] == 1, _solve_lower(ls, wa + e[:, t_len:], trans=True), 0.0)

    # Back pass: states given delta_alpha, then s_0 given s_1.
    fx = (fw[:, :, 1:].transpose(1, 0, 2) @ alpha_dev[:, :, None])[:, :, 0].T
    states = (fw[:, :, 0] + e[:, :t_len].T - fx) / root_piv
    states_t, lo_t = list(states), list(lo)
    for t in range(t_len - 1, 0, -1):
        states_t[t - 1] -= lo_t[t - 1] * states_t[t]
    s = np.empty((n, t_len + 1))
    s[:, 1:] = states.T
    gain = phi * common.v_s0 / w[0]
    var_s0 = np.maximum(common.v_s0 - gain * phi * common.v_s0, 0.0)
    s[:, 0] = common.mu_s0 + gain * (s[:, 1] - phi * common.mu_s0) + np.sqrt(var_s0) * e0
    return StateDraw(log_k, logdet_p0, logdet_p0 + logdet_s, z, alpha_dev, s)


def m2_sweep(y, x, moments: PanelMoments, common: CommonState, units: UnitState, config: M2Config,
             adapts: Dict[str, RwmhAdaptState], gen, adapt_enabled: bool = True) -> None:
    """One full Gibbs sweep, in place. `y` is (N, T) and `x` (N, T, k), zeros in
    cells without a measurement, as `_extract_m2_arrays` leaves them; `moments`
    are `panel_moments(mask, x)`, built once per chain.

    Unobserved cells contribute nothing to measurement blocks; state blocks
    always run over every period.
    """
    hyper = config.hyper
    n, t_len, k = x.shape
    hetero = config.coef_heterogeneity
    hetsk = config.heteroskedastic
    s_lag = units.s[:, :-1]
    s_now = units.s[:, 1:]

    w_u = moments.maskf / (common.sigma2_u * units.delta_sigma_u[:, None])
    w_eps_lag = s_lag / (common.sigma2_eps * units.delta_sigma_eps[:, None])

    # Common regression coefficients from the measurement equation. y_dev is
    # y less the deviations' part and the state in every cell; w_u is 0 where
    # a cell carries no measurement.
    y_dev = y - (x @ units.delta_alpha[:, :, None])[:, :, 0] - s_now
    xtx = (w_u.ravel() @ moments.xx).reshape(k, k)
    xty = (w_u * y_dev).ravel() @ x.reshape(n * t_len, k)
    prior_cov = np.atleast_2d(np.asarray(hyper.v_alpha, dtype=float))
    prior_mean = np.broadcast_to(np.asarray(hyper.mu_alpha, dtype=float), (k,))
    common.alpha, _, _ = update_common_regression(prior_mean, prior_cov, xtx, xty, gen)
    x_alpha = x @ common.alpha

    # Common autoregressive coefficient from the state equation.
    prec_i = (w_eps_lag * s_lag).sum(axis=1)
    score = float((w_eps_lag * (s_now - units.delta_rho[:, None] * s_lag)).sum())
    v_rho = 1.0 / (1.0 / hyper.v_rho + float(prec_i.sum()))
    common.rho = v_rho * (1.0 / hyper.v_rho * hyper.mu_rho + score) + math.sqrt(v_rho) * gen.standard_normal()

    for label in (("alpha", "rho") if hetero is None else ()) + (("sigma_u", "sigma_eps") if hetsk else ()):
        common.q[label] = update_q(units.z[label], hyper.a, hyper.b, gen)

    common.v_delta_alpha = update_v_delta_alpha_iw(
        units.z["alpha"], units.delta_alpha, hyper.v_delta_alpha_iw, gen
    )
    common.v_delta_rho = update_v_delta_normal(
        units.z["rho"], units.delta_rho, hyper.v_delta_rho, gen
    )
    for label in ("sigma_u", "sigma_eps") if hetsk else ():
        name = "v_delta_" + label
        value, _ = update_v_delta_sigma_rwmh(getattr(common, name), units.z[label],
                                             getattr(units, "delta_" + label), getattr(hyper, name),
                                             adapts[label], gen, adapt_enabled=adapt_enabled)
        setattr(common, name, value)

    # Autoregressive deviations from the state equation.
    if hetero is not False:
        score_i = (w_eps_lag * (s_now - common.rho * s_lag)).sum(axis=1)
        q_rho = {None: common.q["rho"], True: 1.0}[hetero]
        units.z["rho"], units.delta_rho = update_indicator_and_deviation_normal(
            q_rho, common.v_delta_rho, prec_i, score_i, gen
        )
    # Variance discrepancies, odds evaluated at the spike value.
    if hetsk:
        resid_u = (y_dev - x_alpha) * moments.maskf
        units.z["sigma_u"], units.delta_sigma_u = update_indicator_and_deviation_ig(
            common.q["sigma_u"], common.v_delta_sigma_u, (resid_u * resid_u) @ (1.0 / common.sigma2_u),
            moments.n_obs, gen
        )
        resid_eps = s_now - (common.rho + units.delta_rho)[:, None] * s_lag
        units.z["sigma_eps"], units.delta_sigma_eps = update_indicator_and_deviation_ig(
            common.q["sigma_eps"], common.v_delta_sigma_eps,
            (resid_eps * resid_eps) @ (1.0 / common.sigma2_eps), t_len, gen
        )

    # States and alpha deviations; the noise is drawn in fixed-size arrays.
    draw = draw_states_and_alpha_deviation(
        y, x, moments.maskf, common, units, hetero,
        gen.random(n), gen.standard_normal((n, t_len + k)), gen.standard_normal(n),
    )
    units.z["alpha"][:], units.delta_alpha[:], units.s[:] = draw.z, draw.delta_alpha, draw.s

    # Initial-state hyperparameters.
    s0 = units.s[:, 0]
    v_bar = 1.0 / (1.0 / hyper.mu_s0_var + n / common.v_s0)
    m_bar = v_bar * (hyper.mu_s0_mean / hyper.mu_s0_var + float(s0.sum()) / common.v_s0)
    common.mu_s0 = m_bar + math.sqrt(v_bar) * gen.standard_normal()
    dev = s0 - common.mu_s0
    common.v_s0 = float(sample_inverse_gamma(hyper.v_s0.nu + n, hyper.v_s0.tau + float(dev @ dev), gen))

    # Period variances (s_lag and s_now now view the new states).
    resid_u = (y - x_alpha - (x @ units.delta_alpha[:, :, None])[:, :, 0] - s_now) * moments.maskf
    resid_eps = s_now - (common.rho + units.delta_rho)[:, None] * s_lag
    ssr_u_t = (1.0 / units.delta_sigma_u) @ (resid_u * resid_u)
    ssr_eps_t = (1.0 / units.delta_sigma_eps) @ (resid_eps * resid_eps)
    # IG((nu + count)/2, (tau + ssr)/2) for every period in one draw
    common.sigma2_u = sample_inverse_gamma(hyper.sigma2_u.nu + moments.n_t, hyper.sigma2_u.tau + ssr_u_t, gen)
    common.sigma2_eps = sample_inverse_gamma(hyper.sigma2_eps.nu + n, hyper.sigma2_eps.tau + ssr_eps_t,
                                             gen)


def _extract_m2_arrays(data: PanelData):
    """(y, mask, x) from the first observed period on; a cell carries a
    measurement only when y and every regressor are observed, and a cell
    that carries none holds zeros."""
    if data.x is None:
        raise ConfigurationError("the state-space model requires covariates")
    mask = data.mask & np.isfinite(data.x).all(axis=2)
    # Drop leading columns with no observations (the simulator keeps a t=0
    # column for the initial state).
    first = 0
    while first < mask.shape[1] and not mask[:, first].any():
        first += 1
    y, mask, x = data.y[:, first:], mask[:, first:], data.x[:, first:, :]
    if y.shape[1] < 2:
        raise ConfigurationError("need at least 2 observed periods")
    if not mask.any(axis=1).all():
        raise ConfigurationError("every unit needs at least one observation")
    y = np.where(mask, y, 0.0)
    x = np.where(mask[:, :, None], x, 0.0)
    return y, mask, x


def run_m2(data: PanelData, config: M2Config, rng) -> ChainOutput:
    """Run the Gibbs sampler and record its post-burn-in, thinned draws."""
    gen = as_generator(rng)
    y, mask, x = _extract_m2_arrays(data)
    n, t_len, k = x.shape
    common, units = init_m2_state(n, t_len, k, config)
    adapts = {"sigma_u": RwmhAdaptState(), "sigma_eps": RwmhAdaptState()}
    recorder = DrawRecorder(config.n_draws, config.burn_in, config.thin, config.store_unit_draws)
    moments = panel_moments(mask, x)
    for j in range(config.n_draws):
        m2_sweep(y, x, moments, common, units, config, adapts, gen, adapt_enabled=j < config.burn_in)
        if not recorder.keeps(j):
            continue
        draw = {"alpha": common.alpha, "rho": common.rho, "sigma2_u": common.sigma2_u,
                "sigma2_eps": common.sigma2_eps, "mu_s0": common.mu_s0, "v_s0": common.v_s0,
                "v_delta_alpha": np.atleast_2d(common.v_delta_alpha),
                "v_delta_rho": common.v_delta_rho}
        for label in M2_BLOCKS:
            draw["q_" + label] = common.q[label]
        if config.heteroskedastic:
            draw["v_delta_sigma_u"] = common.v_delta_sigma_u
            draw["v_delta_sigma_eps"] = common.v_delta_sigma_eps
        unit = {"delta_rho": units.delta_rho, "delta_sigma_u": units.delta_sigma_u,
                "delta_sigma_eps": units.delta_sigma_eps, "s_last": units.s[:, -1]}
        for label in M2_BLOCKS:
            unit["z_" + label] = units.z[label]
        for col in range(k):
            unit[f"delta_alpha_{col}"] = units.delta_alpha[:, col]
        recorder.record(draw, unit)
    return recorder.output(
        {"model": "m2", "variant": config.variant},
        diagnostics={
            "rwmh_acceptance_sigma_u": adapts["sigma_u"].acceptance_rate,
            "rwmh_acceptance_sigma_eps": adapts["sigma_eps"].acceptance_rate,
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


def _individual_state_draw(y, x, mask, priors: IndividualPriors, r, sig_u, sig_eps,
                           e, e0) -> StateDraw:
    """Coefficients and states of every unit's single-unit model, then s_0.

    The single-unit model is the M2 state block with every unit on the slab
    (slab covariance `coef_var`), no common coefficient or persistence, unit
    period variances scaled by each unit's own r, sigma2_u and sigma2_eps,
    and s_0 ~ N(0, s0_var). `e` (N, T+k) and `e0` (N,) are the noise.
    """
    n, t_len, k = x.shape
    common = CommonState(
        alpha=np.zeros(k), rho=0.0, q={"alpha": 1.0},
        v_delta_alpha=np.atleast_2d(np.asarray(priors.coef_var, dtype=float))[:k, :k],
        v_delta_rho=None, sigma2_u=np.ones(t_len), sigma2_eps=np.ones(t_len),
        mu_s0=0.0, v_s0=priors.s0_var,
    )
    units = UnitState(z={}, delta_alpha=None, delta_rho=r, delta_sigma_u=sig_u,
                      delta_sigma_eps=sig_eps)
    # the slab is forced on, so the indicator needs no uniform draw
    return draw_states_and_alpha_deviation(y, x, mask, common, units, True, np.zeros(n), e, e0)


def _individual_param_draw(y, x, mask, priors: IndividualPriors, coef, s, sig_eps, gen):
    """r, then sigma2_u and sigma2_eps, of every unit given its coefficients and states.

    r_i comes from the state regression under its N(rho_mean, rho_var) prior,
    all units in one batched call; each variance is IG((nu + count)/2,
    (tau + ssr)/2).
    """
    s_lag, s_now = s[:, :-1], s[:, 1:]
    draw, _, _ = update_common_regression(
        np.array([priors.rho_mean]), np.array([[priors.rho_var]]),
        (np.einsum("it,it->i", s_lag, s_lag) / sig_eps)[:, None, None],
        (np.einsum("it,it->i", s_lag, s_now) / sig_eps)[:, None], gen,
    )
    r = draw[:, 0]
    resid = np.where(mask, y - np.einsum("itk,ik->it", x, coef) - s_now, 0.0)
    sig_u = sample_inverse_gamma(priors.noise_u.nu + mask.sum(axis=1),
                                 priors.noise_u.tau + np.einsum("it,it->i", resid, resid), gen)
    resid = s_now - r[:, None] * s_lag
    sig_eps = sample_inverse_gamma(priors.noise_eps.nu + s_now.shape[1],
                                   priors.noise_eps.tau + np.einsum("it,it->i", resid, resid), gen)
    return r, sig_u, sig_eps


def run_m2_individual(data: PanelData, n_draws: int, burn_in: int, rng,
                      thin: int = 1) -> ChainOutput:
    """Every unit's single-unit state-space sampler, run together as one chain.

    Unit i is estimated on its own history alone:
    y_it = x_it' a_i + s_it + sigma_u,i u_it,  s_it = r_i s_i,t-1 + sigma_eps,i eps_it,
    with constant variances and proper Normal/IG priors on everything. No
    block couples units, so unit i's draws are those of its own chain. The
    panel is read as `run_m2` reads it, from its first observed period on.
    The draws in `common` have shape (kept, N) or, for "coef", (kept, N, k).
    """
    gen = as_generator(rng)
    priors = IndividualPriors()
    recorder = DrawRecorder(n_draws, burn_in, thin)
    y, mask, x = _extract_m2_arrays(data)
    n, t_len, k = x.shape
    if t_len < 3:
        raise ValueError("individual estimation needs at least 3 periods")

    r = np.full(n, priors.rho_mean)
    sig_u = np.full(n, priors.noise_u.mean)
    sig_eps = np.full(n, priors.noise_eps.mean)
    for j in range(n_draws):
        draw = _individual_state_draw(y, x, mask, priors, r, sig_u, sig_eps,
                                      gen.standard_normal((n, t_len + k)), gen.standard_normal(n))
        r, sig_u, sig_eps = _individual_param_draw(y, x, mask, priors, draw.delta_alpha, draw.s,
                                                   sig_eps, gen)
        if recorder.keeps(j):
            recorder.record({"coef": draw.delta_alpha, "rho_i": r, "sigma2_u": sig_u,
                             "sigma2_eps": sig_eps, "s_last": draw.s[:, -1]})
    return recorder.output({"model": "m2_individual"}, unit_ids=data.unit_ids)
