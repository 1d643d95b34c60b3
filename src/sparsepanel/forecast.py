"""Posterior-predictive forecasting, scoring, and variance decomposition.

Forecasts iterate the latent-state model forward from the end of the sample
with fresh shocks, under three scenarios: averaging over retained posterior
draws, fixing parameters and deviations at their posterior means, or using
chains estimated on one unit's history alone. Density forecasts are scored
by a Rao-Blackwellized Normal mixture: the predictive density at a point is
the average over draws of the Normal density implied by each draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from sparsepanel.blocks import CommonState
from sparsepanel.chainout import ChainOutput, write_csv
from sparsepanel.panel import M2_BLOCKS, PanelData, draw_unit_deviations, m2_forward
from sparsepanel.rng import as_generator

SCENARIOS = ("full_info_param_unc", "full_info_no_param_unc", "individual_info")


@dataclass
class PredictiveDraws:
    """Simulated future outcomes, one array entry per (draw, unit, horizon)."""

    draws: np.ndarray  # (n_draws, n_units, n_horizons)
    h1_means: np.ndarray  # (n_draws, n_units) conditional mean of y at horizon 1
    h1_vars: np.ndarray  # (n_draws, n_units) conditional variance at horizon 1
    scenario: str
    horizons: Tuple[int, ...]
    unit_ids: Tuple[str, ...]

    @property
    def n_units(self) -> int:
        return self.draws.shape[1]

    def predictive_mean(self, horizon: int = 1) -> np.ndarray:
        j = self.horizons.index(horizon)
        return self.draws[:, :, j].mean(axis=0)

    def interval(self, horizon: int, level: float = 0.90) -> Tuple[np.ndarray, np.ndarray]:
        """Equal-tail interval per unit at the given horizon."""
        j = self.horizons.index(horizon)
        tail = (1.0 - level) / 2.0
        lo = np.quantile(self.draws[:, :, j], tail, axis=0)
        hi = np.quantile(self.draws[:, :, j], 1.0 - tail, axis=0)
        return lo, hi


@dataclass
class ScoreReport:
    """Point and density forecast scores at horizon one."""

    mse: float
    lps: float
    per_unit_lps: np.ndarray
    zero_density_units: List[str] = field(default_factory=list)

    def mse_delta_vs(self, base: "ScoreReport") -> float:
        """Relative MSE difference in percent; negative means improvement."""
        return 100.0 * (self.mse - base.mse) / base.mse

    def lps_delta_vs(self, base: "ScoreReport") -> float:
        return self.lps - base.lps


@dataclass
class DecompositionResult:
    """Cross-sectional variance paths from three coupled cohort simulations."""

    v_baseline: np.ndarray
    v_no_alpha_dev: np.ndarray
    v_no_transitory: np.ndarray

    @property
    def alpha_share(self) -> np.ndarray:
        """Share of cross-sectional variance removed by equalizing intercepts."""
        return 1.0 - self.v_no_alpha_dev / self.v_baseline

    @property
    def transitory_share(self) -> np.ndarray:
        """Share removed by shutting down the measurement noise."""
        return 1.0 - self.v_no_transitory / self.v_baseline


def _terminal_regressors(data: PanelData, horizons: Sequence[int]) -> np.ndarray:
    """Regressor paths [1, experience/10] for the forecast periods.

    Experience is deterministic and grows by one per period, so the
    out-of-sample regressor at horizon h is the last in-sample experience
    level plus h. A panel whose observed regressors do not have this form
    raises ValueError: its forecasts would be silently wrong.
    """
    if data.x is None:
        raise ValueError("forecasting requires panel regressors")
    if data.x.shape[2] != 2:
        raise ValueError(f"forecast regressors must be [1, experience/10], got "
                         f"{data.x.shape[2]} columns")
    obs = data.mask
    if not np.all(data.x[:, :, 0][obs] == 1.0):
        raise ValueError("forecast regressors must be [1, experience/10]: the observed first "
                         "regressor is not 1")
    # experience/10 less period/10 is one number per unit on this design
    offset = data.x[:, :, 1] - 0.1 * data.times
    lo = np.where(obs, offset, np.inf).min(axis=1)
    hi = np.where(obs, offset, -np.inf).max(axis=1)
    if not np.all(np.isfinite(lo) & (hi - lo <= 1e-9)):
        raise ValueError("forecast regressors must be [1, experience/10]: the observed second "
                         "regressor of some unit is missing or does not rise by 0.1 per period")
    out = np.ones((obs.shape[0], len(horizons), 2))
    out[:, :, 1] = lo[:, None] + 0.1 * (data.times[-1] + np.asarray(horizons))
    return out


def _forecast_parameters(chain: ChainOutput, scenario: str):
    """Coefficients, AR coefficient, measurement and state variances, and
    terminal state of each unit, per draw: (draws or 1, units[, k]) arrays."""
    if scenario == "individual_info":
        if "s_last" not in chain.common:
            raise ValueError("individual_info needs the chain of run_m2_individual")
        return tuple(chain.common[name]
                     for name in ("coef", "rho_i", "sigma2_u", "sigma2_eps", "s_last"))
    k = chain.common["alpha"].shape[1]
    names = ["s_last", "delta_rho", "delta_sigma_u", "delta_sigma_eps"]
    names += [f"delta_alpha_{j}" for j in range(k)]
    missing = [name for name in names if name not in chain.unit]
    if missing:
        raise ValueError(f"chain lacks stored unit draws needed for forecasting: {missing}")
    # period-T variances are carried forward beyond the sample
    common = [chain.common["alpha"], chain.common["rho"], chain.common["sigma2_u"][:, -1],
              chain.common["sigma2_eps"][:, -1]]
    unit = [chain.unit[name] for name in names]
    if scenario == "full_info_no_param_unc":  # every draw uses the posterior means
        common = [a.mean(axis=0, keepdims=True) for a in common]
        unit = [chain.unit_means[name][None] for name in names]
    alpha, rho, sig2_u, sig2_eps = common
    s_last, delta_rho, delta_su, delta_se = unit[:4]
    return (alpha[:, None, :] + np.stack(unit[4:], axis=-1), rho[:, None] + delta_rho,
            sig2_u[:, None] * delta_su, sig2_eps[:, None] * delta_se, s_last)


def predict(chain: ChainOutput, data: PanelData, horizons: Sequence[int], scenario: str, rng
            ) -> PredictiveDraws:
    """Posterior-predictive simulation for the latent-state panel model.

    `chain` is the full-panel ChainOutput of `run_m2` for the two
    full-information scenarios, or the ChainOutput of `run_m2_individual`
    on the panel's units for the individual-information scenario. Each
    retained draw gives every unit one simulated path, all (draws x units)
    paths in one pass; `full_info_no_param_unc` uses the posterior means
    for every draw. Paths step through every period up to the largest of
    the distinct `horizons`, and the period-one conditional moments are
    returned whatever the horizons.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    horizons = tuple(sorted(int(h) for h in horizons))
    if not horizons or horizons[0] < 1:
        raise ValueError("horizons must be positive integers")
    if len(set(horizons)) < len(horizons):
        raise ValueError(f"horizons must be distinct, got {horizons}")
    gen = as_generator(rng)
    steps = horizons[-1]
    x_path = _terminal_regressors(data, range(1, steps + 1))
    shape = (chain.n_draws, data.y.shape[0])
    coef, rho_i, u_var, e_var, s0 = _forecast_parameters(chain, scenario)
    if s0.shape[1] != shape[1]:
        raise ValueError(f"the chain covers {s0.shape[1]} units, the panel {shape[1]}")
    rho_i, u_var, e_var, s0 = (np.broadcast_to(a, shape) for a in (rho_i, u_var, e_var, s0))
    sd_eps, sd_u = (np.broadcast_to(np.sqrt(v)[..., None], shape + (steps,)) for v in (e_var, u_var))
    # each step draws its state shock for every path, then its measurement shock
    eps, u = np.moveaxis(gen.standard_normal((steps, 2) + shape), (0, 1), (-1, 0))
    # (draws or 1, units, steps); a sum over the regressors costs less than a
    # reduction over their short axis
    mean = sum(x_path[..., j] * coef[:, :, None, j] for j in range(x_path.shape[-1]))
    _, y = m2_forward(s0, rho_i, mean, sd_eps, sd_u, eps, u)
    return PredictiveDraws(y[..., [h - 1 for h in horizons]], mean[..., 0] + rho_i * s0,
                           e_var + u_var, scenario, horizons, data.unit_ids)


def score(pred: PredictiveDraws, realized: np.ndarray) -> ScoreReport:
    """MSE of the predictive mean and the average log predictive score at
    horizon one. The density at each realization is the average over draws
    of the Normal density implied by that draw's mean and variance."""
    if 1 not in pred.horizons:
        raise ValueError("scoring requires horizon-1 predictions")
    realized = np.asarray(realized, dtype=float)
    if realized.shape != (pred.n_units,):
        raise ValueError("realized outcomes must align with horizon-1 predictions")
    mse = float(np.mean((pred.predictive_mean(1) - realized) ** 2))
    m, v = pred.h1_means, pred.h1_vars
    n_draws = m.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        logpdf = np.where(
            v > 0,
            -0.5 * (np.log(2.0 * np.pi * np.where(v > 0, v, 1.0))
                    + (realized[None, :] - m) ** 2 / np.where(v > 0, v, 1.0)),
            np.where(np.isclose(m, realized[None, :]), np.inf, -np.inf),
        )
        # log-mean-exp over draws, shifted by each column's finite maximum: a
        # column holding +inf gives +inf, and an all -inf column gives -inf
        peak = logpdf.max(axis=0)
        shift = np.where(np.isfinite(peak), peak, 0.0)
        per_unit = np.log(np.exp(logpdf - shift).sum(axis=0)) + shift - np.log(n_draws)
    zero = [pred.unit_ids[i] for i in np.flatnonzero(np.isneginf(per_unit))]
    lps = float(np.mean(per_unit)) if not zero else float("-inf")
    return ScoreReport(mse=mse, lps=lps, per_unit_lps=per_unit, zero_density_units=zero)


@dataclass
class WidthRatioReport:
    """Per-unit interval-width ratios and group means."""

    ratios: np.ndarray  # (n_units,) with NaN for excluded units
    excluded_units: List[str]
    core_mean: float
    deviator_mean: float
    overall_mean: float


def interval_width_ratios(numerator: PredictiveDraws, denominator: PredictiveDraws,
                          level: float = 0.90, horizon: int = 1,
                          core_mask: Optional[np.ndarray] = None) -> WidthRatioReport:
    """Ratio of equal-tail interval widths per unit, with group means for
    core units (posterior probability of no deviation at least one half)
    versus deviators. Units with a zero-width denominator are excluded and
    reported."""
    if numerator.n_units != denominator.n_units:
        raise ValueError("scenario outputs cover different numbers of units")
    lo_n, hi_n = numerator.interval(horizon, level)
    lo_d, hi_d = denominator.interval(horizon, level)
    width_n = hi_n - lo_n
    width_d = hi_d - lo_d
    ratios = np.full(numerator.n_units, np.nan)
    ok = width_d > 0
    ratios[ok] = width_n[ok] / width_d[ok]
    excluded = [numerator.unit_ids[i] for i in np.flatnonzero(~ok)]
    if core_mask is None:
        core_mask = np.zeros(numerator.n_units, dtype=bool)
    core_mask = np.asarray(core_mask, dtype=bool)

    def group_mean(mask):
        vals = ratios[mask & ok]
        return float(vals.mean()) if vals.size else float("nan")

    return WidthRatioReport(
        ratios=ratios,
        excluded_units=excluded,
        core_mean=group_mean(core_mask),
        deviator_mean=group_mean(~core_mask),
        overall_mean=group_mean(np.ones_like(core_mask)),
    )


def core_units_from_chain(chain: ChainOutput, label: str = "alpha") -> np.ndarray:
    """Units whose posterior probability of no deviation is at least 1/2."""
    return 1.0 - chain.unit_means[f"z_{label}"] >= 0.5


def inequality_decomposition(theta: CommonState, n: int = 10_000, t: int = 20,
                             rng=None) -> DecompositionResult:
    """Cross-sectional variance of simulated outcomes for a cohort starting
    at experience 1, and the shares attributable to intercept heterogeneity
    and to the transitory shock.

    The three simulations (baseline, intercepts equalized, transitory shock
    off) share every random draw, so the counterfactual variances differ
    from the baseline only through the channel being shut down.
    """
    gen = as_generator(rng)
    truth = draw_unit_deviations(theta, n, gen, blocks=M2_BLOCKS)
    s0 = theta.mu_s0 + np.sqrt(theta.v_s0) * gen.standard_normal(n)
    eps = gen.standard_normal((n, t))
    u = gen.standard_normal((n, t))
    sd_eps = np.sqrt(np.broadcast_to(theta.sigma2_eps, (t,)) * truth.delta_sigma_eps[:, None])
    sd_u = np.sqrt(np.broadcast_to(theta.sigma2_u, (t,)) * truth.delta_sigma_u[:, None])
    alpha = np.atleast_1d(np.asarray(theta.alpha, dtype=float))
    x = np.stack([np.ones(t), np.arange(1, t + 1) / 10.0], axis=-1)  # experience 1..t

    def variance_path(coef, sd_u):
        _, y = m2_forward(s0, theta.rho + truth.delta_rho, np.sum(x * coef[:, None, :], axis=-1),
                          sd_eps, sd_u, eps, u)
        # one contiguous row per period: y.var(axis=0) would sum in another order
        return np.ascontiguousarray(y.T).var(axis=1)

    return DecompositionResult(
        v_baseline=variance_path(alpha + truth.delta_alpha, sd_u),
        v_no_alpha_dev=variance_path(alpha[None, :], sd_u),
        v_no_transitory=variance_path(alpha + truth.delta_alpha, np.zeros((1, t))),
    )


FAN_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def write_fan_chart(pred: PredictiveDraws, out_path) -> None:
    """Plot-ready long-format CSV: unit, horizon, quantile (FAN_QUANTILES), value."""
    qs = np.quantile(pred.draws, FAN_QUANTILES, axis=0)  # (quantile, unit, horizon)
    write_csv(out_path, ["unit", "horizon", "quantile", "value"], (
        [unit, h, format(q, "g"), qs[qi, i, j]]
        for j, h in enumerate(pred.horizons) for i, unit in enumerate(pred.unit_ids)
        for qi, q in enumerate(FAN_QUANTILES)))


def write_scores(reports: Dict[str, ScoreReport], out_path) -> None:
    write_csv(out_path, ["scenario", "mse", "lps", "zero_density_units"],
              ([name, rep.mse, rep.lps, ";".join(rep.zero_density_units)]
               for name, rep in reports.items()))


def write_decomposition(result: DecompositionResult, out_path) -> None:
    columns = (result.v_baseline, result.v_no_alpha_dev, result.v_no_transitory,
               result.alpha_share, result.transitory_share)
    write_csv(out_path, ["t", "v_baseline", "v_no_alpha_dev", "v_no_transitory",
                         "alpha_share", "transitory_share"],
              ([step + 1] + [arr[step] for arr in columns] for step in range(result.v_baseline.size)))
