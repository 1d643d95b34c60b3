"""Gibbs sampler for the dynamic panel regression model.

y_it = alpha + delta_alpha_i + (rho + delta_rho_i) y_{i,t-1}
       + sigma * sqrt(delta_sigma_i) * u_it,   y_i0 given (zero in simulations).

Variants: spike-and-slab with common noise variance ("ss_homosk"), with
unit-specific variance discrepancies ("ss_hetsk"), all-common coefficients
("homogeneous"), and every-unit-deviates versions ("full_hetero_homosk",
"full_hetero_hetsk").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from sparsepanel.blocks import (
    CommonState,
    HyperParams,
    RwmhAdaptState,
    UnitState,
    update_common_regression,
    update_indicator_and_deviation_ig,
    update_indicator_and_deviation_normal,
    update_q,
    update_v_delta_normal,
    update_v_delta_sigma_rwmh,
)
from sparsepanel.chainout import ChainOutput, ConfigurationError, DrawRecorder, check_chain_lengths
from sparsepanel.distributions import sample_inverse_gamma
from sparsepanel.panel import PanelData
from sparsepanel.rng import as_generator, draw_each

VARIANTS = ("ss_homosk", "ss_hetsk", "homogeneous", "full_hetero_homosk", "full_hetero_hetsk")


@dataclass
class M1Config:
    variant: str = "ss_homosk"
    n_draws: int = 5000
    burn_in: int = 2500
    thin: int = 1
    hyper: HyperParams = field(default_factory=HyperParams.m1_defaults)
    store_unit_draws: bool = True
    # Normal prior of (alpha, rho), built once here rather than in every sweep.
    coef_prior_mean: np.ndarray = field(init=False, repr=False, compare=False)
    coef_prior_cov: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        check_chain_lengths(self.n_draws, self.burn_in, self.thin)
        if self.heteroskedastic and self.hyper.v_delta_sigma is None:
            raise ConfigurationError(f"variant {self.variant!r} needs a v_delta_sigma prior")
        if self.hyper.sigma2 is None or self.hyper.v_delta_alpha is None:
            raise ConfigurationError("hyper must carry sigma2 and v_delta_alpha priors")
        self.coef_prior_mean = np.array([float(self.hyper.mu_alpha), self.hyper.mu_rho])
        self.coef_prior_cov = np.diag([float(self.hyper.v_alpha), self.hyper.v_rho])

    @property
    def heteroskedastic(self) -> bool:
        return self.variant in ("ss_hetsk", "full_hetero_hetsk")

    @property
    def pinned_q(self) -> Optional[float]:
        """The inclusion probability the variant fixes (0 or 1); None where q is sampled."""
        return {"homogeneous": 0.0, "full_hetero_homosk": 1.0, "full_hetero_hetsk": 1.0}.get(self.variant)


def init_m1_state(shape, config: M1Config, theta: Optional[CommonState] = None):
    """First state for unit arrays of `shape`, N or (R, N) with (R,) common parameters:
    these at `theta` (held there by the known-truth reference estimator) or at
    their prior means, and every unit at the spike (the slab in full_hetero)."""
    shape = tuple(np.atleast_1d(shape))
    hyper, hetsk = config.hyper, config.heteroskedastic
    if theta is None:
        q0 = config.pinned_q
        if q0 is None:
            q0 = hyper.a / (hyper.a + hyper.b)
        theta = CommonState(
            alpha=float(hyper.mu_alpha), rho=float(hyper.mu_rho), sigma2=hyper.sigma2.mean,
            q={"alpha": q0, "rho": q0, "sigma": q0 if hetsk else 0.0},
            v_delta_alpha=hyper.v_delta_alpha.mean, v_delta_rho=hyper.v_delta_rho.mean,
            v_delta_sigma=hyper.v_delta_sigma.mean if hetsk else None,
        )

    def fill(value):  # v_delta_sigma of a homoskedastic theta is None; it is never used
        return np.full(shape[:-1], 1.0 if value is None else value)[()]

    common = CommonState(q={label: fill(value) for label, value in theta.q.items()},
                         **{name: fill(getattr(theta, name)) for name in (
                             "alpha", "rho", "sigma2", "v_delta_alpha", "v_delta_rho", "v_delta_sigma")})
    z_init = 1 if config.variant.startswith("full_hetero") else 0
    units = UnitState(
        z={label: np.full(shape, z_init if hetsk or label != "sigma" else 0, dtype=np.int64)
           for label in ("alpha", "rho", "sigma")},
        delta_alpha=np.zeros(shape),
        delta_rho=np.zeros(shape),
        delta_sigma=np.ones(shape),
    )
    return common, units


def per_unit(x):
    """A common parameter, scalar or (R,), shaped to broadcast against unit arrays."""
    return x[..., None] if isinstance(x, np.ndarray) else x


class UnitMoments:
    """The per-unit sums through which the panel enters every M1 conditional.

    With lag L_it = y_{i,t-1} and residual e_it = y_it - a - r L_it, the
    blocks need only sum_t e_it, sum_t L_it e_it and sum_t e_it^2. These come
    from the unit means of L and y and their centred cross products, which
    stay accurate on panels far from zero, where uncentred sums cancel.
    `y0` and `Y` may carry a leading replication axis, (R, N) and (R, N, T).
    """

    def __init__(self, y0, Y):
        L = np.concatenate([y0[..., None], Y[..., :-1]], axis=-1)
        self.t = Y.shape[-1]
        self.sum_l = L.sum(axis=-1)
        self.sum_ll = (L * L).sum(axis=-1)
        self.mean_l = self.sum_l / self.t
        self.mean_y = Y.mean(axis=-1)
        dl = L - self.mean_l[..., None]
        dy = Y - self.mean_y[..., None]
        self.c_ll = (dl * dl).sum(axis=-1)
        self.c_ly = (dl * dy).sum(axis=-1)
        self.c_yy = (dy * dy).sum(axis=-1)

    def mean_resid(self, a, r):
        """Unit means of e_it; `a` and `r` are per-unit arrays or `per_unit` parameters."""
        return self.mean_y - a - r * self.mean_l

    def lag_resid(self, r, mean_resid):
        """sum_t L_it e_it, given the `mean_resid(a, r)` of the same a and r."""
        return self.c_ly - r * self.c_ll + self.sum_l * mean_resid

    def ssr(self, a, r):
        """sum_t e_it^2."""
        m = self.mean_resid(a, r)
        return self.c_yy - 2.0 * r * self.c_ly + r * r * self.c_ll + self.t * m * m


def _draw_joint_deviations(moments: UnitMoments, alpha, rho, w, v_alpha, v_rho, gen):
    """Vectorized bivariate Normal draw of (delta_alpha_i, delta_rho_i) for
    the every-unit-deviates variants, on y minus the common part."""
    a = 1.0 / v_alpha + w * moments.t
    b = w * moments.sum_l
    c = 1.0 / v_rho + w * moments.sum_ll
    det = a * c - b * b
    mean_e = moments.mean_resid(alpha, rho)
    s_a = w * (moments.t * mean_e)
    s_r = w * moments.lag_resid(rho, mean_e)
    mean_a = (c * s_a - b * s_r) / det
    mean_r = (a * s_r - b * s_a) / det
    # Cholesky of the 2x2 posterior covariance [[c,-b],[-b,a]]/det, closed form.
    c11 = np.sqrt(c / det)
    c21 = -b / det / c11
    c22 = np.sqrt(a / det - c21**2)
    e1, e2 = np.moveaxis(draw_each(gen, lambda g: g.standard_normal((2, w.shape[-1]))), -2, 0)
    return mean_a + c11 * e1, mean_r + c21 * e1 + c22 * e2


def m1_sweep(y0, Y, common: CommonState, units: UnitState, config: M1Config, adapt, gen,
             fixed_common: bool = False, adapt_enabled: bool = True,
             moments: Optional[UnitMoments] = None) -> None:
    """One full Gibbs sweep, updating `common` and `units` in place.

    With a list of R generators it sweeps R replications at once (see
    `blocks`): common parameters and `adapt.log_step` are (R,), unit arrays
    (R, N), and `y0` and `Y` stack the panels, (R*N,) and (R*N, T).
    With `fixed_common` only the per-unit indicator/deviation blocks run,
    which is the posterior used by the known-truth reference estimator.
    `moments` are the `UnitMoments` a chain builds once; without them
    the sweep builds its own, as a chain that redraws Y every sweep needs.
    """
    hyper = config.hyper
    shape = units.delta_alpha.shape
    m = UnitMoments(np.reshape(y0, shape), np.reshape(Y, shape + (-1,))) if moments is None else moments
    t = m.t
    hetsk = config.heteroskedastic
    ss = config.variant in ("ss_homosk", "ss_hetsk")
    full = config.variant.startswith("full_hetero")
    homog = config.variant == "homogeneous"

    w = 1.0 / (per_unit(common.sigma2) * units.delta_sigma)

    if not fixed_common:
        # Common regression coefficients, on y - delta_alpha - delta_rho * L.
        mean_e = m.mean_resid(units.delta_alpha, units.delta_rho)
        sum_w_l = (w * m.sum_l).sum(axis=-1)
        # built with the replication axis last; .T moves it first, and a symmetric 2x2 stays
        xtx = np.array([[w.sum(axis=-1) * t, sum_w_l], [sum_w_l, (w * m.sum_ll).sum(axis=-1)]]).T
        xty = np.array([(w * (t * mean_e)).sum(axis=-1),
                        (w * m.lag_resid(units.delta_rho, mean_e)).sum(axis=-1)]).T
        draw, _, _ = update_common_regression(
            config.coef_prior_mean, config.coef_prior_cov, xtx, xty, gen
        )
        common.alpha, common.rho = draw.T

        if ss:
            common.q["alpha"] = update_q(units.z["alpha"], hyper.a, hyper.b, gen)
            common.q["rho"] = update_q(units.z["rho"], hyper.a, hyper.b, gen)
            if hetsk:
                common.q["sigma"] = update_q(units.z["sigma"], hyper.a, hyper.b, gen)
        if not homog:
            common.v_delta_alpha = update_v_delta_normal(
                units.z["alpha"], units.delta_alpha, hyper.v_delta_alpha, gen
            )
            common.v_delta_rho = update_v_delta_normal(
                units.z["rho"], units.delta_rho, hyper.v_delta_rho, gen
            )
            if hetsk:
                common.v_delta_sigma, _ = update_v_delta_sigma_rwmh(
                    common.v_delta_sigma, units.z["sigma"], units.delta_sigma,
                    hyper.v_delta_sigma, adapt, gen, adapt_enabled=adapt_enabled,
                )

    alpha, rho = per_unit(common.alpha), per_unit(common.rho)
    if not homog:
        if full:
            units.delta_alpha, units.delta_rho = _draw_joint_deviations(
                m, alpha, rho, w, per_unit(common.v_delta_alpha), per_unit(common.v_delta_rho), gen
            )
            units.z["alpha"][:] = 1
            units.z["rho"][:] = 1
        else:
            mean_e = m.mean_resid(alpha, rho + units.delta_rho)
            units.z["alpha"], units.delta_alpha = update_indicator_and_deviation_normal(
                per_unit(common.q["alpha"]), per_unit(common.v_delta_alpha), t * w, w * (t * mean_e), gen
            )
            mean_e = m.mean_resid(alpha + units.delta_alpha, rho)
            units.z["rho"], units.delta_rho = update_indicator_and_deviation_normal(
                per_unit(common.q["rho"]), per_unit(common.v_delta_rho),
                w * m.sum_ll, w * m.lag_resid(rho, mean_e), gen,
            )

    if hetsk or not fixed_common:
        ssr = m.ssr(alpha + units.delta_alpha, rho + units.delta_rho)
    if hetsk:
        q_sigma = 1.0 if full else per_unit(common.q["sigma"])
        units.z["sigma"], units.delta_sigma = update_indicator_and_deviation_ig(
            q_sigma, per_unit(common.v_delta_sigma), ssr / per_unit(common.sigma2), t, gen
        )

    if not fixed_common:
        ssr_scaled = (ssr / units.delta_sigma).sum(axis=-1)
        common.sigma2 = sample_inverse_gamma(hyper.sigma2.nu + shape[-1] * t,
                                             hyper.sigma2.tau + ssr_scaled, gen)


def _extract_arrays(data: PanelData):
    if not data.balanced:
        raise ConfigurationError("estimation requires a fully observed panel")
    if data.n_periods < 3:
        raise ConfigurationError("need at least 3 periods (T >= 2)")
    return data.y[:, 0], data.y[:, 1:]


def run_m1(data, config: M1Config, rng,
           fixed_common: Optional[CommonState] = None) -> ChainOutput:
    """Run the Gibbs sampler and record its post-burn-in, thinned draws.

    `data` and `rng` may be lists of R panels of one shape and their streams:
    the replications then run as one chain, common draws (kept, R) and unit
    means (R, N), each consuming its stream as a chain on its panel alone does.
    `fixed_common` holds the shared parameters at the given values and updates
    only the per-unit blocks (known-truth reference posterior).
    """
    if isinstance(data, list):
        gen = [as_generator(r) for r in rng]
        y0, Y = (np.stack(arrays) for arrays in zip(*map(_extract_arrays, data)))
        unit_ids = data[0].unit_ids
    else:
        gen = as_generator(rng)
        y0, Y = _extract_arrays(data)
        unit_ids = data.unit_ids
    common, units = init_m1_state(y0.shape, config, fixed_common)
    labels = ("alpha", "rho", "sigma") if config.heteroskedastic else ("alpha", "rho")
    moments = UnitMoments(y0, Y)
    adapt = RwmhAdaptState(log_step=np.zeros(y0.shape[:-1])[()])
    recorder = DrawRecorder(config.n_draws, config.burn_in, config.thin, config.store_unit_draws)
    # the sweep takes the replications' panels stacked: (R*N,) and (R*N, T)
    y0_flat, Y_flat = y0.reshape(-1), Y.reshape(-1, Y.shape[-1])
    for j in range(config.n_draws):
        m1_sweep(
            y0_flat, Y_flat, common, units, config, adapt, gen,
            fixed_common=fixed_common is not None, adapt_enabled=j < config.burn_in,
            moments=moments,
        )
        if not recorder.keeps(j):
            continue
        draw = {"alpha": common.alpha, "rho": common.rho, "sigma2": common.sigma2}
        for label in labels:
            draw["q_" + label] = common.q[label]
            draw["v_delta_" + label] = getattr(common, "v_delta_" + label)
        unit = {}
        for label in ("alpha", "rho", "sigma"):
            unit["delta_" + label] = getattr(units, "delta_" + label)
            unit["z_" + label] = units.z[label]
        recorder.record(draw, unit, means_only={
            "alpha_i": per_unit(common.alpha) + units.delta_alpha,
            "rho_i": per_unit(common.rho) + units.delta_rho,
            "sigma2_i": per_unit(common.sigma2) * units.delta_sigma})
    return recorder.output(
        {"model": "m1", "variant": config.variant},
        diagnostics={
            "rwmh_acceptance": adapt.acceptance_rate if config.heteroskedastic else float("nan"),
            "rwmh_step": adapt.step,
        },
        unit_ids=unit_ids,
    )
