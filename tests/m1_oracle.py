"""Residual-matrix reference for the dynamic panel model's Gibbs sweep.

`m1_sweep_reference` is the M1 sweep written directly from the conditionals:
each block rebuilds the lag matrix and the (N, T) residuals it needs and
reduces them. `sparsepanel.m1.m1_sweep` reads per-unit moments instead, and
the tests hold it to this form draw for draw on a shared seed.
"""

import numpy as np

from sparsepanel.blocks import (
    CommonState,
    UnitState,
    update_common_regression,
    update_indicator_and_deviation_ig,
    update_indicator_and_deviation_normal,
    update_q,
    update_v_delta_normal,
    update_v_delta_sigma_rwmh,
)
from sparsepanel.distributions import sample_inverse_gamma
from sparsepanel.m1 import M1Config


def _draw_joint_deviations(resid0, L, w, v_alpha, v_rho, gen):
    """Vectorized bivariate Normal draw of (delta_alpha_i, delta_rho_i) for
    the every-unit-deviates variants. `resid0` is y minus the common part."""
    n, t = resid0.shape
    sum_l = L.sum(axis=1)
    sum_l2 = (L * L).sum(axis=1)
    a = 1.0 / v_alpha + w * t
    b = w * sum_l
    c = 1.0 / v_rho + w * sum_l2
    det = a * c - b * b
    s_a = w * resid0.sum(axis=1)
    s_r = w * (L * resid0).sum(axis=1)
    mean_a = (c * s_a - b * s_r) / det
    mean_r = (a * s_r - b * s_a) / det
    # Cholesky of the 2x2 posterior covariance [[c,-b],[-b,a]]/det, closed form.
    c11 = np.sqrt(c / det)
    c21 = -b / det / c11
    c22 = np.sqrt(a / det - c21**2)
    e1 = gen.standard_normal(n)
    e2 = gen.standard_normal(n)
    return mean_a + c11 * e1, mean_r + c21 * e1 + c22 * e2


def m1_sweep_reference(y0, Y, common: CommonState, units: UnitState, config: M1Config, adapt,
                       gen, fixed_common: bool = False, adapt_enabled: bool = True) -> None:
    """One full Gibbs sweep, updating `common` and `units` in place.

    With `fixed_common` only the per-unit indicator/deviation blocks run,
    which is the posterior used by the known-truth reference estimator.
    """
    hyper = config.hyper
    n, t = Y.shape
    L = np.column_stack([y0, Y[:, :-1]])
    hetsk = config.heteroskedastic
    ss = config.variant in ("ss_homosk", "ss_hetsk")
    full = config.variant.startswith("full_hetero")
    homog = config.variant == "homogeneous"

    w = 1.0 / (common.sigma2 * units.delta_sigma)

    if not fixed_common:
        # Common regression coefficients.
        y_tilde = Y - units.delta_alpha[:, None] - units.delta_rho[:, None] * L
        sum_l = L.sum(axis=1)
        xtx = np.array(
            [
                [np.sum(w) * t, np.sum(w * sum_l)],
                [np.sum(w * sum_l), np.sum(w * (L * L).sum(axis=1))],
            ]
        )
        xty = np.array(
            [np.sum(w * y_tilde.sum(axis=1)), np.sum(w * (L * y_tilde).sum(axis=1))]
        )
        prior_cov = np.diag([float(hyper.v_alpha), hyper.v_rho])
        draw, _, _ = update_common_regression(
            np.array([float(hyper.mu_alpha), hyper.mu_rho]), prior_cov, xtx, xty, gen
        )
        common.alpha, common.rho = float(draw[0]), float(draw[1])

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
                    hyper.v_delta_sigma, adapt, gen,
                    adapt_enabled=adapt_enabled,
                )

    if not homog:
        if full:
            resid0 = Y - common.alpha - common.rho * L
            units.delta_alpha, units.delta_rho = _draw_joint_deviations(
                resid0, L, w, common.v_delta_alpha, common.v_delta_rho, gen
            )
            units.z["alpha"][:] = 1
            units.z["rho"][:] = 1
        else:
            resid_a = Y - common.alpha - (common.rho + units.delta_rho)[:, None] * L
            units.z["alpha"], units.delta_alpha = update_indicator_and_deviation_normal(
                common.q["alpha"], common.v_delta_alpha, t * w, w * resid_a.sum(axis=1), gen
            )
            resid_r = Y - common.alpha - units.delta_alpha[:, None] - common.rho * L
            units.z["rho"], units.delta_rho = update_indicator_and_deviation_normal(
                common.q["rho"], common.v_delta_rho,
                w * (L * L).sum(axis=1), w * (L * resid_r).sum(axis=1), gen,
            )
        if hetsk:
            resid = Y - (common.alpha + units.delta_alpha)[:, None] - (common.rho + units.delta_rho)[:, None] * L
            ssr = (resid * resid).sum(axis=1) / common.sigma2
            q_sigma = 1.0 if full else common.q["sigma"]
            units.z["sigma"], units.delta_sigma = update_indicator_and_deviation_ig(
                q_sigma, common.v_delta_sigma, ssr, np.full(n, t), gen
            )

    if not fixed_common:
        resid = Y - (common.alpha + units.delta_alpha)[:, None] - (common.rho + units.delta_rho)[:, None] * L
        ssr_w = float(np.sum((resid * resid).sum(axis=1) / units.delta_sigma))
        common.sigma2 = float(sample_inverse_gamma(hyper.sigma2.nu + n * t,
                                                   hyper.sigma2.tau + ssr_w, gen))
