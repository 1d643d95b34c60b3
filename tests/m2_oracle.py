"""Dense reference computations for the state-space model's tests.

`dense_state_draw` is the per-unit dense form of the M2 state block: for each
unit it builds the full (T+k) x (T+k) posterior precision, factors it, and
draws from it. `dense_individual_draw` does the same for the single-unit
model, built from its own priors. Variables are ordered states first, as in
the banded sampler, so the same noise arrays give the same draw.

`reference_m2_sweep` and `reference_state_draw` are the Gibbs sweep and the
banded state block written directly from the conditionals: every block
rebuilds the (N, T) residuals and weighted sums it needs, and the Schur
complement goes through LAPACK. `sparsepanel.m2.m2_sweep` reads per-chain
panel moments and closed forms instead, and the tests hold it to this form
draw for draw on a shared seed.
"""

from typing import Dict

import numpy as np
from scipy import special

from sparsepanel.blocks import (
    CommonState,
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
from sparsepanel.distributions import expit, sample_inverse_gamma
from sparsepanel.m2 import M2Config, StateDraw


def state_precision_1t(phi: float, eps_vars: np.ndarray, v_s0: float):
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


def build_state_prior_cov(phi: float, eps_vars, v_s0: float) -> np.ndarray:
    """Prior covariance of (s_0, ..., s_T) for one unit.

    `eps_vars[t-1]` is the state innovation variance in period t (already
    scaled by the unit's variance discrepancy). Var(s_0) = v_s0 and the
    autoregression with coefficient `phi` propagates it forward:
    V(t,t) = phi^2 V(t-1,t-1) + eps_vars[t-1], V(t, tau) = phi^{|t-tau|} V(min, min).
    """
    eps_vars = np.asarray(eps_vars, dtype=float)
    t_len = eps_vars.size
    diag = np.empty(t_len + 1)
    diag[0] = v_s0
    for t in range(1, t_len + 1):
        diag[t] = phi**2 * diag[t - 1] + eps_vars[t - 1]
    cov = np.empty((t_len + 1, t_len + 1))
    for t in range(t_len + 1):
        cov[t, t] = diag[t]
        for tau in range(t + 1, t_len + 1):
            cov[t, tau] = cov[tau, t] = phi ** (tau - t) * diag[t]
    return cov


def dense_state_draw(y, x, mask, common, units, hetero, u, e, e0) -> dict:
    """Per-unit dense draw of (z_alpha, states, delta_alpha), then s_0.

    Returns arrays over units: "log_odds", "logdet_p0", "logdet_p1", "z",
    "delta_alpha", "s" (s_0 first), and the posterior means given the drawn
    indicator, "mean_states" and "mean_delta_alpha".
    """
    n, t_len, k = x.shape
    q = {None: common.q["alpha"], False: 0.0, True: 1.0}[hetero]
    prec_alpha = np.linalg.inv(np.atleast_2d(common.v_delta_alpha))
    logdet_v_alpha = np.linalg.slogdet(np.atleast_2d(common.v_delta_alpha))[1]
    out = {name: np.empty(n) for name in ("log_odds", "logdet_p0", "logdet_p1")}
    out |= {"z": np.empty(n, dtype=np.int64), "delta_alpha": np.empty((n, k)),
            "s": np.empty((n, t_len + 1)), "mean_states": np.empty((n, t_len)),
            "mean_delta_alpha": np.empty((n, k))}
    for i in range(n):
        phi = common.rho + units.delta_rho[i]
        eps_vars = common.sigma2_eps * units.delta_sigma_eps[i]
        q_s, _ = state_precision_1t(phi, eps_vars, common.v_s0)
        m_states = common.mu_s0 * phi ** np.arange(1, t_len + 1)
        d = np.where(mask[i], 1.0 / (common.sigma2_u * units.delta_sigma_u[i]), 0.0)
        y_check = np.where(mask[i], y[i] - x[i] @ common.alpha, 0.0)
        xd = x[i] * d[:, None]

        p0 = q_s + np.diag(d)
        b0 = q_s @ m_states + d * y_check
        chol0 = np.linalg.cholesky(p0)
        mean0 = np.linalg.solve(p0, b0)

        p1 = np.zeros((t_len + k, t_len + k))
        p1[:t_len, :t_len] = p0
        p1[:t_len, t_len:] = xd
        p1[t_len:, :t_len] = xd.T
        p1[t_len:, t_len:] = prec_alpha + x[i].T @ xd
        b1 = np.concatenate([b0, xd.T @ y_check])
        chol1 = np.linalg.cholesky(p1)
        mean1 = np.linalg.solve(p1, b1)

        logdet_p0 = 2.0 * np.sum(np.log(np.diag(chol0)))
        logdet_p1 = 2.0 * np.sum(np.log(np.diag(chol1)))
        log_k = (_log_odds_prior(q) - 0.5 * (logdet_v_alpha + logdet_p1 - logdet_p0)
                 + 0.5 * (b1 @ mean1 - b0 @ mean0))
        z_i = int(u[i] < special.expit(log_k))
        if z_i:
            mean = mean1
            draw = mean1 + np.linalg.solve(chol1.T, e[i])
        else:
            mean = np.concatenate([mean0, np.zeros(k)])
            draw = np.concatenate([mean0 + np.linalg.solve(chol0.T, e[i, :t_len]), np.zeros(k)])
        states = draw[:t_len]

        v1 = phi**2 * common.v_s0 + eps_vars[0]
        gain = phi * common.v_s0 / v1
        mean_s0 = common.mu_s0 + gain * (states[0] - phi * common.mu_s0)
        var_s0 = common.v_s0 - gain * phi * common.v_s0
        out["s"][i, 0] = mean_s0 + np.sqrt(max(var_s0, 0.0)) * e0[i]
        out["s"][i, 1:] = states
        out["delta_alpha"][i] = draw[t_len:]
        out["mean_states"][i] = mean[:t_len]
        out["mean_delta_alpha"][i] = mean[t_len:]
        out["log_odds"][i], out["logdet_p0"][i], out["logdet_p1"][i] = log_k, logdet_p0, logdet_p1
        out["z"][i] = z_i
    return out


def dense_individual_draw(y, x, mask, priors, r, sig_u, sig_eps, e, e0) -> dict:
    """Per-unit dense draw of (states, coefficients), then s_0, for the
    single-unit model y_t = x_t' a + s_t + sigma_u u_t, s_t = r s_{t-1} +
    sigma_eps eps_t, s_0 ~ N(0, s0_var), a ~ N(0, coef_var).

    Unit i's posterior precision is [[Q_s + D, D X], [X'D, coef_var^-1 + X'DX]]
    with Q_s the tridiagonal state prior precision and D = diag(mask / sig_u).
    Returns arrays over units: "coef", "s" (s_0 first), and the posterior
    means "mean_coef" and "mean_states".
    """
    n, t_len, k = x.shape
    coef_prec = np.linalg.inv(np.atleast_2d(priors.coef_var)[:k, :k])
    out = {"coef": np.empty((n, k)), "s": np.empty((n, t_len + 1)),
           "mean_coef": np.empty((n, k)), "mean_states": np.empty((n, t_len))}
    for i in range(n):
        q_s, _ = state_precision_1t(r[i], np.full(t_len, sig_eps[i]), priors.s0_var)
        d = np.where(mask[i], 1.0 / sig_u[i], 0.0)
        y_i = np.where(mask[i], y[i], 0.0)
        x_i = np.where(mask[i][:, None], x[i], 0.0)
        p = np.zeros((t_len + k, t_len + k))
        p[:t_len, :t_len] = q_s + np.diag(d)
        p[:t_len, t_len:] = x_i * d[:, None]
        p[t_len:, :t_len] = p[:t_len, t_len:].T
        p[t_len:, t_len:] = coef_prec + x_i.T @ (x_i * d[:, None])
        b = np.concatenate([d * y_i, x_i.T @ (d * y_i)])
        mean = np.linalg.solve(p, b)
        draw = mean + np.linalg.solve(np.linalg.cholesky(p).T, e[i])
        v1 = r[i] ** 2 * priors.s0_var + sig_eps[i]
        gain = r[i] * priors.s0_var / v1
        var_s0 = priors.s0_var - gain * r[i] * priors.s0_var
        out["s"][i, 0] = gain * draw[0] + np.sqrt(max(var_s0, 0.0)) * e0[i]
        out["s"][i, 1:] = draw[:t_len]
        out["coef"][i] = draw[t_len:]
        out["mean_states"][i] = mean[:t_len]
        out["mean_coef"][i] = mean[t_len:]
    return out


def reference_state_draw(y, x, mask, common, units, hetero, u, e, e0) -> StateDraw:
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
    # fw = L0^-1 [b0, DX] for both right-hand sides. The loops run over lists
    # of row views, which index faster than the arrays they update in place.
    piv, lo = diag.T.copy(), np.zeros((t_len, n, 1))
    fw = np.concatenate([(d * y_check).T[:, :, None], xd.transpose(1, 0, 2)], axis=2)
    fw[0, :, 0] += phi * common.mu_s0 / w[:, 0]
    piv_t, lo_t, fw_t, sub_t = list(piv), list(lo[:, :, 0]), list(fw), list(sub.T)
    for t in range(1, t_len):
        np.divide(sub_t[t - 1], piv_t[t - 1], out=lo_t[t])
        piv_t[t] -= lo_t[t] * sub_t[t - 1]
    lo_t = list(lo)
    for t in range(1, t_len):
        fw_t[t] -= lo_t[t] * fw_t[t - 1]
    root_piv = np.sqrt(piv)
    fw = (fw / root_piv[:, :, None]).transpose(1, 0, 2)
    logdet_p0 = np.log(piv).sum(axis=0)

    # Schur complement for delta_alpha; its forward solve gives quad1 - quad0.
    gram = fw.transpose(0, 2, 1) @ fw  # [[b0'P0^-1 b0, w0'C], [C'w0, C'C]]
    xdt = xd.transpose(0, 2, 1)
    ls = np.linalg.cholesky(np.linalg.inv(v_alpha) + xdt @ x - gram[:, 1:, 1:])
    wa = np.linalg.solve(ls, xdt @ y_check[:, :, None] - gram[:, 1:, :1])
    logdet_s = 2.0 * np.log(ls.diagonal(0, 1, 2)).sum(axis=1)
    if hetero is None:
        log_k = (_log_odds_prior(common.q["alpha"])
                 - 0.5 * (np.linalg.slogdet(v_alpha)[1] + logdet_s)
                 + 0.5 * (wa[:, :, 0] ** 2).sum(axis=1))
        z = (u < expit(log_k)).astype(np.int64)
    else:  # a forced indicator: infinite odds, and `u` goes unused
        log_k = np.full(n, np.inf if hetero else -np.inf)
        z = np.full(n, int(hetero))
    alpha_dev = np.linalg.solve(ls.transpose(0, 2, 1), wa + e[:, t_len:, None])
    alpha_dev = np.where(z[:, None, None] == 1, alpha_dev, 0.0)

    # Back pass: states given delta_alpha, then s_0 given s_1.
    states = (fw[:, :, 0] + e[:, :t_len] - (fw[:, :, 1:] @ alpha_dev)[:, :, 0]).T / root_piv
    states_t, lo_t = list(states), list(lo[:, :, 0])
    for t in range(t_len - 1, 0, -1):
        states_t[t - 1] -= lo_t[t] * states_t[t]
    s = np.empty((n, t_len + 1))
    s[:, 1:] = states.T
    gain = phi * common.v_s0 / w[:, 0]
    var_s0 = np.maximum(common.v_s0 - gain * phi * common.v_s0, 0.0)
    s[:, 0] = common.mu_s0 + gain * (s[:, 1] - phi * common.mu_s0) + np.sqrt(var_s0) * e0
    return StateDraw(log_k, logdet_p0, logdet_p0 + logdet_s, z, alpha_dev[:, :, 0], s)


def reference_m2_sweep(y, x, mask, common: CommonState, units: UnitState, config: M2Config,
             adapts: Dict[str, RwmhAdaptState], gen, adapt_enabled: bool = True) -> None:
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
            prior = hyper.v_delta_sigma_u if label == "sigma_u" else hyper.v_delta_sigma_eps
            value, _ = update_v_delta_sigma_rwmh(
                getattr(common, "v_delta_" + label), units.z[label], getattr(units, attr), prior,
                adapts[label], gen,
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
    draw = reference_state_draw(
        y, x, mask, common, units, hetero,
        gen.random(n), gen.standard_normal((n, t_len + k)), gen.standard_normal(n),
    )
    units.z["alpha"][:], units.delta_alpha[:], units.s[:] = draw.z, draw.delta_alpha, draw.s

    # Initial-state hyperparameters.
    s0 = units.s[:, 0]
    v_bar = 1.0 / (1.0 / hyper.mu_s0_var + n / common.v_s0)
    m_bar = v_bar * (hyper.mu_s0_mean / hyper.mu_s0_var + s0.sum() / common.v_s0)
    common.mu_s0 = float(m_bar + np.sqrt(v_bar) * gen.standard_normal())
    common.v_s0 = float(sample_inverse_gamma(
        hyper.v_s0.nu + n, hyper.v_s0.tau + float(np.sum((s0 - common.mu_s0) ** 2)), gen))

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
    # IG((nu + count)/2, (tau + ssr)/2) for every period in one draw
    common.sigma2_u = sample_inverse_gamma(hyper.sigma2_u.nu + n_t, hyper.sigma2_u.tau + ssr_u_t, gen)
    common.sigma2_eps = sample_inverse_gamma(hyper.sigma2_eps.nu + n, hyper.sigma2_eps.tau + ssr_eps_t,
                                             gen)
