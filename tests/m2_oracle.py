"""Dense reference computations for the state-space model's tests.

`dense_state_draw` is the per-unit dense form of the M2 state block: for each
unit it builds the full (T+k) x (T+k) posterior precision, factors it, and
draws from it. `dense_individual_draw` does the same for the single-unit
model, built from its own priors. Variables are ordered states first, as in
the banded sampler, so the same noise arrays give the same draw.
"""

import numpy as np
from scipy import special

from sparsepanel.blocks import _log_odds_prior


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
