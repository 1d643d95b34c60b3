"""Dense reference computations for the state-space model's tests.

`dense_state_draw` is the per-unit dense form of the M2 state block: for each
unit it builds the full (T+k) x (T+k) posterior precision, factors it, and
draws from it. Variables are ordered states first, as in the banded sampler,
so the same noise arrays give the same draw.
"""

import numpy as np
from scipy import special

from sparsepanel.blocks import _log_odds_prior
from sparsepanel.m2 import _state_precision_1t


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
        q_s, _ = _state_precision_1t(phi, eps_vars, common.v_s0)
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
