"""Conditional-posterior updates shared by the panel samplers.

Each update draws one block of a Gibbs sweep from its exact conditional.
Indicator/deviation blocks are vectorized across units; all posterior odds
are computed in log space so large T cannot overflow the Gamma-function
ratios. A block draws for one chain when `rng` is one stream, and for R
replications at once when it is a list of R generators (`rng.draw_each`):
parameters are then (R,), or (R, 1) where they meet (R, N) unit arrays,
every reduction over units runs per replication, and each replication draws
from its own generator exactly as it would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from sparsepanel.distributions import (
    InverseGammaSpec,
    InverseWishartSpec,
    TruncatedNormalSpec,
    _inv,
    expit,
    log_ndtr,
    sample_beta,
    sample_inverse_gamma,
    sample_inverse_wishart,
    sample_mv_normal,
    sample_truncated_normal,
)
from sparsepanel.rng import draw_each


@dataclass
class HyperParams:
    """Prior hyperparameters for one model variant."""

    v_alpha: Union[float, np.ndarray] = 1.0
    mu_alpha: Union[float, np.ndarray] = 0.0
    v_rho: float = 0.25
    mu_rho: float = 0.0
    a: float = 1.0
    b: float = 1.0
    v_delta_rho: InverseGammaSpec = field(default_factory=lambda: InverseGammaSpec(6.0, 2.0))
    # Regression model: scalar noise variance, scalar intercept-deviation variance.
    sigma2: Optional[InverseGammaSpec] = None
    v_delta_alpha: Optional[InverseGammaSpec] = None
    v_delta_sigma: Optional[InverseGammaSpec] = None
    # State-space model: per-period variances, matrix-valued intercept deviations.
    sigma2_u: Optional[InverseGammaSpec] = None
    sigma2_eps: Optional[InverseGammaSpec] = None
    v_delta_alpha_iw: Optional[InverseWishartSpec] = None
    v_delta_sigma_u: Optional[InverseGammaSpec] = None
    v_delta_sigma_eps: Optional[InverseGammaSpec] = None
    mu_s0_mean: float = 0.0
    mu_s0_var: float = 0.05
    v_s0: Optional[InverseGammaSpec] = None

    @classmethod
    def m1_defaults(cls) -> "HyperParams":
        return cls(
            v_alpha=1.0,
            v_rho=0.25,
            sigma2=InverseGammaSpec(12.0, 10.0),
            a=1.0,
            b=1.0,
            v_delta_alpha=InverseGammaSpec(6.0, 4.0),
            v_delta_rho=InverseGammaSpec(6.0, 2.0),
            v_delta_sigma=InverseGammaSpec(12.0, 10.0),
        )

    @classmethod
    def m2_defaults(cls, k: int = 2) -> "HyperParams":
        scale = np.diag([0.5, 0.1]) if k == 2 else 0.5 * np.eye(k)
        return cls(
            v_alpha=np.eye(k),
            mu_alpha=np.zeros(k),
            v_rho=1.0,
            mu_rho=0.8,
            sigma2_u=InverseGammaSpec(6.0, 0.2),
            sigma2_eps=InverseGammaSpec(6.0, 0.2),
            a=1.0,
            b=1.0,
            v_delta_alpha_iw=InverseWishartSpec(dof=k + 3.05, scale=scale),
            v_delta_rho=InverseGammaSpec(16.5, 3.625),
            v_delta_sigma_u=InverseGammaSpec(12.0, 10.0),
            v_delta_sigma_eps=InverseGammaSpec(12.0, 10.0),
            mu_s0_mean=0.0,
            mu_s0_var=0.05,
            v_s0=InverseGammaSpec(6.0, 0.2),
        )


@dataclass
class CommonState:
    """Current draw of the parameters shared across units."""

    alpha: Union[float, np.ndarray]
    rho: float
    q: dict
    v_delta_alpha: Union[float, np.ndarray]
    v_delta_rho: float
    sigma2: Optional[float] = None
    v_delta_sigma: Optional[float] = None
    sigma2_u: Optional[np.ndarray] = None
    sigma2_eps: Optional[np.ndarray] = None
    v_delta_sigma_u: Optional[float] = None
    v_delta_sigma_eps: Optional[float] = None
    mu_s0: Optional[float] = None
    v_s0: Optional[float] = None


@dataclass
class UnitState:
    """Current draw of the per-unit indicators, deviations, and states."""

    z: dict
    delta_alpha: np.ndarray
    delta_rho: np.ndarray
    delta_sigma: Optional[np.ndarray] = None
    delta_sigma_u: Optional[np.ndarray] = None
    delta_sigma_eps: Optional[np.ndarray] = None
    s: Optional[np.ndarray] = None  # states, shape (N, T+1) with column 0 = s_0


# Step-size adaptation of `update_v_delta_sigma_rwmh`: target acceptance rate,
# decay exponent of the gain, and bound on |log step|.
RWMH_TARGET_ACCEPT = 0.44
RWMH_GAIN_EXPONENT = 0.55
RWMH_LOG_STEP_CAP = 10.0


@dataclass
class RwmhAdaptState:
    """Step-size adaptation bookkeeping for the random-walk variance update."""

    log_step: Union[float, np.ndarray] = 0.0
    iteration: int = 0
    accepted: Union[int, np.ndarray] = 0
    proposed: int = 0

    @property
    def step(self):
        return np.exp(self.log_step)

    @property
    def acceptance_rate(self):
        return self.accepted / self.proposed if self.proposed else float("nan")


def _lgamma(x):
    """math.lgamma of a float, or of each element of an array."""
    if isinstance(x, np.ndarray):
        return np.array([math.lgamma(v) for v in x.ravel().tolist()]).reshape(x.shape)
    return math.lgamma(x)


def update_common_regression(prior_mean, prior_cov, xtx, xty, rng):
    """Normal draw for a regression-coefficient block.

    `xtx` and `xty` are precision-weighted data sums (sum of x x' / sigma^2 and
    x y / sigma^2 over all observations); with no data both are zero and the
    draw comes from the prior. With a leading batch axis, xtx (B, k, k) and
    xty (B, k), it draws B independent blocks under the one prior.
    """
    prior_prec = _inv(prior_cov)
    post_cov = _inv(prior_prec + xtx)
    post_cov = 0.5 * (post_cov + post_cov.swapaxes(-1, -2))
    post_mean = (post_cov @ (prior_prec @ prior_mean + xty)[..., None])[..., 0]
    draw = sample_mv_normal(post_mean, post_cov, rng)
    return draw, post_mean, post_cov


def update_q(z, a, b, rng):
    """Beta(a + psi, b + N - psi) inclusion probability, psi = number of active units."""
    n = z.shape[-1]
    return draw_each(rng, lambda gen, psi: sample_beta(a + psi, b + n - psi, gen), z.sum(axis=-1).tolist())


def update_v_delta_normal(z, deltas, spec: InverseGammaSpec, rng):
    """Variance of the Normal slab given the active deltas (those with z == 1)."""
    return sample_inverse_gamma(spec.nu + z.sum(axis=-1),
                                spec.tau + (z * (deltas * deltas)).sum(axis=-1), rng)


def update_v_delta_alpha_iw(z, deltas, spec: InverseWishartSpec, rng) -> np.ndarray:
    """Covariance of a vector-valued Normal slab given the active deviation vectors."""
    active = np.atleast_2d(np.asarray(deltas, dtype=float))[np.asarray(z, dtype=bool)]
    # The prior scale is SPD and the scatter is PSD, so the posterior scale is SPD.
    return sample_inverse_wishart(spec.dof + active.shape[0], spec.scale + active.T @ active, rng)


def _log_odds_prior(q):
    """log(q / (1 - q)) of a float or an array: -inf at q = 0, +inf at q = 1."""
    if isinstance(q, np.ndarray):
        with np.errstate(divide="ignore"):
            return np.log(q) - np.log1p(-q)
    return np.log(q) - np.log1p(-q) if 0.0 < q < 1.0 else math.copysign(math.inf, q - 0.5)


def _draw_indicators(log_k, rng):
    """Bernoulli draws from log posterior odds, robust at +-inf."""
    n = log_k.shape[-1]
    return (draw_each(rng, lambda gen: gen.random(n)) < expit(log_k)).astype(np.int64)


def update_indicator_and_deviation_normal(q, v_delta, precision, score, rng):
    """Spike/slab indicator and Normal deviation for each unit.

    `precision[i]` is the data precision sum(x^2/sigma^2) and `score[i]` the
    matching sum(x * resid / sigma^2), both computed with the unit's own
    residuals holding every other parameter fixed. Batched, `q` and `v_delta`
    are (R, 1) (or scalars).
    """
    v_bar = 1.0 / (1.0 / v_delta + precision)
    delta_bar = v_bar * score
    log_k = _log_odds_prior(q) - 0.5 * (np.log(v_delta) - np.log(v_bar)) + delta_bar**2 / (2.0 * v_bar)
    z = _draw_indicators(log_k, rng)
    noise = draw_each(rng, lambda gen: gen.standard_normal(log_k.shape[-1]))
    return z, np.where(z == 1, delta_bar + np.sqrt(v_bar) * noise, 0.0)


def update_indicator_and_deviation_ig(q, v_delta_sigma, weighted_ssr, n_obs, rng):
    """Spike/slab indicator and inverse-gamma variance deviation for each unit.

    `weighted_ssr[i]` is sum over t of resid^2 / (period variance) evaluated at
    the spike value delta = 1; `n_obs` holds the units' observation counts,
    or is one count that every unit shares. Batched, `q` and `v_delta_sigma`
    are (R, 1) (or scalars) and `n_obs` is shared by the replications.
    """
    counts = np.asarray(n_obs)
    inv_v = 1.0 / v_delta_sigma
    a = inv_v + 2.0  # the slab is IG(a, a - 1)
    nu_bar = 2.0 * inv_v + 4.0 + counts
    half_nu = nu_bar / 2.0
    tau_bar = 2.0 * inv_v + 2.0 + weighted_ssr
    # lgamma(half_nu) = lgamma(a + n/2), from a table over the few distinct counts
    if counts.ndim:
        lgamma_post = _lgamma(a + 0.5 * np.arange(int(counts.max()) + 1))[..., counts]
    else:
        lgamma_post = _lgamma(a + 0.5 * int(counts))
    unit_free = _log_odds_prior(q) - _lgamma(a) + a * np.log(inv_v + 1.0)
    log_k = unit_free + lgamma_post - half_nu * np.log(tau_bar / 2.0) + weighted_ssr / 2.0
    z = _draw_indicators(log_k, rng)
    # drawn for every unit, then masked
    return z, np.where(z == 1, sample_inverse_gamma(nu_bar, tau_bar, rng), 1.0)


def log_posterior_slab_variance(omega: float, psi, total, prior: InverseGammaSpec) -> float:
    """Unnormalized log conditional of the IG-slab variance omega > 0, given
    psi active deviations d whose sum of log(d) + 1/d is `total`."""
    inv = 1.0 / omega
    return float(
        psi * (inv + 2.0) * np.log(inv + 1.0)
        - psi * math.lgamma(inv + 2.0)
        - (prior.nu / 2.0 + 1.0) * np.log(omega)
        - inv * (total + prior.tau / 2.0)
    )


def update_v_delta_sigma_rwmh(omega, z, deltas, prior: InverseGammaSpec, adapt: RwmhAdaptState,
                              rng, adapt_enabled: bool = True):
    """One Metropolis-Hastings step on the IG-slab variance, positive-support proposal,
    given the deltas of the active units (z == 1).

    The proposal is a zero-truncated Normal centered at the current value; the
    acceptance ratio carries the truncation correction ln Phi(prop/c) - ln Phi(cur/c).
    When adaptation is enabled, the log step size moves toward the target
    acceptance rate with a decaying gain, clipped at +-RWMH_LOG_STEP_CAP.
    """

    def step(gen, omega, c, psi, total):
        proposal = float(sample_truncated_normal(TruncatedNormalSpec(center=omega, lower_bound=0.0, scale=c), gen))
        lp_prop = log_posterior_slab_variance(proposal, psi, total, prior)
        accept_prob = 0.0
        if np.isfinite(lp_prop):
            log_accept = ((lp_prop - log_posterior_slab_variance(omega, psi, total, prior))
                          - (log_ndtr(proposal / c) - log_ndtr(omega / c)))
            accept_prob = float(min(1.0, np.exp(min(log_accept, 0.0))))
        accepted = gen.random() < accept_prob
        return (proposal if accepted else omega), accept_prob, float(accepted)

    psi, total = z.sum(axis=-1).tolist(), (z * (np.log(deltas) + 1.0 / deltas)).sum(axis=-1).tolist()
    drawn = draw_each(rng, step, omega, adapt.step, psi, total)  # one chain's are Python floats
    omega, accept_prob, accepted = np.transpose(drawn) if isinstance(rng, list) else drawn
    adapt.iteration += 1
    adapt.proposed += 1
    adapt.accepted = adapt.accepted + np.asarray(accepted, dtype=np.int64)
    if adapt_enabled:
        raw = adapt.log_step + adapt.iteration ** (-RWMH_GAIN_EXPONENT) * (accept_prob - RWMH_TARGET_ACCEPT)
        adapt.log_step = np.sign(raw) * np.minimum(np.abs(raw), RWMH_LOG_STEP_CAP)
    return omega, adapt
