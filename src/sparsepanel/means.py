"""Vector-of-means model with a spike-and-slab prior.

Observations y_i = delta_i + u_i with standard-normal noise; each delta_i is
zero with probability 1-q and N(0, v_delta) otherwise. Everything here is in
closed form: the exact mixture posterior per unit, the marginal likelihood of
the hyperparameters, a pointwise maximizer over (z, q, v), and a reference
Gibbs sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import special

from sparsepanel.blocks import update_q, update_v_delta_normal
from sparsepanel.chainout import DrawRecorder
from sparsepanel.distributions import InverseGammaSpec
from sparsepanel.rng import as_generator

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class MeansPosterior:
    """Mixture posterior of one unit's mean: spike at 0 plus N(delta_star, v_star)."""

    delta_star: float
    v_star: float
    q_star: float


def exact_posterior(y_i: float, q: float, v_delta: float) -> MeansPosterior:
    """Closed-form posterior for one unit given the hyperparameters.

    Degenerate q in {0, 1} returns the corresponding limit rather than erroring.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if v_delta < 0.0:
        raise ValueError(f"v_delta must be non-negative, got {v_delta}")
    shrink = 1.0 / (1.0 / v_delta + 1.0) if v_delta > 0.0 else 0.0
    delta_star = shrink * y_i
    v_star = shrink
    if q <= 0.0 or q >= 1.0 or v_delta == 0.0:
        # Degenerate hyperparameters: the data carry no evidence on z.
        return MeansPosterior(delta_star=float(delta_star), v_star=float(v_star), q_star=float(q))
    log_odds = (
        np.log(q) - np.log1p(-q)
        - 0.5 * np.log1p(v_delta)
        + 0.5 * (v_delta / (v_delta + 1.0)) * y_i**2
    )
    q_star = float(special.expit(log_odds))
    return MeansPosterior(delta_star=float(delta_star), v_star=float(v_star), q_star=q_star)


def posterior_mean(y_i: float, q: float, v_delta: float) -> float:
    post = exact_posterior(y_i, q, v_delta)
    return post.q_star * post.delta_star


def _mixture_cdf(x: float, post: MeansPosterior) -> float:
    spike = (1.0 - post.q_star) if x >= 0.0 else 0.0
    sd = np.sqrt(post.v_star) if post.v_star > 0 else 0.0
    if sd == 0.0:
        slab = 1.0 if x >= post.delta_star else 0.0
    else:
        slab = special.ndtr((x - post.delta_star) / sd)
    return spike + post.q_star * slab


def posterior_median(y_i: float, q: float, v_delta: float) -> float:
    """Median of the mixture posterior by bisection; exactly zero when the
    spike carries the median."""
    post = exact_posterior(y_i, q, v_delta)
    if post.q_star == 0.0 or post.v_star == 0.0:
        return 0.0
    # CDF just left of zero excludes the pointmass; at zero it includes it.
    sd = np.sqrt(post.v_star)
    left_of_zero = post.q_star * special.ndtr((0.0 - post.delta_star) / sd)
    at_zero = left_of_zero + (1.0 - post.q_star)
    if left_of_zero < 0.5 <= at_zero:
        return 0.0
    lo, hi = post.delta_star - 12.0 * sd, post.delta_star + 12.0 * sd
    lo, hi = min(lo, -1e-9), max(hi, 1e-9)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _mixture_cdf(mid, post) < 0.5:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def log_marginal_likelihood(y, q: float, v_delta: float) -> float:
    """Log density of the data with the unit means integrated out."""
    y = np.asarray(y, dtype=float)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if v_delta < 0.0:
        raise ValueError(f"v_delta must be non-negative, got {v_delta}")
    log_slab = -0.5 * np.log1p(v_delta) - y**2 / (2.0 * (1.0 + v_delta))
    log_spike = -(y**2) / 2.0
    if q <= 0.0:
        per_unit = log_spike
    elif q >= 1.0:
        per_unit = log_slab
    else:
        per_unit = np.logaddexp(np.log(q) + log_slab, np.log1p(-q) + log_spike)
    return float(np.sum(per_unit) - 0.5 * y.size * _LOG_2PI)


def _profiled_log_joint(y2_total: float, n: int, m: int, s2: float) -> Tuple[float, float, float]:
    """Log joint density of (Y, Z) with (q, v) profiled out for a slab set of
    size m carrying squared-observation mass s2. Returns (value, q_hat, v_hat)."""
    q_hat = m / n
    v_hat = max(0.0, s2 / m - 1.0) if m > 0 else 0.0
    value = -0.5 * n * _LOG_2PI
    if 0 < m < n:
        value += m * np.log(q_hat) + (n - m) * np.log1p(-q_hat)
    value += -0.5 * m * np.log1p(v_hat) - s2 / (2.0 * (1.0 + v_hat)) - (y2_total - s2) / 2.0
    return value, q_hat, v_hat


def _best_top_m(y) -> Tuple[np.ndarray, float, float, float]:
    """Globally maximize the profiled joint over indicator configurations.

    For a fixed slab count the profiled objective is non-decreasing in the
    selected squared-observation mass, so only the nested top-m-by-y^2 sets
    need to be scanned. Ties prefer fewer slab members.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    order = np.argsort(-(y**2), kind="stable")
    y2_sorted = y[order] ** 2
    y2_total = float(y2_sorted.sum())
    cum = np.concatenate([[0.0], np.cumsum(y2_sorted)])
    best = (-np.inf, 0, 0.0, 0.0)  # (value, m, q_hat, v_hat)
    for m in range(n + 1):
        value, q_hat, v_hat = _profiled_log_joint(y2_total, n, m, float(cum[m]))
        if value > best[0] + 1e-10:
            best = (value, m, q_hat, v_hat)
    _, m, q_hat, v_hat = best
    z = np.zeros(n, dtype=np.int64)
    z[order[:m]] = 1
    return z, q_hat, v_hat, best[0]


def argmax_estimator(y, init: Tuple[float, float] = (0.5, 1.0), max_iter: int = 200):
    """Joint maximizer of the (data, indicator) density over (z, q, v).

    Runs the coordinate fixed-point iteration from `init`, then compares the
    fixed point against the best nested top-m candidate and returns whichever
    attains the higher profiled density (they coincide except when the
    iteration stalls in a local optimum). Returns (q_hat, v_hat, z_hat,
    converged).
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 1:
        raise ValueError("need at least one observation")
    q_hat, v_hat = float(init[0]), float(init[1])
    z = None
    converged = False
    for _ in range(max_iter):
        if q_hat <= 0.0:
            z_new = np.zeros(n, dtype=np.int64)
        elif q_hat >= 1.0:
            z_new = np.ones(n, dtype=np.int64)
        else:
            log_ratio = (
                np.log(q_hat) - np.log1p(-q_hat)
                - 0.5 * np.log1p(v_hat)
                + (v_hat / (2.0 * (1.0 + v_hat))) * y**2
            )
            z_new = (log_ratio >= 0.0).astype(np.int64)
        if z is not None and np.array_equal(z_new, z):
            converged = True
            break
        z = z_new
        m = int(z.sum())
        q_hat = m / n
        if m == 0:
            # All-spike branch: the slab likelihood ratio is undefined; stop here.
            v_hat = 0.0
            converged = True
            break
        v_hat = max(0.0, float(np.sum(z * y**2)) / m - 1.0)
    m = int(z.sum())
    s2 = float(np.sum(z * y**2))
    fp_value, _, _ = _profiled_log_joint(float(np.sum(y**2)), n, m, s2)
    z_best, q_best, v_best, best_value = _best_top_m(y)
    if best_value > fp_value + 1e-10:
        return q_best, v_best, z_best, converged
    return q_hat, v_hat, z, converged


def gibbs_means(y, q_prior: Tuple[float, float], v_prior: InverseGammaSpec, n_draws: int, rng,
                fixed_hyper: Optional[Tuple[float, float]] = None):
    """Reference Gibbs sampler over (Z, q, v_delta, delta).

    With `fixed_hyper` = (q, v) the hyperparameter blocks are skipped, so the
    delta draws can be checked against the closed-form posterior. Returns a
    dict of draw arrays.
    """
    y = np.asarray(y, dtype=float)
    gen = as_generator(rng)
    n = y.size
    a, b = q_prior
    q = fixed_hyper[0] if fixed_hyper else float(gen.beta(a, b))
    v = fixed_hyper[1] if fixed_hyper else max(v_prior.mean, 1e-3)
    recorder = DrawRecorder(n_draws)
    for _ in range(n_draws):
        post_q = np.array([exact_posterior(float(yi), q, v).q_star for yi in y])
        z = (gen.random(n) < post_q).astype(np.int64)
        shrink = 1.0 / (1.0 / v + 1.0) if v > 0 else 0.0
        delta = np.where(z == 1, shrink * y + np.sqrt(shrink) * gen.standard_normal(n), 0.0)
        if not fixed_hyper:
            q = update_q(z, a, b, gen)
            v = update_v_delta_normal(z, delta, v_prior, gen)
        recorder.record({"q": q, "v_delta": v, "z": z, "delta": delta})
    return recorder.common
