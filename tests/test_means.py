"""Tests for the closed-form sparse-means model.

Oracles: numerical quadrature for the posterior and marginal likelihood,
exhaustive enumeration over all 2^N support patterns for the joint-mode
estimator, and grid evaluation for the median interval property.
"""

import itertools

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from means import (
    argmax_estimator,
    exact_posterior,
    gibbs_means,
    log_marginal_likelihood,
    posterior_mean,
    posterior_median,
)
from sparsepanel.distributions import InverseGammaSpec
from sparsepanel.rng import RngStream


def quadrature_posterior(y, q, v):
    """Spike probability and slab moments by direct integration of
    prior x likelihood over the slab, plus the point mass at zero."""
    spike = (1 - q) * norm.pdf(y, 0.0, 1.0)

    def integrand(d, power):
        return d**power * norm.pdf(d, 0.0, np.sqrt(v)) * norm.pdf(y - d, 0.0, 1.0)

    lim = 10 * np.sqrt(v) + abs(y) + 10
    mass = q * quad(integrand, -lim, lim, args=(0,), limit=200)[0]
    mean = q * quad(integrand, -lim, lim, args=(1,), limit=200)[0]
    total = spike + mass
    return mass / total, mean / total, np.log(total)


@pytest.mark.parametrize(
    "y,q,v",
    [(1.5, 0.4, 0.5), (-2.3, 0.9, 4.0), (0.0, 0.5, 1.0), (3.7, 0.05, 0.05), (0.3, 0.99, 10.0)],
)
def test_exact_posterior_matches_quadrature(y, q, v):
    post = exact_posterior(y, q, v)
    q_star, mean, log_ml = quadrature_posterior(y, q, v)
    assert post.q_star == pytest.approx(q_star, abs=1e-8)
    assert posterior_mean(y, q, v) == pytest.approx(mean, abs=1e-8)
    assert log_marginal_likelihood(np.array([y]), q, v) == pytest.approx(log_ml, abs=1e-8)
    # Closed-form slab location/scale.
    assert post.delta_star == pytest.approx(y / (1 / v + 1), abs=1e-12)
    assert post.v_star == pytest.approx(1 / (1 / v + 1), abs=1e-12)


def test_exact_posterior_degenerate_cases():
    assert exact_posterior(1.0, 0.0, 2.0).q_star == 0.0
    assert exact_posterior(1.0, 1.0, 2.0).q_star == 1.0
    assert exact_posterior(1.0, 0.5, 0.0).q_star == 0.5
    assert posterior_mean(5.0, 0.0, 2.0) == 0.0


def test_posterior_median_is_mixture_median():
    # The median solves F(x) = 1/2 for the spike+slab mixture CDF.
    for y, q, v in [(2.5, 0.9, 4.0), (-2.5, 0.9, 4.0), (0.7, 0.3, 1.0), (4.0, 0.6, 2.0)]:
        med = posterior_median(y, q, v)
        post = exact_posterior(y, q, v)
        sd = np.sqrt(post.v_star)
        cdf = post.q_star * norm.cdf(med, post.delta_star, sd) + (1 - post.q_star) * (med >= 0)
        cdf_left = post.q_star * norm.cdf(med, post.delta_star, sd) + (1 - post.q_star) * (med > 0)
        assert cdf_left - 1e-9 <= 0.5 <= cdf + 1e-9
    # Large spike probability puts the median exactly at zero.
    assert posterior_median(0.5, 0.2, 1.0) == 0.0
    # Symmetry.
    assert posterior_median(2.5, 0.9, 4.0) == pytest.approx(-posterior_median(-2.5, 0.9, 4.0))


def brute_force_argmax(y):
    """Maximize the profiled joint density over all support patterns."""
    y = np.asarray(y, dtype=float)
    n = y.size
    best = (-np.inf, 0.0, 0.0, np.zeros(n, dtype=np.int64))
    for pattern in itertools.product([0, 1], repeat=n):
        z = np.array(pattern, dtype=np.int64)
        m = int(z.sum())
        q_hat = m / n
        s2 = float(np.sum(z * y * y))
        v_hat = max(0.0, s2 / m - 1.0) if m else 0.0
        val = 0.0
        if 0 < q_hat < 1:
            val += m * np.log(q_hat) + (n - m) * np.log(1 - q_hat)
        elif q_hat == 0.0:
            val += 0.0
        if m:
            val += -0.5 * m * np.log(1 + v_hat) - 0.5 * s2 / (1 + v_hat) + 0.5 * s2
        better = val > best[0] + 1e-10 or (
            abs(val - best[0]) <= 1e-10
            and (m < int(best[3].sum()) or (m == int(best[3].sum()) and s2 > np.sum(best[3] * y * y)))
        )
        if better:
            best = (val, q_hat, v_hat, z)
    return best[1], best[2], best[3]


def test_argmax_matches_exhaustive_enumeration():
    rng = RngStream(seed=71, stream_id=0)
    for case in range(100):
        gen = rng.substream(case).generator
        n = int(gen.integers(2, 11))
        q_true = gen.uniform(0.0, 1.0)
        v_true = gen.uniform(0.0, 6.0)
        z = gen.random(n) < q_true
        y = np.sqrt(1.0 + v_true * z) * gen.standard_normal(n)
        q_hat, v_hat, z_hat, converged = argmax_estimator(y)
        q_ref, v_ref, z_ref = brute_force_argmax(y)
        assert np.array_equal(z_hat.astype(int), z_ref.astype(int)), f"case {case}"
        assert q_hat == pytest.approx(q_ref, abs=1e-9)
        assert v_hat == pytest.approx(v_ref, abs=1e-6)


def test_argmax_all_small_observations_selects_empty_support():
    y = np.array([0.1, -0.2, 0.05, 0.15])
    q_hat, v_hat, z_hat, _ = argmax_estimator(y)
    assert q_hat == 0.0
    assert v_hat == 0.0
    assert not z_hat.any()


def test_gibbs_means_recovers_exact_posterior_under_fixed_hyper():
    # With (q, v) held fixed, the per-observation indicator frequencies must
    # agree with the closed form.
    rng = RngStream(seed=5, stream_id=0)
    y = np.array([2.5, -0.3, 1.1, 0.0, -4.0])
    q, v = 0.4, 2.0
    draws = gibbs_means(y, (1.0, 1.0), InverseGammaSpec(6, 4), 40000, rng, fixed_hyper=(q, v))
    freq = np.asarray(draws["z"]).mean(axis=0)
    for j, yj in enumerate(y):
        assert freq[j] == pytest.approx(exact_posterior(yj, q, v).q_star, abs=0.02)


def test_gibbs_means_hyperparameters_move():
    rng = RngStream(seed=6, stream_id=0)
    gen = rng.generator
    y = np.concatenate([3 * gen.standard_normal(30), gen.standard_normal(70)])
    draws = gibbs_means(y, (1.0, 1.0), InverseGammaSpec(6, 4), 2000, rng.substream(1))
    q_draws = np.asarray(draws["q"])
    assert np.std(q_draws) > 0.0
    assert 0.05 < np.mean(q_draws) < 0.8
