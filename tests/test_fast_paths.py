"""The closed forms for k <= 2 against the general LAPACK path.

`sample_mv_normal` and `update_common_regression` compute 1x1 and 2x2
inverses and Cholesky factors in closed form. On equal generator states they
must give the draws of the general path below up to rounding, including the
jitter retries of a near-singular covariance.
"""

import numpy as np
import pytest

from sparsepanel import distributions
from sparsepanel.blocks import update_common_regression
from sparsepanel.distributions import MatrixDomainError, sample_mv_normal

# Rank-1 or slightly indefinite covariances: a plain Cholesky fails, a jitter
# retry succeeds (the last one only at the third, 100x jitter).
NEAR_SINGULAR = [
    np.outer([1.0, 2.0], [1.0, 2.0]),
    np.outer([3.0, 1e-3], [3.0, 1e-3]),
    np.array([[4.0, 2.0], [2.0, 1.0 - 1e-12]]),
    np.array([[1.0, 1.0], [1.0, 1.0 - 5e-9]]),
]


def lapack_mv_normal(mean, cov, gen, size=None):
    """The general path: allclose symmetry test, LAPACK Cholesky, jitter retries."""
    assert np.allclose(cov, cov.T, rtol=1e-8, atol=1e-12)
    jitter = 1e-10 * np.trace(cov) / cov.shape[0]
    for bump in (0.0, jitter, 10 * jitter, 100 * jitter):
        try:
            chol = np.linalg.cholesky(cov + bump * np.eye(cov.shape[0]))
            break
        except np.linalg.LinAlgError:
            continue
    shape = mean.shape if size is None else (size, mean.size)
    return mean + gen.standard_normal(shape) @ chol.T


def lapack_regression(prior_mean, prior_cov, xtx, xty, gen):
    prior_prec = np.linalg.inv(prior_cov)
    post_cov = np.linalg.inv(prior_prec + xtx)
    post_cov = 0.5 * (post_cov + post_cov.T)
    post_mean = post_cov @ (prior_prec @ prior_mean + xty)
    return lapack_mv_normal(post_mean, post_cov, gen), post_mean, post_cov


def random_spd(gen, k, ridge):
    a = gen.normal(size=(k, k))
    return a @ a.T + ridge * np.eye(k)


@pytest.mark.parametrize("k", [1, 2])
def test_mv_normal_closed_form_matches_lapack(k):
    gen = np.random.default_rng(40 + k)
    for trial in range(200):
        mean, cov = gen.normal(size=k), random_spd(gen, k, 1e-3)
        for size in (None, 3):
            fast = sample_mv_normal(mean, cov, np.random.default_rng(trial), size=size)
            ref = lapack_mv_normal(mean, cov, np.random.default_rng(trial), size=size)
            np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("cov", NEAR_SINGULAR)
def test_mv_normal_jitter_fallback_matches_lapack(cov):
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov)
    mean = np.array([1.0, -1.0])
    for seed in range(20):
        fast = sample_mv_normal(mean, cov, np.random.default_rng(seed))
        ref = lapack_mv_normal(mean, cov, np.random.default_rng(seed))
        np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-12)


def test_indefinite_2x2_raises_after_jitter():
    cov = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-6]])
    with pytest.raises(MatrixDomainError, match="after jitter"):
        sample_mv_normal(np.zeros(2), cov, np.random.default_rng(0))


@pytest.mark.parametrize("k", [1, 2])
def test_regression_closed_form_matches_lapack(k):
    gen = np.random.default_rng(50 + k)
    for trial in range(200):
        prior_cov = random_spd(gen, k, 0.2)
        xtx = random_spd(gen, k, 0.0) * gen.uniform(0.0, 50.0)
        prior_mean, xty = gen.normal(size=k), gen.normal(scale=3.0, size=k)
        fast = update_common_regression(prior_mean, prior_cov, xtx, xty, np.random.default_rng(trial))
        ref = lapack_regression(prior_mean, prior_cov, xtx, xty, np.random.default_rng(trial))
        for got, want in zip(fast, ref):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_regression_singular_precision_raises_like_lapack():
    with pytest.raises(np.linalg.LinAlgError):
        update_common_regression(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros((2, 2)),
                                 np.zeros(2), np.random.default_rng(0))


def test_asymmetric_2x2_still_raises():
    cov = np.array([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(MatrixDomainError, match="symmetric"):
        sample_mv_normal(np.zeros(2), cov, np.random.default_rng(0))
    # within the tolerance the draw goes through
    cov[1, 0] = 0.5 + 1e-13
    sample_mv_normal(np.zeros(2), cov, np.random.default_rng(0))


def test_scalar_symmetry_test_agrees_with_allclose():
    values = [0.0, 1.0, -2.5, 1e-13, 1.0 + 1e-9, 1.0 + 1e-7, np.inf, -np.inf, np.nan]
    gen = np.random.default_rng(3)
    for _ in range(400):
        k = int(gen.integers(1, 3))
        m = gen.choice(values, size=(k, k))
        want = np.allclose(m, m.T, rtol=1e-8, atol=1e-12)
        assert distributions._is_symmetric(m) == want, m


def test_three_by_three_takes_the_lapack_path(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    sample_mv_normal(np.zeros(2), np.eye(2), np.random.default_rng(0))
    assert calls == []
    cov = random_spd(np.random.default_rng(1), 3, 0.5)
    fast = sample_mv_normal(np.zeros(3), cov, np.random.default_rng(2))
    assert calls == [(3, 3)]
    monkeypatch.undo()
    np.testing.assert_array_equal(fast, lapack_mv_normal(np.zeros(3), cov, np.random.default_rng(2)))


# A leading batch axis: one call must give what a loop of single calls gives
# on the same generator, element by element, including each element's jitter
# and its degenerate (all-zero) case.


def jitter_attempt(cov):
    """The first of the four Cholesky attempts (0: no jitter) that succeeds."""
    jitter = 1e-10 * np.trace(cov) / cov.shape[0]
    for attempt, bump in enumerate((0.0, jitter, 10 * jitter, 100 * jitter)):
        try:
            np.linalg.cholesky(cov + bump * np.eye(cov.shape[0]))
            return attempt
        except np.linalg.LinAlgError:
            continue
    return None


def batch_covariances(k, gen):
    """Random SPD covariances, an all-zero one, and for k >= 2 two that need
    the first and the third jitter retry."""
    covs = [random_spd(gen, k, 1e-3) for _ in range(6)] + [np.zeros((k, k))]
    if k >= 2:
        v = np.arange(1.0, k + 1.0)
        jitter = 1e-10 * (v @ v) / k
        for shift, attempt in ((0.5, 1), (50.0, 3)):
            cov = np.outer(v, v) - shift * jitter * np.eye(k)
            assert jitter_attempt(cov) == attempt
            covs.append(cov)
    return np.array(covs)


@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_batched_mv_normal_equals_a_loop_of_single_draws(k, special):
    gen = np.random.default_rng(60 + k)
    cov = batch_covariances(k, gen)
    if not special:  # symmetric positive definite elements only: one LAPACK call
        cov = np.array([0.5 * (c + c.T) for c in cov[:6]])
    mean = gen.normal(size=(len(cov), k))
    for seed in range(10):
        batched = sample_mv_normal(mean, cov, np.random.default_rng(seed))
        loop_gen = np.random.default_rng(seed)
        looped = [sample_mv_normal(m, c, loop_gen) for m, c in zip(mean, cov)]
        np.testing.assert_allclose(batched, looped, rtol=1e-12, atol=1e-12)
        assert batched.shape == (len(cov), k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_batched_regression_equals_a_loop_of_single_draws(k):
    gen = np.random.default_rng(70 + k)
    prior_cov, prior_mean = random_spd(gen, k, 0.2), gen.normal(size=k)
    xtx = np.array([random_spd(gen, k, 0.0) * gen.uniform(0.0, 50.0) for _ in range(12)])
    xty = gen.normal(scale=3.0, size=(12, k))
    for seed in range(10):
        batched = update_common_regression(prior_mean, prior_cov, xtx, xty,
                                           np.random.default_rng(seed))
        loop_gen = np.random.default_rng(seed)
        looped = [update_common_regression(prior_mean, prior_cov, a, b, loop_gen)
                  for a, b in zip(xtx, xty)]
        for j, got in enumerate(batched):
            np.testing.assert_allclose(got, [r[j] for r in looped], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k", [2, 3])
def test_batch_with_one_bad_element_raises(k):
    cov = batch_covariances(k, np.random.default_rng(80))
    asymmetric, indefinite = cov.copy(), cov.copy()
    asymmetric[2, 0, 1] += 0.1
    indefinite[2] = np.diag([1.0] * (k - 1) + [-1e-3])
    mean = np.zeros((len(cov), k))
    with pytest.raises(MatrixDomainError, match="symmetric"):
        sample_mv_normal(mean, asymmetric, np.random.default_rng(0))
    with pytest.raises(MatrixDomainError, match="after jitter"):
        sample_mv_normal(mean, indefinite, np.random.default_rng(0))
