import numpy as np
import pytest
from scipy import stats

from sparsepanel.distributions import (
    InverseGammaSpec,
    InverseWishartSpec,
    MatrixDomainError,
    ParameterDomainError,
    TruncatedNormalSpec,
    ig_spec_from_variance,
    sample_beta,
    sample_inverse_gamma,
    sample_inverse_wishart,
    sample_mv_normal,
    sample_truncated_normal,
)
from sparsepanel.rng import RngStream


def ig_variance(spec):
    """Variance of IG(nu/2, tau/2), from scipy."""
    return stats.invgamma(spec.nu / 2.0, scale=spec.tau / 2.0).var()


def test_inverse_gamma_spec_moments():
    spec = InverseGammaSpec(nu=12.0, tau=10.0)
    assert spec.mean == pytest.approx(1.0)
    assert ig_variance(spec) == pytest.approx(0.25)
    spec = InverseGammaSpec(nu=6.0, tau=4.0)
    assert spec.mean == pytest.approx(1.0)
    assert ig_variance(spec) == pytest.approx(1.0)
    spec = InverseGammaSpec(nu=6.0, tau=0.2)
    assert spec.mean == pytest.approx(0.05)
    assert np.sqrt(ig_variance(spec)) == pytest.approx(0.05)


def test_inverse_gamma_spec_domain():
    with pytest.raises(ParameterDomainError):
        InverseGammaSpec(nu=-1.0, tau=1.0)
    with pytest.raises(ParameterDomainError):
        InverseGammaSpec(nu=2.0, tau=1.0).mean


def test_ig_spec_from_variance_identities():
    assert ig_spec_from_variance(1.0) == InverseGammaSpec(nu=6.0, tau=4.0)
    assert ig_spec_from_variance(0.5) == InverseGammaSpec(nu=8.0, tau=6.0)
    assert ig_spec_from_variance(2.0) == InverseGammaSpec(nu=5.0, tau=3.0)


@pytest.mark.parametrize("v", np.geomspace(0.01, 100.0, 9).tolist())
def test_ig_spec_from_variance_moments(v):
    spec = ig_spec_from_variance(v)
    assert spec.mean == pytest.approx(1.0, rel=1e-12)
    assert ig_variance(spec) == pytest.approx(v, rel=1e-12)


def test_sample_inverse_gamma_mc_moments():
    spec = InverseGammaSpec(nu=6.0, tau=0.2)
    draws = sample_inverse_gamma(spec.nu, spec.tau, RngStream(7, 0), size=400_000)
    stderr = np.std(draws) / np.sqrt(draws.size)
    assert abs(np.mean(draws) - 0.05) < 3.0 * stderr


def test_sample_inverse_gamma_ks():
    spec = InverseGammaSpec(nu=12.0, tau=10.0)
    draws = sample_inverse_gamma(spec.nu, spec.tau, RngStream(11, 0), size=1_000_000)
    stat = stats.kstest(draws, stats.invgamma(a=6.0, scale=5.0).cdf).statistic
    assert stat < 0.005


def test_sample_beta_ks():
    draws = sample_beta(2.5, 1.5, RngStream(3, 0), size=1_000_000)
    stat = stats.kstest(draws, stats.beta(2.5, 1.5).cdf).statistic
    assert stat < 0.005


def test_sample_beta_uniform_case():
    draws = sample_beta(1.0, 1.0, RngStream(3, 1), size=200_000)
    assert np.mean(draws) == pytest.approx(0.5, abs=0.005)


def test_sample_mv_normal_moments():
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.6], [0.6, 0.5]])
    draws = sample_mv_normal(mean, cov, RngStream(9, 0), size=500_000)
    assert np.allclose(draws.mean(axis=0), mean, atol=0.01)
    assert np.allclose(np.cov(draws.T), cov, atol=0.02)


def test_sample_mv_normal_degenerate():
    mean = np.array([3.0, -1.0])
    out = sample_mv_normal(mean, np.zeros((2, 2)), RngStream(9, 1))
    assert np.array_equal(out, mean)
    out = sample_mv_normal(mean, np.zeros((2, 2)), RngStream(9, 1), size=4)
    assert out.shape == (4, 2)
    assert np.all(out == mean)


def test_sample_mv_normal_near_singular_jitter():
    # Rank-1 plus tiny noise: plain Cholesky can fail, jitter path must not.
    u = np.array([1.0, 2.0, 3.0])
    cov = np.outer(u, u)
    draw = sample_mv_normal(np.zeros(3), cov, RngStream(9, 2))
    assert np.all(np.isfinite(draw))


def test_sample_mv_normal_shape_mismatch():
    with pytest.raises(MatrixDomainError):
        sample_mv_normal(np.zeros(2), np.eye(3), RngStream(9, 3))


def test_sample_inverse_wishart_mean():
    spec = InverseWishartSpec(dof=5.05, scale=np.diag([0.5, 0.1]))
    expected = spec.scale / (5.05 - 3.0)
    draws = sample_inverse_wishart(spec.dof, spec.scale, RngStream(13, 0), size=200_000)
    assert np.allclose(draws.mean(axis=0), expected, atol=0.01)
    single = sample_inverse_wishart(spec.dof, spec.scale, RngStream(13, 1))
    assert single.shape == (2, 2)
    np.linalg.cholesky(single)  # SPD


@pytest.mark.parametrize("dof, scale", [(25.0, [[0.7]]), (30.0, [[0.5, 0.15], [0.15, 0.1]])])
def test_sample_inverse_wishart_element_moments(dof, scale):
    # IW(nu, S) in p dimensions: E X = S / (nu - p - 1), and
    # Var X_ij = [(nu-p+1) s_ij^2 + (nu-p-1) s_ii s_jj] / [(nu-p) (nu-p-1)^2 (nu-p-3)].
    # A large dof keeps the fourth moments, and so the stderr of the variance, finite.
    scale = np.array(scale)
    p = scale.shape[0]
    draws = sample_inverse_wishart(dof, scale, RngStream(21, p), size=200_000)
    mean = scale / (dof - p - 1)
    s_diag = np.diag(scale)
    var = ((dof - p + 1) * scale**2 + (dof - p - 1) * np.outer(s_diag, s_diag)) / (
        (dof - p) * (dof - p - 1) ** 2 * (dof - p - 3))
    root_n = np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * draws.std(axis=0) / root_n)
    dev2 = (draws - draws.mean(axis=0)) ** 2
    assert np.all(np.abs(dev2.mean(axis=0) - var) < 4 * dev2.std(axis=0) / root_n)
    assert np.all(draws == draws.swapaxes(1, 2))


def test_single_inverse_wishart_draw_equals_scipy():
    # scipy.stats is the oracle here only; the package draws without it. A
    # single draw uses the same construction and the same stream as scipy's.
    gen = np.random.default_rng(29)
    for k in (1, 2, 3):
        a = gen.normal(size=(k, k))
        scale = a @ a.T + 0.3 * np.eye(k)
        for dof in (k - 0.5, k + 3.05, k + 20.0):
            draw = sample_inverse_wishart(dof, scale, np.random.default_rng(k))
            ref = stats.invwishart.rvs(df=dof, scale=scale, random_state=np.random.default_rng(k))
            np.testing.assert_allclose(draw, np.atleast_2d(ref), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("dof", [5.05, 9.0])
def test_sample_inverse_wishart_matches_scipy(dof):
    # A batch draws its normals and chi2s in another order than scipy's batch.
    scale = np.array([[0.5, 0.15], [0.15, 0.1]])
    draws = sample_inverse_wishart(dof, scale, RngStream(23, 0), size=100_000)
    ref = stats.invwishart.rvs(df=dof, scale=scale, size=100_000, random_state=np.random.default_rng(23))
    assert stats.ks_2samp(draws[:, 0, 1], ref[:, 0, 1]).pvalue > 0.01
    assert stats.ks_2samp(np.linalg.det(draws), np.linalg.det(ref)).pvalue > 0.01


def test_inverse_wishart_spec_domain():
    with pytest.raises(ParameterDomainError):
        InverseWishartSpec(dof=0.5, scale=np.eye(2))
    with pytest.raises(MatrixDomainError):
        InverseWishartSpec(dof=5.0, scale=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_sample_truncated_normal_support_and_ks():
    spec = TruncatedNormalSpec(center=0.5, lower_bound=0.0, scale=2.0)
    draws = sample_truncated_normal(spec, RngStream(17, 0), size=1_000_000)
    assert np.all(draws > 0.0)
    ref = stats.truncnorm(a=(0.0 - 0.5) / 2.0, b=np.inf, loc=0.5, scale=2.0)
    assert stats.kstest(draws, ref.cdf).statistic < 0.005


def test_reproducibility_bit_identical():
    a = sample_inverse_gamma(6.0, 4.0, RngStream(42, 3), size=100)
    b = sample_inverse_gamma(6.0, 4.0, RngStream(42, 3), size=100)
    assert np.array_equal(a, b)
    c = sample_inverse_gamma(6.0, 4.0, RngStream(42, 4), size=100)
    assert not np.array_equal(a, c)


def test_sample_inverse_gamma_draws_each_replication_from_its_own_generator():
    nu = np.array([[6.0], [9.0], [12.0]])
    tau = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    batched = sample_inverse_gamma(nu, tau, [RngStream(3, r).generator for r in range(3)])
    alone = [sample_inverse_gamma(nu[r], tau[r], RngStream(3, r)) for r in range(3)]
    np.testing.assert_array_equal(batched, alone)
    spec_draw = InverseGammaSpec(6.0, 1.0).draw(RngStream(3, 0))
    assert spec_draw == sample_inverse_gamma(6.0, 1.0, RngStream(3, 0))
