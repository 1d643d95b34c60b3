"""End-to-end acceptance suite.

One test (or small group) per acceptance criterion, each at a pinned scale
with explicit tolerances:

1. Reduced-scale compound-risk reproduction for the homoskedastic panel
   model: estimator orderings, target magnitudes, and near-zero risk when
   the heterogeneity probability is zero.
2. Misspecification ordering on heteroskedastic data: the correctly
   specified spike-and-slab estimator weakly beats the homoskedastic one.
3. Block-level conjugacy: empirical draw distributions of every Gibbs block
   match quadrature/closed-form conditionals (KS < 0.02 at 1e5 draws, three
   randomized instances per block).
4. Two-simulator joint-distribution consistency checks for both samplers.
5. Closed-form vector-of-means suite: quadrature, exhaustive-argmax, and
   median-thresholding oracles.
6. State prior covariance recursion versus simulated AR(1) paths.
7. Adaptive random-walk Metropolis acceptance-rate targeting.
8. Forecast pipeline calibration: interval coverage, density-score
   stability, and scenario width orderings.
9. Unit-mean/variance-v reparameterization of the variance-slab prior.
"""

import itertools

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.stats import norm

from m2_oracle import build_state_prior_cov
from means import (
    argmax_estimator,
    exact_posterior,
    log_marginal_likelihood,
    posterior_mean,
    posterior_median,
)
from sparsepanel.blocks import (
    CommonState,
    HyperParams,
    RwmhAdaptState,
    UnitState,
    update_common_regression,
    update_indicator_and_deviation_ig,
    update_indicator_and_deviation_normal,
    update_q,
    update_v_delta_alpha_iw,
    update_v_delta_normal,
    update_v_delta_sigma_rwmh,
)
from sparsepanel.distributions import (
    InverseGammaSpec,
    InverseWishartSpec,
    ig_spec_from_variance,
    sample_mv_normal,
)
from sparsepanel.forecast import PredictiveDraws, predict, score
from sparsepanel.geweke import _draw_m2_common, run_geweke_m1, run_geweke_m2, z_statistics
from sparsepanel.m2 import M2Config, run_m2, run_m2_individual
from sparsepanel.mc import MCDesign, _cell_theta, run_experiment
from sparsepanel.panel import PanelData, simulate_m1
from sparsepanel.rng import RngStream

# ---------------------------------------------------------------------------
# Criterion 1: reduced-scale risk table, homoskedastic panel model.
# ---------------------------------------------------------------------------

RISK_SCALE = dict(n=200, t=8, n_sim=20, n_draws=2000, burn_in=1000)
Q_GRID = (0.0, 0.4, 1.0)
V_GRID = (0.05, 0.5)


@pytest.fixture(scope="module")
def risk_table_homosk():
    design = MCDesign(model="m1_homosk", q_grid=Q_GRID, v_delta_alpha_grid=V_GRID,
                      estimators=("ss", "q0", "oracle"), **RISK_SCALE)
    return run_experiment(design, seed=7)


def test_criterion_1a_oracle_weakly_beats_spike_slab(risk_table_homosk):
    table = risk_table_homosk
    for target in ("alpha", "rho"):
        for v in V_GRID:
            for q in Q_GRID:
                r_o = table.risk(q, v, "oracle", target)
                r_s = table.risk(q, v, "ss", target)
                slack = 2.0 * np.hypot(table.stderr(q, v, "oracle", target),
                                       table.stderr(q, v, "ss", target))
                assert r_o <= r_s + slack, (
                    f"oracle {target}-risk {r_o:.4f} exceeds spike-and-slab {r_s:.4f} "
                    f"beyond 2-stderr slack {slack:.4f} at q={q}, v={v}"
                )


def test_criterion_1b_spike_slab_risk_magnitude(risk_table_homosk):
    r = risk_table_homosk.risk(0.4, 0.5, "ss", "alpha")
    assert 0.7 * 0.093 <= r <= 1.3 * 0.093, f"spike-and-slab alpha-risk {r:.4f}"


def pooled_ols_alpha_risk(design: MCDesign, q: float, v: float, seed: int, t=None):
    """MCMC-free oracle for the pooled estimator's alpha-risk in one cell.

    Re-simulates the cell's panels with the stream keys `run_experiment`
    documents (cell index in its v-major order, then replication, then
    substream 0 for the data), fits pooled least squares of y_it on
    (1, y_{i,t-1}), and returns the mean over replications of the compound
    loss (1/N) sum_i (alpha_hat - alpha_i)^2. `t` overrides the design's
    number of periods, so other designs can be checked on the same draws.
    """
    t = design.t if t is None else t
    cells = [(cq, cv) for cv in design.v_delta_alpha_grid for cq in design.q_grid]
    c_idx = cells.index((q, v))
    theta = _cell_theta(design, q, v)
    root = RngStream(seed=seed, stream_id=0)
    losses = []
    for rep in range(design.n_sim):
        stream = root.substream(c_idx).substream(rep).substream(0)
        data, truth = simulate_m1(theta, design.hyper, design.n, t, stream,
                                  heteroskedastic=design.heteroskedastic)
        lag = data.y[:, :-1].ravel()
        regressors = np.column_stack([np.ones_like(lag), lag])
        coef = np.linalg.lstsq(regressors, data.y[:, 1:].ravel(), rcond=None)[0]
        losses.append(np.mean((coef[0] - (theta.alpha + truth.delta_alpha)) ** 2))
    return float(np.mean(losses))


def test_criterion_1b_pooled_risk_magnitude(risk_table_homosk):
    # The homogeneous (q = 0) estimator must reproduce the alpha-risk of
    # pooled least squares on the very panels the fixture simulated: with
    # N*T = 1600 observations the Normal prior on (alpha, rho) barely moves
    # the posterior mean, and the per-replication risk gap to OLS has mean
    # -0.0010, sd 0.0017 and largest magnitude 0.0059. An earlier version of
    # this test compared against a fixed 1.194 whose source is not recorded
    # in the repository. The oracle settles it for the stated design (seed 7,
    # 20 replications, N = 200, y_0 = 0), as mean risk +- stderr:
    #   T = 8,  q = 0.4, v = 0.5: 0.562 +- 0.050  (this cell; sampler 0.561)
    #   T = 8,  q = 1.0, v = 0.5: 1.198 +- 0.064
    #   T = 10, q = 0.4, v = 0.5: 1.027 +- 0.128
    # so 1.194 matches either the q = 1.0 column or a 10-period design, not
    # this cell at T = 8. Call `pooled_ols_alpha_risk(..., t=10)` to check.
    table = risk_table_homosk
    r = table.risk(0.4, 0.5, "q0", "alpha")
    r_ols = pooled_ols_alpha_risk(table.design, 0.4, 0.5, seed=7)
    assert abs(r - r_ols) <= 0.02 * r_ols, (
        f"pooled-estimator alpha-risk {r:.4f} differs from the pooled-OLS "
        f"oracle {r_ols:.4f} by more than 2%"
    )


def test_criterion_1c_no_heterogeneity_risk_near_zero(risk_table_homosk):
    for v in V_GRID:
        for target in ("alpha", "rho"):
            r = risk_table_homosk.risk(0.0, v, "ss", target)
            assert r < 0.01, f"{target}-risk {r:.5f} at q=0, v={v}"


# ---------------------------------------------------------------------------
# Criterion 2: misspecification ordering on heteroskedastic data.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def risk_table_hetsk():
    design = MCDesign(model="m1_hetsk", q_grid=(0.4, 1.0), v_delta_alpha_grid=V_GRID,
                      estimators=("ss", "ss_homosk_misspec"), **RISK_SCALE)
    return run_experiment(design, seed=11)


def test_criterion_2_heteroskedastic_model_weakly_beats_misspecified(risk_table_hetsk):
    table = risk_table_hetsk
    for target in ("alpha", "rho"):
        for v in V_GRID:
            for q in (0.4, 1.0):
                r_h = table.risk(q, v, "ss", target)
                r_m = table.risk(q, v, "ss_homosk_misspec", target)
                slack = 2.0 * np.hypot(table.stderr(q, v, "ss", target),
                                       table.stderr(q, v, "ss_homosk_misspec", target))
                assert r_h <= r_m + slack, (
                    f"heteroskedastic {target}-risk {r_h:.4f} exceeds misspecified "
                    f"{r_m:.4f} beyond slack {slack:.4f} at q={q}, v={v}"
                )


# ---------------------------------------------------------------------------
# Criterion 3: block-level conjugacy oracles, KS < 0.02 at 1e5 draws.
# ---------------------------------------------------------------------------

N_CONJ = 100_000
KS_TOL = 0.02


def test_criterion_3_regression_block():
    for seed in range(3):
        gen = np.random.default_rng(100 + seed)
        k = int(gen.integers(1, 4))
        a = gen.normal(size=(k, k))
        prior_cov = a @ a.T + 0.5 * np.eye(k)
        prior_mean = gen.normal(size=k)
        b = gen.normal(size=(k, k))
        xtx = b @ b.T + 0.1 * np.eye(k)
        xty = gen.normal(scale=3.0, size=k)
        draws = np.array([
            update_common_regression(prior_mean, prior_cov, xtx, xty, gen)[0][0]
            for _ in range(N_CONJ)
        ])
        _, post_mean, post_cov = update_common_regression(prior_mean, prior_cov, xtx, xty, gen)
        ks = stats.kstest(draws, norm(post_mean[0], np.sqrt(post_cov[0, 0])).cdf).statistic
        assert ks < KS_TOL, f"instance {seed}: KS {ks:.4f}"


def test_criterion_3_inclusion_probability_block():
    for seed in range(3):
        gen = np.random.default_rng(200 + seed)
        n = int(gen.integers(5, 50))
        z = (gen.random(n) < gen.random()).astype(int)
        a, b = gen.uniform(0.5, 3.0, size=2)
        draws = np.array([update_q(z, a, b, gen) for _ in range(N_CONJ)])
        psi = z.sum()
        ks = stats.kstest(draws, stats.beta(a + psi, b + n - psi).cdf).statistic
        assert ks < KS_TOL, f"instance {seed}: KS {ks:.4f}"


def test_criterion_3_slab_variance_block():
    for seed in range(3):
        gen = np.random.default_rng(300 + seed)
        n = int(gen.integers(5, 40))
        z = gen.random(n) < 0.6
        if not z.any():
            z[0] = True
        deltas = gen.normal(0.0, 0.7, size=n)
        spec = InverseGammaSpec(nu=gen.uniform(2.0, 20.0), tau=gen.uniform(0.5, 5.0))
        draws = np.array([update_v_delta_normal(z, deltas, spec, gen) for _ in range(N_CONJ)])
        nu_post = spec.nu + z.sum()
        tau_post = spec.tau + float(np.sum(deltas[z] ** 2))
        ks = stats.kstest(draws, stats.invgamma(a=nu_post / 2, scale=tau_post / 2).cdf).statistic
        assert ks < KS_TOL, f"instance {seed}: KS {ks:.4f}"


def test_criterion_3_slab_covariance_block():
    # marginal of a diagonal element of an inverse-Wishart draw
    for seed in range(3):
        gen = np.random.default_rng(400 + seed)
        p = 2
        a = gen.normal(size=(p, p))
        scale = a @ a.T + 0.3 * np.eye(p)
        spec = InverseWishartSpec(dof=p + gen.uniform(1.5, 5.0), scale=scale)
        n = int(gen.integers(5, 30))
        z = gen.random(n) < 0.5
        deltas = gen.normal(0.0, 0.5, size=(n, p))
        draws = np.array([
            update_v_delta_alpha_iw(z, deltas, spec, gen)[0, 0] for _ in range(N_CONJ)
        ])
        scatter = deltas[z].T @ deltas[z] if z.any() else np.zeros((p, p))
        dof_post = spec.dof + int(z.sum())
        s_post = scale + scatter
        ks = stats.kstest(
            draws, stats.invgamma(a=(dof_post - p + 1) / 2, scale=s_post[0, 0] / 2).cdf
        ).statistic
        assert ks < KS_TOL, f"instance {seed}: KS {ks:.4f}"


def test_criterion_3_normal_indicator_block():
    # one shared instance replicated across 1e5 units in a single call
    for seed in range(3):
        gen = np.random.default_rng(500 + seed)
        q = gen.uniform(0.2, 0.8)
        v = gen.uniform(0.2, 2.0)
        precision = gen.uniform(0.5, 8.0)
        score_val = gen.normal(scale=2.0)
        z, delta = update_indicator_and_deviation_normal(
            q, v, np.full(N_CONJ, precision), np.full(N_CONJ, score_val), gen)
        v_bar = 1.0 / (1.0 / v + precision)
        d_bar = v_bar * score_val
        log_k = (np.log(q / (1 - q)) - 0.5 * (np.log(v) - np.log(v_bar))
                 + d_bar**2 / (2 * v_bar))
        p_slab = 1.0 / (1.0 + np.exp(-log_k))
        se = np.sqrt(p_slab * (1 - p_slab) / N_CONJ)
        assert abs(z.mean() - p_slab) < 5 * se, f"instance {seed}: slab frequency"
        ks = stats.kstest(delta[z == 1], norm(d_bar, np.sqrt(v_bar)).cdf).statistic
        assert ks < KS_TOL, f"instance {seed}: KS {ks:.4f}"
        assert np.all(delta[z == 0] == 0.0)


def test_criterion_3_variance_indicator_block():
    # slab probability checked against direct quadrature of prior x likelihood
    for seed in range(3):
        gen = np.random.default_rng(600 + seed)
        q = gen.uniform(0.2, 0.8)
        v = gen.uniform(0.3, 2.0)
        nobs = int(gen.integers(4, 12))
        ssr = gen.uniform(0.5, 2.0) * nobs
        z, delta = update_indicator_and_deviation_ig(
            q, v, np.full(N_CONJ, ssr), np.full(N_CONJ, nobs), gen)
        prior = stats.invgamma(a=1 / v + 2, scale=1 / v + 1)

        def integrand(d):
            return d ** (-nobs / 2) * np.exp(-ssr / (2 * d)) * prior.pdf(d)

        m_slab = quad(integrand, 0, np.inf, limit=200)[0]
        m_spike = np.exp(-ssr / 2)
        p_slab = q * m_slab / (q * m_slab + (1 - q) * m_spike)
        se = np.sqrt(p_slab * (1 - p_slab) / N_CONJ)
        assert abs(z.mean() - p_slab) < 5 * se, f"instance {seed}: slab frequency"
        nu_bar = 2 / v + 4 + nobs
        tau_bar = 2 / v + 2 + ssr
        ks = stats.kstest(delta[z == 1],
                          stats.invgamma(a=nu_bar / 2, scale=tau_bar / 2).cdf).statistic
        assert ks < KS_TOL, f"instance {seed}: KS {ks:.4f}"
        assert np.all(delta[z == 0] == 1.0)


# ---------------------------------------------------------------------------
# Criterion 4: two-simulator joint-distribution consistency.
# ---------------------------------------------------------------------------


def test_criterion_4_joint_distribution_m1():
    res = run_geweke_m1("ss_homosk", 5, 4, 30_000, RngStream(seed=2024, stream_id=0), thin=3)
    z = z_statistics(res["marginal"], res["successive"])
    frac = np.mean([abs(v) < 3.0 for v in z.values()])
    assert frac >= 0.95, f"only {frac:.0%} of z-statistics within +-3: {z}"


def test_criterion_4_joint_distribution_m2():
    res = run_geweke_m2("baseline", 4, 3, 1, 24_000, RngStream(seed=2024, stream_id=0), thin=3)
    z = z_statistics(res["marginal"], res["successive"])
    frac = np.mean([abs(v) < 3.0 for v in z.values()])
    assert frac >= 0.95, f"only {frac:.0%} of z-statistics within +-3: {z}"


# ---------------------------------------------------------------------------
# Criterion 5: closed-form vector-of-means suite.
# ---------------------------------------------------------------------------


def _quadrature_posterior(y, q, v):
    spike = (1 - q) * norm.pdf(y, 0.0, 1.0)

    def integrand(d, power):
        return d**power * norm.pdf(d, 0.0, np.sqrt(v)) * norm.pdf(y - d, 0.0, 1.0)

    lim = 10 * np.sqrt(v) + abs(y) + 10
    mass = q * quad(integrand, -lim, lim, args=(0,), limit=200)[0]
    mean = q * quad(integrand, -lim, lim, args=(1,), limit=200)[0]
    total = spike + mass
    return mass / total, mean / total, np.log(total)


def _brute_force_argmax(y):
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
        if m:
            val += -0.5 * m * np.log(1 + v_hat) - 0.5 * s2 / (1 + v_hat) + 0.5 * s2
        better = val > best[0] + 1e-10 or (
            abs(val - best[0]) <= 1e-10
            and (m < int(best[3].sum()) or (m == int(best[3].sum()) and s2 > np.sum(best[3] * y * y)))
        )
        if better:
            best = (val, q_hat, v_hat, z)
    return best[3]


def test_criterion_5_quadrature_argmax_and_median():
    # (i) closed form vs quadrature at 1e-8
    for y, q, v in [(1.5, 0.4, 0.5), (-2.3, 0.9, 4.0), (0.0, 0.5, 1.0),
                    (3.7, 0.05, 0.05), (0.3, 0.99, 10.0)]:
        q_star, mean, log_ml = _quadrature_posterior(y, q, v)
        assert exact_posterior(y, q, v).q_star == pytest.approx(q_star, abs=1e-8)
        assert posterior_mean(y, q, v) == pytest.approx(mean, abs=1e-8)
        assert log_marginal_likelihood(np.array([y]), q, v) == pytest.approx(log_ml, abs=1e-8)
    # (ii) joint mode vs exhaustive enumeration on 100 random instances
    rng = RngStream(seed=71, stream_id=0)
    for case in range(100):
        gen = rng.substream(case).generator
        n = int(gen.integers(2, 11))
        q_true, v_true = gen.uniform(0.0, 1.0), gen.uniform(0.0, 6.0)
        z = gen.random(n) < q_true
        y = np.sqrt(1.0 + v_true * z) * gen.standard_normal(n)
        _, _, z_hat, _ = argmax_estimator(y)
        np.testing.assert_array_equal(z_hat, _brute_force_argmax(y), err_msg=f"case {case}")
    # (iii) median thresholding: the set where the median is exactly zero is
    # an interval around zero on a (q, v) grid
    y_grid = np.linspace(0.0, 6.0, 400)
    for q in (0.2, 0.4, 0.6, 0.8):
        for v in (0.25, 1.0, 4.0):
            zero = np.array([posterior_median(y, q, v) == 0.0 for y in y_grid])
            changes = np.flatnonzero(np.diff(zero.astype(int)))
            assert zero[0], f"median at y=0 should be zero for q={q}, v={v}"
            assert changes.size <= 1, f"zero-median set not an interval for q={q}, v={v}"
            nonzero = ~zero
            if nonzero.any():
                meds = np.array([posterior_median(y, q, v) for y in y_grid[nonzero]])
                assert np.all(meds > 0.0)


# ---------------------------------------------------------------------------
# Criterion 6: state prior covariance vs simulated AR(1) paths.
# ---------------------------------------------------------------------------


def test_criterion_6_state_covariance_recursion():
    n_paths = 1_000_000
    for rho in (0.0, 0.6, 0.97, 1.0):
        for t in (3, 8):
            gen = np.random.default_rng(hash((rho, t)) % 2**32)
            eps_vars = gen.uniform(0.05, 0.5, size=t)
            v_s0 = gen.uniform(0.02, 0.3)
            cov = build_state_prior_cov(rho, eps_vars, v_s0)
            s = np.empty((n_paths, t + 1))
            s[:, 0] = np.sqrt(v_s0) * gen.standard_normal(n_paths)
            for step in range(1, t + 1):
                s[:, step] = rho * s[:, step - 1] \
                    + np.sqrt(eps_vars[step - 1]) * gen.standard_normal(n_paths)
            prods = s[:, :, None] * s[:, None, :]
            emp = prods.mean(axis=0)
            stderr = prods.std(axis=0) / np.sqrt(n_paths)
            err = np.abs(emp - cov)
            assert np.all(err < 5.0 * stderr), (
                f"rho={rho}, t={t}: max |err|/stderr = {np.max(err / stderr):.2f}"
            )


# ---------------------------------------------------------------------------
# Criterion 7: adaptive RWMH acceptance-rate targeting.
# ---------------------------------------------------------------------------


def test_criterion_7_rwmh_acceptance_rate():
    total, window = 50_000, 20_000
    for seed in range(3):
        gen = np.random.default_rng(700 + seed)
        psi = int(gen.integers(3, 30))
        prior = InverseGammaSpec(nu=gen.uniform(2.0, 8.0), tau=gen.uniform(0.5, 4.0))
        true_v = gen.uniform(0.3, 3.0)
        deltas = ig_spec_from_variance(true_v).draw(gen, size=psi)
        active = np.ones(psi, dtype=np.int64)
        adapt = RwmhAdaptState()
        omega = 1.0
        accepted_before = 0
        for j in range(total):
            if j == total - window:
                accepted_before = adapt.accepted
            omega, adapt = update_v_delta_sigma_rwmh(omega, active, deltas, prior, adapt, gen)
        rate = (adapt.accepted - accepted_before) / window
        assert 0.39 <= rate <= 0.49, f"posterior {seed}: acceptance rate {rate:.3f}"


# ---------------------------------------------------------------------------
# Criterion 8: forecast pipeline calibration.
# ---------------------------------------------------------------------------


def _draw_prior_units(common, n, t, k, gen):
    """Unit deviations and states from the M2 prior. This is criterion 8's own
    generator: it consumes random numbers in a different order from
    `panel.draw_unit_deviations` (both indicator blocks first, then the
    slabs), and it keeps the test's panels fixed at its pinned seeds."""
    z = {}
    z["alpha"] = (gen.random(n) < common.q["alpha"]).astype(np.int64)
    z["rho"] = (gen.random(n) < common.q["rho"]).astype(np.int64)
    delta_alpha = z["alpha"][:, None] * sample_mv_normal(
        np.zeros(k), np.atleast_2d(common.v_delta_alpha), gen, size=n
    )
    delta_rho = z["rho"] * np.sqrt(common.v_delta_rho) * gen.standard_normal(n)
    deltas = {}
    for label, v in (("sigma_u", common.v_delta_sigma_u), ("sigma_eps", common.v_delta_sigma_eps)):
        if v is None:
            z[label] = np.zeros(n, dtype=np.int64)
            deltas[label] = np.ones(n)
        else:
            z[label] = (gen.random(n) < common.q[label]).astype(np.int64)
            draws = ig_spec_from_variance(v).draw(gen, size=n)
            deltas[label] = np.where(z[label] == 1, draws, 1.0)
    s = np.empty((n, t + 1))
    s[:, 0] = common.mu_s0 + np.sqrt(common.v_s0) * gen.standard_normal(n)
    phi = common.rho + delta_rho
    for step in range(1, t + 1):
        sd = np.sqrt(common.sigma2_eps[step - 1] * deltas["sigma_eps"])
        s[:, step] = phi * s[:, step - 1] + sd * gen.standard_normal(n)
    return UnitState(z=z, delta_alpha=delta_alpha, delta_rho=delta_rho,
                     delta_sigma_u=deltas["sigma_u"], delta_sigma_eps=deltas["sigma_eps"], s=s)


def _outcomes_given_states(common, units, x, gen):
    n, t, k = x.shape
    sd_u = np.sqrt(common.sigma2_u[None, :] * units.delta_sigma_u[:, None])
    fitted = np.einsum("itk,ik->it", x, common.alpha[None, :] + units.delta_alpha)
    return fitted + units.s[:, 1:] + sd_u * gen.standard_normal((n, t))


def _prior_truth_panel(seed, n, t, k=2):
    """Draw truth from the sampler's prior (restricted to stationary unit
    dynamics), simulate t in-sample periods plus one holdout period with the
    terminal-period variances carried forward, and package the panel."""
    hyper = HyperParams.m2_defaults(k)
    config = M2Config(variant="baseline", n_draws=2, burn_in=0, hyper=hyper)
    gen = np.random.default_rng(seed)
    while True:
        common = _draw_m2_common(hyper, k, t + 1, config, gen)
        units = _draw_prior_units(common, n, t + 1, k, gen)
        if np.all(np.abs(common.rho + units.delta_rho) < 0.98):
            break
    common.sigma2_u[t] = common.sigma2_u[t - 1]
    common.sigma2_eps[t] = common.sigma2_eps[t - 1]
    sd = np.sqrt(common.sigma2_eps[t] * units.delta_sigma_eps)
    units.s[:, t + 1] = (common.rho + units.delta_rho) * units.s[:, t] \
        + sd * gen.standard_normal(n)
    h = np.cumsum(np.ones((n, t + 1)), axis=1)
    x_obs = np.stack([np.ones((n, t + 1)), h / 10.0], axis=-1)
    y_obs = _outcomes_given_states(common, units, x_obs, gen)
    y = np.column_stack([np.full(n, np.nan), y_obs[:, :t]])
    mask = np.ones((n, t + 1), dtype=bool)
    mask[:, 0] = False
    x = np.concatenate([np.full((n, 1, k), np.nan), x_obs[:, :t]], axis=1)
    data = PanelData(unit_ids=tuple(f"u{i:04d}" for i in range(n)), times=np.arange(t + 1),
                     y=y, mask=mask, x=x)
    return data, y_obs[:, t]


def test_criterion_8_forecast_calibration():
    n, t = 100, 20
    config = M2Config(variant="baseline", n_draws=1000, burn_in=400)
    hits = []
    widths = []  # per panel: mean 90% width, full-panel and single-unit information
    first = None
    for rep in range(5):
        data, holdout = _prior_truth_panel(5000 + rep, n, t)
        chain = run_m2(data, config, np.random.default_rng(6000 + rep))
        pred = predict(chain, data, [1], "full_info_param_unc",
                       np.random.default_rng(7000 + rep))
        lo, hi = pred.interval(1, 0.90)
        hits.append((holdout >= lo) & (holdout <= hi))
        singles = run_m2_individual(data, n_draws=400, burn_in=200,
                                    rng=np.random.default_rng(9000 + rep))
        indiv = predict(singles, data, [1], "individual_info",
                        np.random.default_rng(9999 + rep))
        w_indiv = np.subtract(*reversed(indiv.interval(1, 0.90)))
        widths.append((float(np.mean(hi - lo)), float(w_indiv.mean())))
        if first is None:
            first = (data, holdout, chain, pred)
    coverage = float(np.mean(np.concatenate(hits)))
    assert 0.85 <= coverage <= 0.95, f"pooled one-step 90% coverage {coverage:.3f}"

    data, holdout, chain, pred = first
    # density-score stability under draw doubling
    half = PredictiveDraws(pred.draws[: pred.draws.shape[0] // 2],
                           pred.h1_means[: pred.draws.shape[0] // 2],
                           pred.h1_vars[: pred.draws.shape[0] // 2],
                           pred.scenario, pred.horizons, pred.unit_ids)
    assert abs(score(pred, holdout).lps - score(half, holdout).lps) < 0.005
    # scenario width orderings
    fixed = predict(chain, data, [1], "full_info_no_param_unc", np.random.default_rng(8000))
    w_full = np.subtract(*reversed(pred.interval(1, 0.90)))
    w_fixed = np.subtract(*reversed(fixed.interval(1, 0.90)))
    assert w_fixed.mean() < w_full.mean(), "fixing parameters should narrow intervals"
    w_full_mean, w_indiv_mean = np.mean(widths, axis=0)
    assert w_indiv_mean > w_full_mean, (
        "single-unit information should widen intervals; (full, individual) mean width per "
        f"panel: {[(round(f, 4), round(i, 4)) for f, i in widths]}")


# ---------------------------------------------------------------------------
# Criterion 9: unit-mean, variance-v slab reparameterization.
# ---------------------------------------------------------------------------


def test_criterion_9_variance_slab_reparameterization():
    n = 100_000
    n_batches = 50
    for v in (0.25, 1.0, 4.0):
        gen = np.random.default_rng(int(v * 100))
        x = ig_spec_from_variance(v).draw(gen, size=n)
        se_mean = x.std(ddof=1) / np.sqrt(n)
        assert abs(x.mean() - 1.0) < 3 * se_mean, f"v={v}: mean {x.mean():.4f}"
        # the draws have an infinite fourth moment for larger v, so the
        # variance is checked through the fitted shape/scale (finite Fisher
        # information), batched for an honest Monte Carlo stderr
        ests = []
        for batch in np.array_split(x, n_batches):
            a, _, scale_hat = stats.invgamma.fit(batch, floc=0)
            ests.append(scale_hat**2 / ((a - 1) ** 2 * (a - 2)))
        ests = np.array(ests)
        se_var = ests.std(ddof=1) / np.sqrt(n_batches)
        assert abs(ests.mean() - v) < 3 * se_var, (
            f"v={v}: implied variance {ests.mean():.4f} +- {se_var:.4f}"
        )
