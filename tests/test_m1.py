"""Tests for the dynamic panel Gibbs sampler: structural invariants per
variant, reproducibility, parameter recovery on informative data, and
replication-batched chains against chains run one panel at a time."""

import copy

import numpy as np
import pytest

from m1_oracle import m1_sweep_reference
from sparsepanel.blocks import CommonState, HyperParams, RwmhAdaptState
from sparsepanel.m1 import (
    VARIANTS,
    ConfigurationError,
    M1Config,
    UnitMoments,
    init_m1_state,
    m1_sweep,
    run_m1,
)
from sparsepanel.panel import simulate_m1
from sparsepanel.rng import RngStream


def _theta(q=0.4, hetsk=True):
    return CommonState(
        alpha=1.0, rho=0.6, sigma2=0.8,
        q={"alpha": q, "rho": q, "sigma": q if hetsk else 0.0},
        v_delta_alpha=0.5, v_delta_rho=0.09,
        v_delta_sigma=1.0 if hetsk else None,
    )


def _sim(n=60, t=8, q=0.4, hetsk=True, seed=41):
    data, truth = simulate_m1(_theta(q, hetsk), HyperParams.m1_defaults(), n=n, t=t,
                              rng=RngStream(seed=seed, stream_id=0), heteroskedastic=hetsk)
    return data, truth


def _sweep_state(config, n, fixed_common):
    if not fixed_common:
        return init_m1_state(n, config)
    _, units = init_m1_state(n, config)
    return _theta(hetsk=config.heteroskedastic), units


@pytest.mark.parametrize("variant,fixed_common",
                         [(v, False) for v in VARIANTS] + [("ss_homosk", True), ("ss_hetsk", True)])
def test_sweep_matches_residual_matrix_reference(variant, fixed_common):
    # The moments sweep and the residual-matrix sweep, from one state and one
    # seed, must make the same draws: same random numbers, same order.
    data, _ = _sim(n=40, t=6, seed=44)
    y0, Y = data.y[:, 0].copy(), data.y[:, 1:].copy()
    config = M1Config(variant=variant, n_draws=40, burn_in=20)
    common, units = _sweep_state(config, Y.shape[0], fixed_common)
    ref_common, ref_units = copy.deepcopy(common), copy.deepcopy(units)
    adapt, ref_adapt = RwmhAdaptState(), RwmhAdaptState()
    gen, ref_gen = (RngStream(seed=16, stream_id=0).generator for _ in range(2))
    moments = UnitMoments(y0, Y)
    for j in range(config.n_draws):
        m1_sweep(y0, Y, common, units, config, adapt, gen, fixed_common=fixed_common,
                 adapt_enabled=j < config.burn_in, moments=moments)
        m1_sweep_reference(y0, Y, ref_common, ref_units, config, ref_adapt, ref_gen,
                           fixed_common=fixed_common, adapt_enabled=j < config.burn_in)
        for name in ("alpha", "rho", "sigma2", "v_delta_alpha", "v_delta_rho", "v_delta_sigma"):
            np.testing.assert_allclose(getattr(common, name) or 0.0,
                                       getattr(ref_common, name) or 0.0, rtol=1e-10)
        for label in ("alpha", "rho", "sigma"):
            np.testing.assert_allclose(common.q[label], ref_common.q[label], rtol=1e-10)
            np.testing.assert_array_equal(units.z[label], ref_units.z[label])
            np.testing.assert_allclose(getattr(units, "delta_" + label),
                                       getattr(ref_units, "delta_" + label), rtol=1e-10)
        assert adapt.log_step == pytest.approx(ref_adapt.log_step, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_unit_moments_match_explicit_residual_sums(shift):
    # Centred moments keep ssr accurate on a panel far from zero, where the
    # uncentred sum_y^2 - 2 ... form loses about 13 digits to cancellation.
    data, truth = _sim(n=50, t=8, seed=45)
    y = data.y + shift
    y0, Y = y[:, 0], y[:, 1:]
    L = np.column_stack([y0, Y[:, :-1]])
    moments = UnitMoments(y0, Y)
    rho_i = 0.6 + truth.delta_rho
    alpha_i = 1.0 + truth.delta_alpha + shift * (1.0 - rho_i)  # near each unit's fit
    for a, r in ((alpha_i, rho_i), (alpha_i + 0.3, rho_i - 0.05), (1.0 + 0.4 * shift, 0.6)):
        resid = Y - np.reshape(a, (-1, 1)) - np.reshape(r, (-1, 1)) * L
        np.testing.assert_allclose(moments.ssr(a, r), (resid**2).sum(axis=1), rtol=1e-8)
        mean_e = moments.mean_resid(a, r)
        np.testing.assert_allclose(moments.t * mean_e, resid.sum(axis=1),
                                   rtol=0, atol=1e-8 * np.abs(resid).sum(axis=1).max())
        np.testing.assert_allclose(moments.lag_resid(r, mean_e), (L * resid).sum(axis=1),
                                   rtol=0, atol=1e-8 * (np.abs(L) * np.abs(resid)).sum(axis=1).max())


def test_config_validation():
    with pytest.raises(ConfigurationError):
        M1Config(variant="nope")
    with pytest.raises(ConfigurationError):
        M1Config(n_draws=100, burn_in=100)
    with pytest.raises(ConfigurationError):
        M1Config(thin=0)
    with pytest.raises(ConfigurationError):
        M1Config(thin=-1)
    with pytest.raises(ConfigurationError):
        M1Config(n_draws=100, burn_in=-1)


def test_reproducibility_same_stream():
    data, _ = _sim(n=20)
    cfg = M1Config(variant="ss_hetsk", n_draws=120, burn_in=60)
    c1 = run_m1(data, cfg, RngStream(seed=9, stream_id=3))
    c2 = run_m1(data, cfg, RngStream(seed=9, stream_id=3))
    for name in c1.common:
        np.testing.assert_array_equal(c1.common[name], c2.common[name])
    c3 = run_m1(data, cfg, RngStream(seed=9, stream_id=4))
    assert not np.array_equal(c1.common["alpha"], c3.common["alpha"])


def test_homogeneous_variant_keeps_units_at_spike():
    data, _ = _sim(n=20)
    chain = run_m1(data, M1Config(variant="homogeneous", n_draws=100, burn_in=50),
                   RngStream(seed=10, stream_id=0))
    assert np.all(chain.unit["delta_alpha"] == 0.0)
    assert np.all(chain.unit["delta_rho"] == 0.0)
    assert np.all(chain.unit["delta_sigma"] == 1.0)
    assert np.all(chain.common["q_alpha"] == 0.0)


def test_full_hetero_variant_keeps_all_units_active():
    data, _ = _sim(n=20)
    chain = run_m1(data, M1Config(variant="full_hetero_hetsk", n_draws=100, burn_in=50),
                   RngStream(seed=11, stream_id=0))
    assert np.all(chain.unit["z_alpha"] == 1)
    assert np.all(chain.unit["z_rho"] == 1)
    assert np.all(chain.unit["z_sigma"] == 1)
    assert chain.unit["delta_alpha"].std() > 0


def test_fixed_common_holds_shared_parameters():
    data, truth = _sim(n=30)
    theta = _theta()
    chain = run_m1(data, M1Config(variant="ss_hetsk", n_draws=200, burn_in=100),
                   RngStream(seed=12, stream_id=0), fixed_common=theta)
    assert np.all(chain.common["alpha"] == theta.alpha)
    assert np.all(chain.common["rho"] == theta.rho)
    assert np.all(chain.common["sigma2"] == theta.sigma2)
    assert np.all(chain.common["q_alpha"] == 0.4)
    # Unit blocks still move.
    assert chain.unit["delta_alpha"].std() > 0


def test_recovers_common_parameters_with_no_deviations():
    # q = 0 data: everything is common, so a moderately long panel pins
    # (alpha, rho, sigma2) down tightly.
    data, _ = _sim(n=300, t=10, q=0.0, hetsk=False, seed=43)
    chain = run_m1(data, M1Config(variant="ss_homosk", n_draws=1500, burn_in=500),
                   RngStream(seed=13, stream_id=0))
    assert chain.common["alpha"].mean() == pytest.approx(1.0, abs=0.1)
    assert chain.common["rho"].mean() == pytest.approx(0.6, abs=0.06)
    assert chain.common["sigma2"].mean() == pytest.approx(0.8, abs=0.08)
    assert chain.common["q_alpha"].mean() < 0.35
    assert chain.common["q_rho"].mean() < 0.35


def test_unit_means_match_stored_draws():
    data, _ = _sim(n=15)
    chain = run_m1(data, M1Config(variant="ss_hetsk", n_draws=150, burn_in=50),
                   RngStream(seed=14, stream_id=0))
    np.testing.assert_allclose(
        chain.unit_means["alpha_i"],
        (chain.common["alpha"][:, None] + chain.unit["delta_alpha"]).mean(axis=0),
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        chain.unit_means["sigma2_i"],
        (chain.common["sigma2"][:, None] * chain.unit["delta_sigma"]).mean(axis=0),
        rtol=1e-12,
    )


def test_thinning_keeps_expected_count():
    data, _ = _sim(n=10)
    chain = run_m1(data, M1Config(variant="ss_homosk", n_draws=100, burn_in=40, thin=7),
                   RngStream(seed=15, stream_id=0))
    assert chain.n_draws == len(range(40, 100, 7))


def _batched_and_single(variant, fixed_common, n_draws=60, burn_in=30):
    """One chain over three replications, and each replication's chain alone."""
    panels = [_sim(n=30, t=6, seed=50 + r)[0] for r in range(3)]
    config = M1Config(variant=variant, n_draws=n_draws, burn_in=burn_in)
    theta = _theta(hetsk=config.heteroskedastic) if fixed_common else None
    streams = [RngStream(seed=17, stream_id=r) for r in range(3)]
    batched = run_m1(panels, config, streams, fixed_common=theta)
    single = [run_m1(p, config, RngStream(seed=17, stream_id=r), fixed_common=theta)
              for r, p in enumerate(panels)]
    return batched, single


@pytest.mark.parametrize("variant,fixed_common",
                         [(v, False) for v in VARIANTS] + [("ss_homosk", True), ("ss_hetsk", True)])
def test_batched_chain_matches_single_panel_chains(variant, fixed_common):
    # Each replication of a batched chain draws from its own stream in the
    # order a chain on its panel alone does, so column r of every batched
    # draw is replication r's chain: indicators exactly, the rest to 1e-12.
    batched, single = _batched_and_single(variant, fixed_common)
    assert set(batched.common) == set(single[0].common)
    for r, chain in enumerate(single):
        for name, draws in chain.common.items():
            np.testing.assert_allclose(batched.common[name][:, r], draws, rtol=1e-12, atol=0)
        for name, draws in chain.unit.items():
            if name.startswith("z_"):
                np.testing.assert_array_equal(batched.unit[name][:, r], draws)
            else:
                np.testing.assert_allclose(batched.unit[name][:, r], draws, rtol=1e-12, atol=0)
        for name, means in chain.unit_means.items():
            np.testing.assert_allclose(batched.unit_means[name][r], means, rtol=1e-12, atol=0)
        for name, value in chain.diagnostics.items():
            np.testing.assert_allclose(np.broadcast_to(batched.diagnostics[name], (3,))[r], value,
                                       rtol=1e-12)


def test_batched_unit_means_match_stored_draws():
    # The Monte Carlo harness scores each replication by its posterior means
    # of the composite coefficients, read from `unit_means`.
    batched, _ = _batched_and_single("ss_hetsk", False)
    for name, common, delta, combine in (("alpha_i", "alpha", "delta_alpha", np.add),
                                         ("rho_i", "rho", "delta_rho", np.add),
                                         ("sigma2_i", "sigma2", "delta_sigma", np.multiply)):
        composite = combine(batched.common[common][:, :, None], batched.unit[delta])
        np.testing.assert_allclose(batched.unit_means[name], composite.mean(axis=0), rtol=1e-12)
