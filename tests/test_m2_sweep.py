"""The M2 sweep against its reference form.

`sparsepanel.m2.m2_sweep` reads per-chain panel moments and computes the
k <= 2 Schur complement in closed form; `m2_oracle.reference_m2_sweep` is the
sweep written directly from the conditionals, with LAPACK for every k. On a
shared seed both consume the same random numbers, so from the same state they
must take the same discrete steps (indicators, RWMH acceptances) and agree on
every continuous draw up to rounding. Run on their own, two chains drift
apart by more than one sweep's rounding where the posterior is ill
conditioned (a unit's intercept deviation and its persistent state are nearly
confounded when few periods are observed), so the variant panels are compared
one sweep at a time along the reference chain, and the golden chain, whose
panel is balanced, end to end.
"""

import copy

import numpy as np
import pytest

from m2_oracle import reference_m2_sweep
from sparsepanel.blocks import CommonState, HyperParams, RwmhAdaptState
from sparsepanel.m2 import M2Config, _extract_m2_arrays, init_m2_state, m2_sweep, panel_moments
from sparsepanel.panel import M2_BLOCKS, draw_unit_deviations, simulate_m2_given
from sparsepanel.rng import RngStream

from test_golden import m2_panel

RTOL = 1e-12
COMMON = ("alpha", "rho", "v_delta_alpha", "v_delta_rho", "v_delta_sigma_u", "v_delta_sigma_eps",
          "sigma2_u", "sigma2_eps", "mu_s0", "v_s0")
UNIT = ("delta_alpha", "delta_rho", "delta_sigma_u", "delta_sigma_eps", "s")


def make_panel(n, t, k, missing, seed):
    """(y, mask, x) of a simulated panel with k regressors (a constant first),
    read as `run_m2` reads it; with `missing`, about a fifth of the cells
    after each unit's first carry no measurement."""
    gen = np.random.default_rng(seed)
    theta = CommonState(
        alpha=gen.normal(0.0, 0.5, k), rho=0.7,
        q={"alpha": 0.5, "rho": 0.5, "sigma_u": 0.4, "sigma_eps": 0.4},
        v_delta_alpha=0.2 * np.eye(k), v_delta_rho=0.01,
        sigma2_u=np.full(t, 0.05), sigma2_eps=np.full(t, 0.03),
        v_delta_sigma_u=0.5, v_delta_sigma_eps=0.5, mu_s0=0.1, v_s0=0.05,
    )
    units = draw_unit_deviations(theta, n, gen, blocks=M2_BLOCKS)
    x = np.ones((n, t, k))
    x[:, :, 1:] = gen.normal(size=(n, t, k - 1))
    _, y = simulate_m2_given(theta, units, x, gen)
    mask = np.ones((n, t), dtype=bool)
    if missing:
        mask[:, 1:] = gen.random((n, t - 1)) > 0.2
    return np.where(mask, y, 0.0), mask, np.where(mask[:, :, None], x, 0.0)


def snapshot(common, units, adapts):
    """(continuous draws, indicators, RWMH acceptance counts) of a chain's state."""
    draws = {name: getattr(common, name) for name in COMMON if getattr(common, name) is not None}
    draws |= {name: getattr(units, name) for name in UNIT}
    draws |= {"q_" + label: common.q[label] for label in M2_BLOCKS}
    return (draws, {label: units.z[label].copy() for label in M2_BLOCKS},
            {label: int(adapts[label].accepted) for label in adapts})


def assert_chains_agree(y, mask, x, config, stream, n_sweeps, follow_reference):
    """Run the reference sweep and `m2_sweep` on equal streams and compare
    every draw after each sweep.

    With `follow_reference`, `m2_sweep` starts from the reference chain's
    state (generator included) at every sweep, so what is compared is one
    sweep's rounding; otherwise the two chains run on their own. Each draw is
    compared relative to the largest magnitude it has taken so far.
    """
    n, t, k = x.shape
    common, units = init_m2_state(n, t, k, config)
    adapts = {"sigma_u": RwmhAdaptState(), "sigma_eps": RwmhAdaptState()}
    ref = (common, units, adapts, RngStream(*stream).generator)
    new = copy.deepcopy(ref)
    moments = panel_moments(mask, x)
    scale = {}
    for j in range(n_sweeps):
        adapt = j < config.burn_in
        if follow_reference:
            new = copy.deepcopy(ref)
        reference_m2_sweep(y, x, mask, ref[0], ref[1], config, ref[2], ref[3], adapt_enabled=adapt)
        m2_sweep(y, x, moments, new[0], new[1], config, new[2], new[3], adapt_enabled=adapt)
        (want, want_z, want_acc), (got, got_z, got_acc) = (snapshot(*chain[:3]) for chain in (ref, new))
        for name, value in want.items():
            scale[name] = max(scale.get(name, 0.0), float(np.abs(value).max()))
            np.testing.assert_allclose(got[name], value, rtol=RTOL, atol=RTOL * scale[name],
                                       err_msg=f"sweep {j}: {name}")
        for label in M2_BLOCKS:
            np.testing.assert_array_equal(got_z[label], want_z[label])
        assert want_acc == got_acc


@pytest.mark.parametrize("variant", ["baseline", "homosk", "rip", "hip"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("missing", [False, True], ids=["balanced", "missing"])
def test_sweep_matches_reference(variant, k, missing):
    y, mask, x = make_panel(9, 6, k, missing, seed=10 * k + missing)
    config = M2Config(variant=variant, n_draws=60, burn_in=30, hyper=HyperParams.m2_defaults(k=k))
    assert_chains_agree(y, mask, x, config, (k + 3 * missing, 9), config.n_draws,
                        follow_reference=True)


def test_sweep_matches_reference_on_the_golden_chain():
    """The chain behind the `predict_full_info_param_unc` golden digest."""
    data, _ = m2_panel()
    config = M2Config(variant="baseline", n_draws=40, burn_in=20)
    assert_chains_agree(*_extract_m2_arrays(data), config, (11, 2), config.n_draws,
                        follow_reference=False)
