"""Smoke tests for the two-simulator sampler-consistency machinery."""

import warnings

import numpy as np
import pytest

from geweke import (
    batch_means_variance,
    run_geweke_m1,
    run_geweke_m2,
    z_statistics,
)
from sparsepanel.rng import RngStream


def test_batch_means_variance_iid():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(30_000)
    bm = batch_means_variance(x)
    # for iid data the batch-means variance of the mean is close to var/n
    assert 0.5 * x.var() / x.size < bm < 2.0 * x.var() / x.size


def test_z_statistics_detects_shift():
    rng = np.random.default_rng(1)
    a = {"f": rng.standard_normal(5000)}
    same = {"f": rng.standard_normal(5000)}
    shifted = {"f": rng.standard_normal(5000) + 0.5}
    assert abs(z_statistics(a, same)["f"]) < 4
    assert abs(z_statistics(a, shifted)["f"]) > 10


def test_run_geweke_m1_structure():
    res = run_geweke_m1("ss_homosk", 3, 3, 200, RngStream(seed=5, stream_id=0))
    assert set(res) == {"marginal", "successive"}
    assert set(res["marginal"]) == set(res["successive"])
    for name, arr in res["marginal"].items():
        assert arr.shape == (200,)
        assert np.all(np.isfinite(arr))
        assert res["successive"][name].shape == (200,)
    # heteroskedastic variant exposes additional test functions
    res_h = run_geweke_m1("ss_hetsk", 3, 3, 50, RngStream(seed=6, stream_id=0))
    assert len(res_h["marginal"]) > len(res["marginal"])


def test_run_geweke_m2_structure():
    res = run_geweke_m2("baseline", 3, 3, 1, 100, RngStream(seed=7, stream_id=0))
    assert set(res) == {"marginal", "successive"}
    for name, arr in res["marginal"].items():
        assert arr.shape == (100,)
        assert np.all(np.isfinite(arr))


@pytest.mark.parametrize("variant, pinned", [
    ("homogeneous", 0.0), ("full_hetero_homosk", 1.0), ("full_hetero_hetsk", 1.0),
])
def test_pinned_variants_pin_q_and_z_in_both_simulators(variant, pinned):
    res = run_geweke_m1(variant, 3, 3, 40, RngStream(seed=5, stream_id=0), thin=2)
    for side in ("marginal", "successive"):
        draws = {k: v for k, v in res[side].items() if k.startswith(("q_", "mean_z_"))}
        assert len(draws) == (6 if variant.endswith("hetsk") else 4)
        for name, values in draws.items():
            assert np.all(values == pinned), (side, name)
    # the homogeneous sweep never updates the slab variances, so they are no test function
    has_slab = any(k.startswith("log_v_delta") for k in res["marginal"])
    assert has_slab == (variant != "homogeneous")


def test_z_statistics_compares_constant_functions_exactly():
    # under "rip" no unit deviates, so four test functions are 0 in both simulators
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_geweke_m2("rip", 3, 3, 2, 40, RngStream(seed=7, stream_id=0), thin=3)
        z = z_statistics(res["marginal"], res["successive"])
    assert all(np.isfinite(v) for v in z.values())
    for name in ("mean_z_alpha", "mean_delta_alpha_sq", "mean_z_rho", "mean_delta_rho_sq"):
        assert z[name] == 0.0
    # two different constants are a certain disagreement
    z = z_statistics({"up": np.zeros(9), "down": np.ones(9)}, {"up": np.ones(9), "down": np.zeros(9)})
    assert z == {"up": np.inf, "down": -np.inf}
