"""Tests for chain summaries and on-disk chain serialization."""

import json

import numpy as np
import pytest

from sparsepanel.blocks import HyperParams
from sparsepanel.chainout import ChainOutput, DrawRecorder, hpd_interval, summarize
from sparsepanel.cli import _default_m2_truth
from sparsepanel.mc import MCDesign
from sparsepanel.m1 import VARIANTS as M1_VARIANTS, M1Config, run_m1
from sparsepanel.m2 import VARIANTS as M2_VARIANTS, M2Config, run_m2, run_m2_individual
from sparsepanel.panel import simulate_m1, simulate_m2


def test_hpd_interval_exhaustive_oracle():
    gen = np.random.default_rng(31)
    for _ in range(20):
        draws = np.sort(gen.standard_normal(200) * gen.uniform(0.5, 2.0))
        lo, hi = hpd_interval(draws, level=0.9)
        k = int(np.ceil(0.9 * draws.size))
        widths = draws[k - 1:] - draws[: draws.size - k + 1]
        j = int(np.argmin(widths))
        assert (lo, hi) == (draws[j], draws[j + k - 1])


def test_hpd_shorter_than_equal_tailed_for_skewed_draws():
    gen = np.random.default_rng(32)
    draws = gen.gamma(2.0, size=50000)
    s = summarize(draws)
    assert s["hpd_hi"] - s["hpd_lo"] < s["q_hi"] - s["q_lo"]
    assert s["mean"] == pytest.approx(2.0, abs=0.05)


def test_summarize_quantiles():
    draws = np.arange(1, 1001, dtype=float)
    s = summarize(draws)
    assert s["median"] == pytest.approx(500.5)
    assert s["q_lo"] == pytest.approx(np.quantile(draws, 0.05))
    assert s["q_hi"] == pytest.approx(np.quantile(draws, 0.95))


def _small_chain():
    gen = np.random.default_rng(33)
    return ChainOutput(
        common={"alpha": gen.standard_normal(50), "beta": gen.standard_normal((50, 2))},
        unit={"delta": gen.standard_normal((50, 3))},
        unit_means={"delta": gen.standard_normal(3)},
        diagnostics={"acc": 0.44},
        config={"model": "m1", "n_draws": 50},
        unit_ids=("u1", "u2", "u3"),
    )


def test_summaries_flatten_vector_parameters():
    s = _small_chain().summaries()
    assert "alpha" in s and "beta[0]" in s and "beta[1]" in s
    assert set(s["alpha"]) == {"mean", "median", "q_lo", "q_hi", "hpd_lo", "hpd_hi"}


def test_to_dir_writes_manifest_and_is_deterministic(tmp_path):
    chain = _small_chain()
    d1, d2 = tmp_path / "a", tmp_path / "b"
    chain.to_dir(d1)
    chain.to_dir(d2)
    man1 = json.loads((d1 / "manifest.json").read_text())
    man2 = json.loads((d2 / "manifest.json").read_text())
    assert man1["content_sha256"] == man2["content_sha256"]
    assert man1["config"]["model"] == "m1"
    assert set(man1["files"]) >= {"common.csv", "unit.csv", "unit_means.csv"}
    header = (d1 / "common.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "draw" or "alpha" in header
    # Values survive the round trip at full precision.
    body = np.genfromtxt(d1 / "common.csv", delimiter=",", names=True)
    np.testing.assert_array_equal(body["alpha"], chain.common["alpha"])


def test_to_dir_writes_non_finite_summaries_as_null(tmp_path):
    chain = ChainOutput(common={"a": np.array([1.0, np.nan, 2.0]), "b": np.array([1.0, 2.0, 4.0])})
    chain.to_dir(tmp_path)
    summaries = json.loads((tmp_path / "manifest.json").read_text())["summaries"]
    assert summaries["a"]["mean"] is None
    assert summaries["b"] == summarize(chain.common["b"])


def test_recorder_keeps_thinned_draws_and_unit_means():
    rec = DrawRecorder(n_draws=10, burn_in=3, thin=3, store_unit_draws=False)
    assert [j for j in range(10) if rec.keeps(j)] == [3, 6, 9]
    for j in (3, 6, 9):
        # a leading replication axis needs nothing of the recorder
        rec.record({"a": np.full((2, 4), j)}, unit={"u": np.arange(4) + j},
                   means_only={"m": np.full(3, 2.0 * j)})
    chain = rec.output({"model": "x"})
    assert chain.common["a"].shape == (3, 2, 4)
    np.testing.assert_array_equal(chain.common["a"][:, 0, 0], [3, 6, 9])
    assert chain.unit == {}
    np.testing.assert_array_equal(chain.unit_means["u"], np.arange(4) + 6.0)
    np.testing.assert_array_equal(chain.unit_means["m"], np.full(3, 12.0))
    assert chain.config == {"model": "x", "n_draws": 10, "burn_in": 3, "thin": 3}


M1_N, M2_N, M2_T, KEPT = 5, 4, 4, 3
M1_UNIT = ("delta_alpha", "delta_rho", "delta_sigma", "z_alpha", "z_rho", "z_sigma")
M2_UNIT = ("delta_rho", "delta_sigma_u", "delta_sigma_eps", "z_alpha", "z_rho", "z_sigma_u",
           "z_sigma_eps", "s_last", "delta_alpha_0", "delta_alpha_1")


def _shapes(table):
    return {name: arr.shape for name, arr in table.items()}


@pytest.mark.parametrize("variant", M1_VARIANTS)
def test_m1_chain_schema(variant):
    data, _ = simulate_m1(MCDesign(model="m1_hetsk").theta, HyperParams.m1_defaults(), M1_N, 4,
                          np.random.default_rng(0), heteroskedastic=True)
    chain = run_m1(data, M1Config(variant=variant, n_draws=8, burn_in=2, thin=2),
                   np.random.default_rng(1))
    common = ["alpha", "rho", "sigma2", "q_alpha", "q_rho", "v_delta_alpha", "v_delta_rho"]
    if variant in ("ss_hetsk", "full_hetero_hetsk"):
        common += ["q_sigma", "v_delta_sigma"]
    assert _shapes(chain.common) == {name: (KEPT,) for name in common}
    assert _shapes(chain.unit) == {name: (KEPT, M1_N) for name in M1_UNIT}
    assert _shapes(chain.unit_means) == {
        name: (M1_N,) for name in M1_UNIT + ("alpha_i", "rho_i", "sigma2_i")}
    assert chain.config == {"model": "m1", "variant": variant, "n_draws": 8, "burn_in": 2,
                            "thin": 2}
    assert chain.unit_ids == data.unit_ids


def _m2_panel():
    data, _ = simulate_m2(_default_m2_truth(M2_T), HyperParams.m2_defaults(), M2_N, M2_T,
                          np.cumsum(np.ones((M2_N, M2_T)), axis=1), np.random.default_rng(0))
    return data


@pytest.mark.parametrize("variant", M2_VARIANTS)
def test_m2_chain_schema(variant):
    data = _m2_panel()
    chain = run_m2(data, M2Config(variant=variant, n_draws=8, burn_in=2, thin=2),
                   np.random.default_rng(1))
    common = {"alpha": (KEPT, 2), "rho": (KEPT,), "sigma2_u": (KEPT, M2_T),
              "sigma2_eps": (KEPT, M2_T), "mu_s0": (KEPT,), "v_s0": (KEPT,), "q_alpha": (KEPT,),
              "q_rho": (KEPT,), "q_sigma_u": (KEPT,), "q_sigma_eps": (KEPT,),
              "v_delta_alpha": (KEPT, 2, 2), "v_delta_rho": (KEPT,)}
    if variant != "homosk":
        common.update(v_delta_sigma_u=(KEPT,), v_delta_sigma_eps=(KEPT,))
    assert _shapes(chain.common) == common
    assert _shapes(chain.unit) == {name: (KEPT, M2_N) for name in M2_UNIT}
    assert _shapes(chain.unit_means) == {name: (M2_N,) for name in M2_UNIT}
    assert chain.config == {"model": "m2", "variant": variant, "n_draws": 8, "burn_in": 2,
                            "thin": 2}
    lean = run_m2(data, M2Config(variant=variant, n_draws=8, burn_in=2, thin=2,
                                 store_unit_draws=False), np.random.default_rng(1))
    assert lean.unit == {} and _shapes(lean.unit_means) == _shapes(chain.unit_means)


def test_individual_chain_schema():
    data = _m2_panel()
    singles = run_m2_individual(data, n_draws=8, burn_in=2, rng=np.random.default_rng(1), thin=2)
    assert _shapes(singles.common) == {"coef": (KEPT, M2_N, 2), "rho_i": (KEPT, M2_N),
                                       "sigma2_u": (KEPT, M2_N), "sigma2_eps": (KEPT, M2_N),
                                       "s_last": (KEPT, M2_N)}
    assert singles.unit == {} and singles.unit_means == {}
    assert singles.config == {"model": "m2_individual", "n_draws": 8, "burn_in": 2, "thin": 2}
