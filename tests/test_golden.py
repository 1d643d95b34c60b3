"""Golden streams: fixed-seed outputs that must reproduce to the last bit.

The benchmark inputs and every fixed-seed CLI output depend on how the
simulators and `predict` consume random numbers. Each case below is pinned by
the SHA-256 of its float64 bytes, so any change of value, however small, or
of draw order fails; the first element is kept in the clear to show the scale
of a difference. A change that consumes random numbers differently on
purpose records new digests here and says so in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from sparsepanel.blocks import CommonState, HyperParams
from sparsepanel.cli import main
from sparsepanel.forecast import inequality_decomposition, predict
from sparsepanel.m1 import M1Config, run_m1
from sparsepanel.m2 import M2Config, run_m2, run_m2_individual
from sparsepanel.mc import MCDesign
from sparsepanel.panel import simulate_m1, simulate_m2
from sparsepanel.rng import RngStream


def digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()


def m2_theta(t):
    return CommonState(
        alpha=np.array([1.5, 0.5]), rho=0.7,
        q={"alpha": 0.4, "rho": 0.4, "sigma_u": 0.4, "sigma_eps": 0.4},
        v_delta_alpha=np.diag([0.3, 0.05]), v_delta_rho=0.0064,
        sigma2_u=np.full(t, 0.04), sigma2_eps=np.full(t, 0.02),
        v_delta_sigma_u=1.0, v_delta_sigma_eps=1.0, mu_s0=0.0, v_s0=0.05,
    )


def m2_panel(n=8, t=6):
    profile = np.cumsum(np.ones((n, t)), axis=1)
    return simulate_m2(m2_theta(t), HyperParams.m2_defaults(), n, t, profile, RngStream(11, 1))


def m1_panel():
    return simulate_m1(MCDesign(model="m1_hetsk").theta, HyperParams.m1_defaults(), 7, 5,
                       RngStream(11, 1), heteroskedastic=True)


def case_simulate_m1():
    data, truth = m1_panel()
    return np.concatenate([data.y[:, 1:].ravel(), truth.delta_alpha, truth.delta_rho,
                           truth.delta_sigma])


def case_simulate_m2():
    data, truth = m2_panel()
    return np.concatenate([data.y[:, 1:].ravel(), truth.s.ravel(), truth.delta_alpha.ravel(),
                           truth.delta_sigma_u, truth.delta_sigma_eps])


def case_predict(scenario):
    data, _ = m2_panel()
    if scenario == "individual_info":
        chain = run_m2_individual(data, 40, 20, RngStream(11, 4))
    else:
        chain = run_m2(data, M2Config(variant="baseline", n_draws=40, burn_in=20), RngStream(11, 2))
    pred = predict(chain, data, (1, 2, 3), scenario, RngStream(11, 3))
    return np.concatenate([pred.draws.ravel(), pred.h1_means.ravel(), pred.h1_vars.ravel()])


def case_decomposition():
    result = inequality_decomposition(m2_theta(6), n=300, t=6, rng=RngStream(11, 5))
    return np.concatenate([result.v_baseline, result.v_no_alpha_dev, result.v_no_transitory])


CASES = {
    "simulate_m1": case_simulate_m1,
    "simulate_m2": case_simulate_m2,
    "predict_full_info_param_unc": lambda: case_predict("full_info_param_unc"),
    "predict_individual_info": lambda: case_predict("individual_info"),
    "inequality_decomposition": case_decomposition,
}

# (size, first value, SHA-256 of the float64 bytes). The simulators and the
# decomposition were recorded before the state-space model's three forward
# recursions became one; the two `predict` cases were re-recorded when the
# M2 sweep moved to per-chain moments and closed forms, which change the
# chains by rounding only (`tests/test_m2_sweep.py` holds the golden chain
# to the reference sweep). `predict_full_info_param_unc` was re-recorded once
# more when the slab-variance proposal took its normal quantile from
# `statistics.NormalDist`, which rounds differently from the former AS 241
# code in the last bit of some arguments.
GOLDEN = {
    "inequality_decomposition": (18, 0.1430885909408333,
        "fc9dc4b07fe0473dca0b0b143cb59a8d6ed5d8348360ef12828d1a74bffe847e"),
    "predict_full_info_param_unc": (800, 1.8126599805936727,
        "98479259dd139cc350078c25608f9a4e17c27f893f89905894558bd4e17b8289"),
    "predict_individual_info": (800, 1.5271684445847389,
        "8e513ba08b7687507b097a7c7560df4ffc1a33dc6583b641ab30c30d7e5ccb36"),
    "simulate_m1": (56, 0.3697035444804134,
        "b726297e8e2d5ff388fe10cbcc5176e739a649b5697726da84d8bd58a10a870a"),
    "simulate_m2": (136, 1.7662052764568266,
        "cc0f6fe53e69227e5cde511d21e3cd1d3cf1e5db7dfcb01ba67e72c57cbc24b0"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixed_seed_stream_is_unchanged(name):
    values = CASES[name]()
    size, first, sha = GOLDEN[name]
    assert (values.size, float(values[0])) == (size, first)
    assert digest(values) == sha


# The chain files `estimate` writes, pinned by the manifest's content_sha256:
# the bytes of every CSV, so both the draws and their text are fixed.
CHAINS = {
    "estimate_m1_ss_hetsk": lambda: run_m1(
        m1_panel()[0], M1Config(variant="ss_hetsk", n_draws=60, burn_in=20), RngStream(11, 2)),
    "estimate_m2_baseline": lambda: run_m2(
        m2_panel()[0], M2Config(variant="baseline", n_draws=40, burn_in=20), RngStream(11, 2)),
}

GOLDEN_CHAINS = {
    "estimate_m1_ss_hetsk": "ab094ac647c5b0a2fb3db597acecc4a4c1f78ea9623cc673fd9285f3454496ee",
    "estimate_m2_baseline": "032bdd55f3f086489346a4d692e7fc818f6e14b5d2cec790bef2df1a97561049",
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_fixed_seed_chain_files_are_unchanged(name, tmp_path):
    CHAINS[name]().to_dir(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["files"] == ["common.csv", "unit.csv", "unit_means.csv"]
    assert manifest["content_sha256"] == GOLDEN_CHAINS[name]


# Files the CLI writes from a config file's `theta`, pinned by the SHA-256 of
# their bytes: every `theta` entry each model has, given in each form a config
# file may give it, reaches the simulator as the same truth.
CLI_RUNS = {
    "simulate_m1_theta": (["simulate", "--model", "m1", "--n", "9", "--t", "5", "--seed", "4"], {
        "theta": {"alpha": 2, "rho": 0.5, "sigma2": 0.6, "v_delta_alpha": 0.3,
                  "v_delta_rho": 0.05, "q": {"alpha": 0.5, "rho": 0.3, "sigma": 0.0}}},
        "panel.csv"),
    "simulate_m2_theta": (["simulate", "--model", "m2", "--n", "7", "--t", "4", "--seed", "4"], {
        "theta": {"alpha": [1.2, 0.4], "rho": 0.6, "v_delta_alpha": [[0.2, 0.01], [0.01, 0.04]],
                  "v_delta_rho": 0.01, "sigma2_u": 0.05, "sigma2_eps": [0.01, 0.02, 0.03, 0.04],
                  "v_delta_sigma_u": 0.5, "v_delta_sigma_eps": 2, "mu_s0": 0.1, "v_s0": 0.02,
                  "q": {"alpha": 0.5, "rho": 0.3, "sigma_u": 0.6, "sigma_eps": 0.2}}},
        "panel.csv"),
    "decompose_sigma2_u_list": (["decompose", "--seed", "4"], {
        "cohort_size": 200, "cohort_periods": 5, "theta": {"sigma2_u": [0.04]}},
        "decomposition.csv"),
}

GOLDEN_CLI = {
    "simulate_m1_theta": "89470a688d568b53d4ad88b7df5b9b48c5747002d59d2d15c5ac59f5fa56844a",
    "simulate_m2_theta": "1dac17a7c74c63eb8d3f94027a9f329e071af58c188fd9143cee7a75f0574719",
    "decompose_sigma2_u_list": "2c6c97771f2b91da8e6e604f7802a6143c53e1bf4f40e3a4784784c74a8f6b64",
}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_fixed_seed_cli_output_is_unchanged(name, tmp_path):
    argv, config, output = CLI_RUNS[name]
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main([*argv, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / output).read_bytes()).hexdigest() == GOLDEN_CLI[name]
