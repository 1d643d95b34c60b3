"""Input generation for the benchmark workloads.

Everything a workload's command reads is made here from the benchmark seed:
the panel or design file, the simulation truth the checks compare against,
and a config file carrying the sampler seed. The program never sees the
benchmark seed itself, only these files.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from sparsepanel.blocks import CommonState, HyperParams
from sparsepanel.panel import simulate_m1, simulate_m2, write_panel

# Workload name -> (index mixed into the input seed, input sizes).
SPECS = {
    "m1-estimate": (1, {"n": 500, "t": 8}),
    "mc-cell": (2, {"n": 500, "t": 8, "n_sim": 2}),
    "m2-forecast-panel": (3, {"n": 20, "t": 20}),
    "m2-forecast-unit": (4, {"n": 20, "t": 20}),
}

# The M1 truth of the heteroskedastic Monte Carlo design: every block has
# inclusion probability 0.4.
M1_TRUTH = dict(alpha=1.0, rho=0.6, sigma2=0.8, q={"alpha": 0.4, "rho": 0.4, "sigma": 0.4},
                v_delta_alpha=0.5, v_delta_rho=0.09, v_delta_sigma=1.0)

# The Monte Carlo cell (q, v_delta_alpha) and its estimators.
MC_CELL = {"q_grid": [0.4], "v_delta_alpha_grid": [0.5],
           "estimators": ["ss", "q0", "q1", "oracle"], "n_draws": 600, "burn_in": 300}

# Largest |rho_i| accepted in an M2 truth. The CLI's default M2 truth
# (rho = 0.9, slab sd 0.2) makes about 12% of units explosive, and coverage
# of a forecast interval is only defined for stationary units, so the
# benchmark uses rho = 0.7 with slab sd 0.08 and redraws the rare panel that
# still has a unit at or beyond this bound.
M2_MAX_ABS_RHO = 0.98


def m2_truth(t: int) -> CommonState:
    """The CLI's default M2 truth with stationary unit dynamics."""
    return CommonState(
        alpha=np.array([1.5, 0.5]),
        rho=0.7,
        q={"alpha": 0.4, "rho": 0.4, "sigma_u": 0.4, "sigma_eps": 0.4},
        v_delta_alpha=np.diag([0.3, 0.05]),
        v_delta_rho=0.0064,
        sigma2_u=np.full(t, 0.04),
        sigma2_eps=np.full(t, 0.02),
        v_delta_sigma_u=1.0,
        v_delta_sigma_eps=1.0,
        mu_s0=0.0,
        v_s0=0.05,
    )


def input_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, SPECS[workload][0]])


def sampler_seed(workload: str, seed: int) -> int:
    """The seed the program's own sampler gets, through the config file."""
    return int(np.random.default_rng([seed, SPECS[workload][0], 1]).integers(2**31))


def _m1_panel(sizes, gen):
    theta = CommonState(**{**M1_TRUTH, "q": dict(M1_TRUTH["q"])})
    data, truth = simulate_m1(theta, HyperParams.m1_defaults(), sizes["n"], sizes["t"], gen,
                              heteroskedastic=True)
    arrays = {
        "alpha_i": theta.alpha + truth.delta_alpha,
        "rho_i": theta.rho + truth.delta_rho,
        "sigma2_i": theta.sigma2 * truth.delta_sigma,
        "common": np.array([theta.alpha, theta.rho, theta.sigma2]),
        "y": data.y,
    }
    return data, arrays


def _m2_panel(sizes, gen):
    """Simulate t in-sample periods plus one held-out period."""
    n, t = sizes["n"], sizes["t"]
    theta = m2_truth(t + 1)
    profile = np.cumsum(np.ones((n, t + 1)), axis=1)
    while True:
        data, truth = simulate_m2(theta, HyperParams.m2_defaults(), n, t + 1, profile, gen)
        if np.all(np.abs(theta.rho + truth.delta_rho) < M2_MAX_ABS_RHO):
            break
    in_sample = type(data)(unit_ids=data.unit_ids, times=data.times[:-1], y=data.y[:, :-1],
                           mask=data.mask[:, :-1], x=data.x[:, :-1])
    return in_sample, {"holdout": data.y[:, -1], "unit_ids": np.array(data.unit_ids)}


def write_inputs(workload: str, seed: int, out: Path) -> float:
    """Generate and write one workload's inputs; return the seconds spent simulating."""
    out.mkdir(parents=True, exist_ok=True)
    sizes = SPECS[workload][1]
    gen = input_rng(workload, seed)
    (out / "config.json").write_text(json.dumps({"seed": sampler_seed(workload, seed)}) + "\n")
    if workload == "mc-cell":
        design = {"model": "m1_homosk", "n": sizes["n"], "t": sizes["t"],
                  "n_sim": sizes["n_sim"], **MC_CELL}
        (out / "design.json").write_text(json.dumps(design, indent=1) + "\n")
        return 0.0
    start = time.perf_counter()
    data, arrays = (_m1_panel if workload == "m1-estimate" else _m2_panel)(sizes, gen)
    simulate_s = time.perf_counter() - start
    write_panel(data, out / "panel.csv")
    np.savez(out / "truth.npz", **arrays)
    return simulate_s
