"""Each correctness check of the benchmark fails on a corrupted output.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Every test writes a small valid output with the package's own writers,
shows the check accepts it, then corrupts one thing and shows the check
rejects it with the expected message.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import checks
from checks import CheckError
from ess import bulk_ess
from sparsepanel.chainout import ChainOutput
from sparsepanel.forecast import PredictiveDraws, write_fan_chart


# ---------------------------------------------------------------- m1-estimate

N, T, KEPT = 60, 8, 200


def _m1_case(tmp_path):
    gen = np.random.default_rng(3)
    alpha_i = 1.0 + 1.5 * gen.standard_normal(N)
    y = np.zeros((N, T + 1))
    for t in range(1, T + 1):
        y[:, t] = alpha_i + 0.6 * y[:, t - 1] + gen.standard_normal(N)
    inp = tmp_path / "input"
    inp.mkdir()
    np.savez(inp / "truth.npz", alpha_i=alpha_i, y=y, common=np.array([1.0, 0.6, 0.8]))
    z = {k: (gen.random((KEPT, N)) < 0.4).astype(float) for k in ("alpha", "rho", "sigma")}
    unit = {
        "delta_alpha": z["alpha"] * gen.standard_normal((KEPT, N)),
        "delta_rho": z["rho"] * gen.standard_normal((KEPT, N)),
        "delta_sigma": np.where(z["sigma"] == 1, 1.5, 1.0),
        "z_alpha": z["alpha"], "z_rho": z["rho"], "z_sigma": z["sigma"],
    }
    common = {"alpha": 1.0 + 0.05 * gen.standard_normal(KEPT),
              "rho": 0.6 + 0.02 * gen.standard_normal(KEPT),
              "sigma2": 0.8 + 0.05 * gen.standard_normal(KEPT)}
    means = {"alpha_i": alpha_i + 0.1 * gen.standard_normal(N)}
    return inp, ChainOutput(common=common, unit=unit, unit_means=means)


def _m1_check(tmp_path, chain, inp):
    out = tmp_path / "chain"
    chain.to_dir(out)
    return checks.check_m1_estimate(out, inp, KEPT)


def test_m1_accepts_valid_chain(tmp_path):
    inp, chain = _m1_case(tmp_path)
    figures = _m1_check(tmp_path, chain, inp)
    assert figures["alpha_risk"] < figures["ols_alpha_risk"]


def test_m1_rejects_one_changed_byte(tmp_path):
    inp, chain = _m1_case(tmp_path)
    out = tmp_path / "chain"
    chain.to_dir(out)
    raw = bytearray((out / "unit.csv").read_bytes())
    raw[-3] = ord("7") if raw[-3] != ord("7") else ord("3")
    (out / "unit.csv").write_bytes(bytes(raw))
    with pytest.raises(CheckError, match="content_sha256"):
        checks.check_m1_estimate(out, inp, KEPT)


def test_m1_rejects_shuffled_posterior_means(tmp_path):
    inp, chain = _m1_case(tmp_path)
    chain.unit_means["alpha_i"] = np.random.default_rng(0).permutation(chain.unit_means["alpha_i"])
    with pytest.raises(CheckError, match="not below per-unit OLS"):
        _m1_check(tmp_path, chain, inp)


def test_m1_rejects_missing_draw(tmp_path):
    inp, chain = _m1_case(tmp_path)
    chain.common = {k: v[:-1] for k, v in chain.common.items()}
    with pytest.raises(CheckError, match="expected 200 kept draws"):
        _m1_check(tmp_path, chain, inp)


def test_m1_rejects_indicator_outside_zero_one(tmp_path):
    inp, chain = _m1_case(tmp_path)
    chain.unit["z_rho"][5, 7] = 2.0
    with pytest.raises(CheckError, match="z_rho takes values outside"):
        _m1_check(tmp_path, chain, inp)


def test_m1_rejects_deviation_off_its_spike(tmp_path):
    inp, chain = _m1_case(tmp_path)
    zero = np.argwhere(chain.unit["z_sigma"] == 0)[0]
    chain.unit["delta_sigma"][tuple(zero)] = 1.01
    with pytest.raises(CheckError, match="delta_sigma leaves its spike"):
        _m1_check(tmp_path, chain, inp)


def test_m1_rejects_common_mean_far_from_truth(tmp_path):
    inp, chain = _m1_case(tmp_path)
    chain.common["rho"] = chain.common["rho"] + 0.2
    with pytest.raises(CheckError, match="posterior mean of rho"):
        _m1_check(tmp_path, chain, inp)


# -------------------------------------------------------------------- mc-cell

DESIGN = {"model": "m1_homosk", "n": 80, "t": 8, "n_sim": 2, "q_grid": [0.4],
          "v_delta_alpha_grid": [0.5], "estimators": ["ss", "q0", "q1", "oracle"],
          "n_draws": 10, "burn_in": 5}


def _mc_case(tmp_path, risks, failed=None):
    inp, out = tmp_path / "input", tmp_path / "out"
    inp.mkdir()
    out.mkdir()
    (inp / "design.json").write_text(json.dumps(DESIGN))
    (inp / "config.json").write_text(json.dumps({"seed": 5}))
    rows = ["target,v_delta_alpha,estimator,risk_q0.4,stderr_q0.4"]
    rows += [f"alpha,0.5,{est},{r!r},{se!r}" for est, (r, se) in risks.items()]
    rows += [f"rho,0.5,{est},0.01,0.001" for est in risks]
    (out / "risk_table.csv").write_text("\n".join(rows) + "\n")
    (out / "manifest.json").write_text(json.dumps({"failed_replications": failed or {}}))
    return out, inp


def _valid_risks(tmp_path):
    ols = checks.pooled_ols_alpha_risk(DESIGN, 5)
    return {"ss": (0.075, 0.002), "q0": (ols * 1.001, 0.05), "q1": (0.093, 0.003),
            "oracle": (0.073, 0.002)}


def test_mc_accepts_valid_table(tmp_path):
    figures = checks.check_mc_cell(*_mc_case(tmp_path, _valid_risks(tmp_path)))
    assert figures["alpha_risk_ss"] == 0.075


@pytest.mark.parametrize("change, message", [
    (lambda r: r | {"q0": (2.0 * r["q0"][0], r["q0"][1])}, "not within 2% of pooled OLS"),
    (lambda r: r | {"oracle": (0.075 + 2.5 * 0.002, 0.002)}, "exceeds ss"),
    (lambda r: r | {"q1": (0.07, 0.003)}, "is not below q1"),
])
def test_mc_rejects_corrupted_risks(tmp_path, change, message):
    with pytest.raises(CheckError, match=message):
        checks.check_mc_cell(*_mc_case(tmp_path, change(_valid_risks(tmp_path))))


def test_mc_rejects_failed_replications(tmp_path):
    case = _mc_case(tmp_path, _valid_risks(tmp_path), failed={"q=0.4,v=0.5,q1": 1})
    with pytest.raises(CheckError, match="failed replications"):
        checks.check_mc_cell(*case)


# ------------------------------------------------------------------ forecasts

UNITS = 400


def _forecast_case(tmp_path, draws):
    inp, out = tmp_path / "input", tmp_path / "out"
    inp.mkdir()
    out.mkdir()
    gen = np.random.default_rng(11)
    ids = tuple(f"u{i:06d}" for i in range(UNITS))
    np.savez(inp / "truth.npz", holdout=gen.standard_normal(UNITS), unit_ids=np.array(ids))
    pred = PredictiveDraws(draws, draws[:, :, 0], np.ones_like(draws[:, :, 0]),
                           "full_info_param_unc", (1, 2, 3), ids)
    write_fan_chart(pred, out / "fan_chart.csv")
    return out, inp


def _draws():
    return np.random.default_rng(12).standard_normal((2000, UNITS, 3))


def _edit_fan_chart(out, edit):
    lines = (out / "fan_chart.csv").read_text().splitlines()
    (out / "fan_chart.csv").write_text("\n".join(edit(lines)) + "\n")


def test_forecast_accepts_calibrated_fan(tmp_path):
    figures = checks.check_forecast(*_forecast_case(tmp_path, _draws()), (1, 2, 3))
    lo, hi = checks.coverage_band(0.9, UNITS)
    assert lo <= figures["coverage_h1_90"] <= hi


def test_forecast_rejects_miscalibrated_fan(tmp_path):
    case = _forecast_case(tmp_path, 3.0 + _draws())
    with pytest.raises(CheckError, match="coverage"):
        checks.check_forecast(*case, (1, 2, 3))


def test_forecast_rejects_swapped_quantiles(tmp_path):
    out, inp = _forecast_case(tmp_path, _draws())

    def swap(lines):
        rows = [line.split(",") for line in lines]
        # rows 1..5 hold unit 0, horizon 1, levels 0.05 .. 0.95
        rows[1][3], rows[5][3] = rows[5][3], rows[1][3]
        return [",".join(r) for r in rows]

    _edit_fan_chart(out, swap)
    with pytest.raises(CheckError, match="decrease with the quantile level"):
        checks.check_forecast(out, inp, (1, 2, 3))


def test_forecast_rejects_non_finite_value(tmp_path):
    out, inp = _forecast_case(tmp_path, _draws())
    _edit_fan_chart(out, lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",nan"]
                    + lines[4:])
    with pytest.raises(CheckError, match="non-finite"):
        checks.check_forecast(out, inp, (1, 2, 3))


def test_forecast_rejects_missing_row(tmp_path):
    out, inp = _forecast_case(tmp_path, _draws())
    _edit_fan_chart(out, lambda lines: lines[:-1])
    with pytest.raises(CheckError, match="one row per unit"):
        checks.check_forecast(out, inp, (1, 2, 3))


# ------------------------------------------------------------------------ ESS

def test_bulk_ess_matches_ar1_theory():
    gen = np.random.default_rng(0)
    x = np.zeros(20_000)
    shocks = gen.standard_normal(x.size)
    for i in range(1, x.size):
        x[i] = 0.8 * x[i - 1] + shocks[i]
    assert bulk_ess(x) == pytest.approx(x.size * 0.2 / 1.8, rel=0.15)
    assert bulk_ess(shocks) == pytest.approx(shocks.size, rel=0.1)
