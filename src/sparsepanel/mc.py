"""Monte Carlo risk experiments for the panel regression model.

Each replication draws unit deviations from the truth, simulates a panel,
runs a set of estimators, and scores the per-unit posterior means of the
composite intercept and autoregressive coefficient under quadratic compound
loss (1/N) sum_i (l_hat_i - l_i)^2. Risks average over replications.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

from sparsepanel.blocks import CommonState, HyperParams
from sparsepanel.chainout import write_manifest
from sparsepanel.m1 import ConfigurationError, M1Config, run_m1
from sparsepanel.panel import simulate_m1
from sparsepanel.rng import RngStream

ESTIMATORS = ("ss", "q0", "q1", "oracle", "ss_homosk_misspec")
TARGETS = ("alpha", "rho")


@dataclass
class MCDesign:
    model: str = "m1_homosk"  # or "m1_hetsk"
    theta: CommonState = None
    q_grid: Sequence[float] = (0.0, 0.4, 1.0)
    v_delta_alpha_grid: Sequence[float] = (0.05, 0.5)
    n: int = 500
    t: int = 8
    n_sim: int = 100
    estimators: Sequence[str] = ("ss", "q0", "q1", "oracle")
    n_draws: int = 5000
    burn_in: int = 2500
    hyper: HyperParams = field(default_factory=HyperParams.m1_defaults)

    def __post_init__(self):
        if self.model not in ("m1_homosk", "m1_hetsk"):
            raise ConfigurationError(f"unknown model {self.model!r}")
        if self.n_sim < 1:
            raise ConfigurationError("n_sim must be >= 1")
        for est in self.estimators:
            if est not in ESTIMATORS:
                raise ConfigurationError(f"unknown estimator {est!r}")
        if self.model == "m1_homosk" and "ss_homosk_misspec" in self.estimators:
            raise ConfigurationError("the misspecified estimator needs heteroskedastic data")
        if self.theta is None:
            hetsk = self.model == "m1_hetsk"
            self.theta = CommonState(
                alpha=1.0, rho=0.6, sigma2=0.8,
                q={"alpha": 0.4, "rho": 0.4, "sigma": 0.4 if hetsk else 0.0},
                v_delta_alpha=0.5, v_delta_rho=0.09,
                v_delta_sigma=1.0 if hetsk else None,
            )

    @property
    def heteroskedastic(self) -> bool:
        return self.model == "m1_hetsk"


@dataclass
class RiskTable:
    """Compound-risk estimates per (q, v_delta_alpha, estimator, target)."""

    risks: Dict[Tuple[float, float, str, str], float]
    stderrs: Dict[Tuple[float, float, str, str], float]
    failed: Dict[Tuple[float, float, str], int]
    cell_wall_s: Dict[Tuple[float, float], float]
    design: MCDesign

    def risk(self, q, v, estimator, target="alpha"):
        return self.risks[(q, v, estimator, target)]

    def stderr(self, q, v, estimator, target="alpha"):
        return self.stderrs[(q, v, estimator, target)]

    def to_csv(self) -> str:
        """Rows: target x v_delta_alpha x estimator; one risk column per q."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        qs = list(self.design.q_grid)
        header = ["target", "v_delta_alpha", "estimator"]
        for q in qs:
            header += [f"risk_q{q:g}", f"stderr_q{q:g}"]
        writer.writerow(header)
        for target in TARGETS:
            for v in self.design.v_delta_alpha_grid:
                for est in self.design.estimators:
                    row = [target, format(v, "g"), est]
                    for q in qs:
                        row.append(format(self.risks[(q, v, est, target)], ".17g"))
                        row.append(format(self.stderrs[(q, v, est, target)], ".17g"))
                    writer.writerow(row)
        return buf.getvalue()

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "risk_table.csv").write_text(self.to_csv())
        write_manifest(out / "manifest.json", {
            "model": self.design.model,
            "n": self.design.n,
            "t": self.design.t,
            "n_sim": self.design.n_sim,
            "n_draws": self.design.n_draws,
            "burn_in": self.design.burn_in,
            "q_grid": list(self.design.q_grid),
            "v_delta_alpha_grid": list(self.design.v_delta_alpha_grid),
            "estimators": list(self.design.estimators),
            "failed_replications": {
                f"q={k[0]:g},v={k[1]:g},{k[2]}": v for k, v in self.failed.items() if v
            },
            "cell_wall_s": {f"q={k[0]:g},v={k[1]:g}": v for k, v in self.cell_wall_s.items()},
        })


def _estimator_config(design: MCDesign, estimator: str) -> M1Config:
    hetsk = design.heteroskedastic
    variant = {
        "ss": "ss_hetsk" if hetsk else "ss_homosk",
        "q0": "homogeneous",
        "q1": "full_hetero_hetsk" if hetsk else "full_hetero_homosk",
        "oracle": "ss_hetsk" if hetsk else "ss_homosk",
        "ss_homosk_misspec": "ss_homosk",
    }[estimator]
    return M1Config(
        variant=variant, n_draws=design.n_draws, burn_in=design.burn_in,
        hyper=design.hyper, store_unit_draws=False,
    )


def _cell_theta(design: MCDesign, q: float, v: float) -> CommonState:
    theta = replace(design.theta)
    theta.q = {
        "alpha": q, "rho": q,
        "sigma": q if design.heteroskedastic else 0.0,
    }
    theta.v_delta_alpha = v
    return theta


def _cell_losses(design: MCDesign, theta: CommonState, streams):
    """{estimator: ({target: (R,) losses}, (R,) flags of finite draws and losses)}
    of one cell. Each replication's panel comes from its own stream; each
    estimator then runs as one chain over all replications' substreams."""
    sims = [simulate_m1(theta, design.hyper, design.n, design.t, stream.substream(0),
                        heteroskedastic=design.heteroskedastic) for stream in streams]
    panels = [data for data, _ in sims]
    true_vals = {"alpha": np.array([theta.alpha + truth.delta_alpha for _, truth in sims]),
                 "rho": np.array([theta.rho + truth.delta_rho for _, truth in sims])}
    losses = {}
    for e_idx, est in enumerate(design.estimators):
        chain = run_m1(panels, _estimator_config(design, est),
                       [stream.substream(1 + e_idx) for stream in streams],
                       fixed_common=theta if est == "oracle" else None)
        loss = {target: np.mean((chain.unit_means[target + "_i"] - true_vals[target]) ** 2, axis=-1)
                for target in TARGETS}
        finite = np.all([np.isfinite(v).all(axis=0) for v in chain.common.values()]
                        + [np.isfinite(v) for v in loss.values()], axis=0)
        losses[est] = (loss, finite)
    return losses


def run_experiment(design: MCDesign, seed: int = 0, threads: int = 1,
                   progress=None) -> RiskTable:
    """Run the full grid. Replications use disjoint RNG streams keyed by
    (cell index, replication index); each (cell, estimator) runs as one
    replication-batched chain in the calling thread. `threads` starts no
    thread (the sweep holds the interpreter lock, so threads ran slower); it
    is the worker count kept for a process pool. `progress(done, total,
    cell_wall_s)` follows each cell."""
    cells = [(q, v) for v in design.v_delta_alpha_grid for q in design.q_grid]
    risks, stderrs, failed, cell_wall_s = {}, {}, {}, {}
    root = RngStream(seed=seed, stream_id=0)
    for c_idx, (q, v) in enumerate(cells):
        start = time.perf_counter()
        streams = [root.substream(c_idx).substream(rep) for rep in range(design.n_sim)]
        losses = _cell_losses(design, _cell_theta(design, q, v), streams)
        cell_wall_s[(q, v)] = time.perf_counter() - start
        for est, (loss, finite) in losses.items():
            n_failed = design.n_sim - int(finite.sum())
            failed[(q, v, est)] = n_failed
            if n_failed > 0.05 * design.n_sim:
                raise RuntimeError(
                    f"estimator {est!r} failed {n_failed}/{design.n_sim} replications "
                    f"in cell q={q}, v={v}"
                )
            for target in TARGETS:
                vals = loss[target][finite]
                risks[(q, v, est, target)] = float(vals.mean())
                stderrs[(q, v, est, target)] = (
                    float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
                )
        if progress is not None:
            progress(c_idx + 1, len(cells), cell_wall_s[(q, v)])
    return RiskTable(risks=risks, stderrs=stderrs, failed=failed, cell_wall_s=cell_wall_s,
                     design=design)
