"""Monte Carlo risk experiments for the panel regression model.

Each replication draws unit deviations from the truth, simulates a panel,
runs a set of estimators, and scores the per-unit posterior means of the
composite intercept and autoregressive coefficient under quadratic compound
loss (1/N) sum_i (l_hat_i - l_i)^2. Risks average over replications.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from numbers import Real
from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

from sparsepanel.blocks import CommonState, HyperParams
from sparsepanel.chainout import check_chain_lengths, write_csv, write_manifest
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
        for name in ("n", "t", "n_sim", "n_draws", "burn_in"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        for name, lowest in (("n", 1), ("t", 2), ("n_sim", 1)):  # M1 fits T >= 2 periods
            if getattr(self, name) < lowest:
                raise ConfigurationError(f"{name} must be >= {lowest}, got {getattr(self, name)!r}")
        for name in ("q_grid", "v_delta_alpha_grid", "estimators"):
            if not len(getattr(self, name)):
                raise ConfigurationError(f"{name} must not be empty")
        for name, rule, holds in (("q_grid", "in [0, 1]", lambda x: 0 <= x <= 1),
                                  ("v_delta_alpha_grid", "> 0", lambda x: x > 0)):
            for x in getattr(self, name):
                if isinstance(x, bool) or not isinstance(x, Real) or not holds(x):
                    raise ConfigurationError(f"{name} entries must be numbers {rule}, got {x!r}")
        check_chain_lengths(self.n_draws, self.burn_in, 1)
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
    workers: int
    design: MCDesign

    def risk(self, q, v, estimator, target="alpha"):
        return self.risks[(q, v, estimator, target)]

    def stderr(self, q, v, estimator, target="alpha"):
        return self.stderrs[(q, v, estimator, target)]

    def check_failures(self) -> None:
        """Raise if an estimator failed more than 5% of a cell's replications."""
        for (q, v, est), n_failed in self.failed.items():
            if n_failed > 0.05 * self.design.n_sim:
                raise RuntimeError(f"estimator {est!r} failed {n_failed}/{self.design.n_sim} "
                                   f"replications in cell q={q}, v={v}")

    def write(self, out_dir) -> None:
        """risk_table.csv (rows target x v_delta_alpha x estimator, a risk and
        a stderr column per q) and the manifest."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        d = self.design
        write_csv(out / "risk_table.csv",
                  ["target", "v_delta_alpha", "estimator"]
                  + [f"{col}_q{q:g}" for q in d.q_grid for col in ("risk", "stderr")],
                  ([target, format(v, "g"), est]
                   + [table[(q, v, est, target)] for q in d.q_grid for table in (self.risks, self.stderrs)]
                   for target in TARGETS for v in d.v_delta_alpha_grid for est in d.estimators))
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
            "workers": self.workers,
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


def _cells(design: MCDesign):
    """The grid's (q, v_delta_alpha) cells, in the order their streams are keyed."""
    return [(q, v) for v in design.v_delta_alpha_grid for q in design.q_grid]


def _task(design: MCDesign, seed: int, c_idx: int, e_idx: int):
    """({target: (R,) losses}, (R,) flags of finite draws and losses, wall s) of
    estimator `e_idx` in cell `c_idx`: one chain batched over the cell's R
    replications. Replication r draws its panel from
    RngStream(seed, 0).substream(c_idx).substream(r).substream(0) and the
    chain from its .substream(1 + e_idx), so each of a cell's tasks simulates
    the same panels again and needs no argument but these four."""
    start = time.perf_counter()
    theta = _cell_theta(design, *_cells(design)[c_idx])
    streams = [RngStream(seed, 0).substream(c_idx).substream(rep) for rep in range(design.n_sim)]
    sims = [simulate_m1(theta, design.hyper, design.n, design.t, stream.substream(0),
                        heteroskedastic=design.heteroskedastic) for stream in streams]
    true_vals = {"alpha": np.array([theta.alpha + truth.delta_alpha for _, truth in sims]),
                 "rho": np.array([theta.rho + truth.delta_rho for _, truth in sims])}
    est = design.estimators[e_idx]
    chain = run_m1([data for data, _ in sims], _estimator_config(design, est),
                   [stream.substream(1 + e_idx) for stream in streams],
                   fixed_common=theta if est == "oracle" else None)
    loss = {target: np.mean((chain.unit_means[target + "_i"] - true_vals[target]) ** 2, axis=-1)
            for target in TARGETS}
    finite = np.all([np.isfinite(v).all(axis=0) for v in chain.common.values()]
                    + [np.isfinite(v) for v in loss.values()], axis=0)
    return loss, finite, time.perf_counter() - start


def _run_tasks(design: MCDesign, seed: int, tasks, workers: int, done) -> None:
    """Run `_task` on each (c_idx, e_idx) of `tasks`, calling done(index,
    result) in this process as results come in. This process and workers - 1
    forked children each take the next task nobody has taken until none is
    left. This process takes the first task before any child starts, so an
    in-process profiler sees at least one chain. Every child is stopped and
    reaped before this returns or raises."""
    if workers == 1:
        for i, task in enumerate(tasks):
            done(i, _task(design, seed, *task))
        return
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    taken = ctx.Value("q", 0)

    def take():
        with taken.get_lock():
            taken.value += 1
            return taken.value - 1

    def serve(conn):  # a child's loop: it sends (index, result or exception)
        try:
            while (i := take()) < len(tasks):
                conn.send((i, _task(design, seed, *tasks[i])))
        except Exception as exc:
            conn.send((i, exc))

    readers, children = [], []

    def receive(timeout):
        for reader in wait(readers, timeout):
            try:
                i, result = reader.recv()
            except EOFError:  # the child has exited
                readers.remove(reader)
                continue
            if isinstance(result, BaseException):
                raise result
            done(i, result)

    try:
        i = take()
        for _ in range(workers - 1):
            reader, writer = ctx.Pipe(duplex=False)
            child = ctx.Process(target=serve, args=(writer,))
            child.start()
            writer.close()  # before the next fork, so that EOF means this child exited
            readers.append(reader)
            children.append(child)
        while i < len(tasks):
            done(i, _task(design, seed, *tasks[i]))
            receive(0)
            i = take()
        while readers:
            receive(None)
        for child in children:
            child.join()
        if any(child.exitcode for child in children):  # one died before sending its result
            raise RuntimeError("a Monte Carlo worker failed (exit codes "
                               f"{[child.exitcode for child in children]})")
    finally:
        for child in children:
            child.terminate()
            child.join()


def run_experiment(design: MCDesign, seed: int = 0, threads: int = 1,
                   progress=None) -> RiskTable:
    """Run the full grid as one task per (cell, estimator): a chain batched
    over the cell's replications (see `_task` for its streams).

    `threads` is the number of processes that run tasks, at most one per
    task: at 1 every task runs in this process, one after another; above 1,
    this process and forked children share the tasks (`_run_tasks`). Results
    are reduced per cell in (cell, estimator, replication) order, so the risk
    table does not depend on `threads`. A cell's `cell_wall_s` is the sum of
    its tasks' wall times. `progress(done, total, cell_wall_s, workers)`
    follows each cell, in cell order."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    cells = _cells(design)
    n_est = len(design.estimators)
    tasks = [(c_idx, e_idx) for c_idx in range(len(cells)) for e_idx in range(n_est)]
    workers = max(1, min(threads, len(tasks)))
    results = [None] * len(tasks)
    risks, stderrs, failed, cell_wall_s = {}, {}, {}, {}

    def reduce_cell(c_idx):
        q, v = cells[c_idx]
        cell = results[c_idx * n_est:(c_idx + 1) * n_est]
        cell_wall_s[(q, v)] = sum(wall for _, _, wall in cell)
        for est, (loss, finite, _) in zip(design.estimators, cell):
            failed[(q, v, est)] = design.n_sim - int(finite.sum())
            for target in TARGETS:
                vals = loss[target][finite]
                risks[(q, v, est, target)] = float(vals.mean()) if vals.size else np.nan
                stderrs[(q, v, est, target)] = (
                    float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
                )
        if progress is not None:
            progress(c_idx + 1, len(cells), cell_wall_s[(q, v)], workers)

    next_cell = 0

    def done(i, result):
        nonlocal next_cell
        results[i] = result
        while next_cell < len(cells) and all(
                r is not None for r in results[next_cell * n_est:(next_cell + 1) * n_est]):
            reduce_cell(next_cell)
            next_cell += 1

    _run_tasks(design, seed, tasks, workers, done)
    return RiskTable(risks=risks, stderrs=stderrs, failed=failed, cell_wall_s=cell_wall_s,
                     workers=workers, design=design)
