"""Panel data container, CSV interchange, and the model simulators.

The canonical interchange format is long CSV with header ``unit,time,y[,x1..xk]``,
UTF-8, LF line endings, 17 significant digits, and empty fields for missing
values.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from sparsepanel.blocks import CommonState, HyperParams, UnitState
from sparsepanel.chainout import write_csv
from sparsepanel.distributions import ig_spec_from_variance, sample_mv_normal
from sparsepanel.rng import as_generator


class PanelIngestionError(ValueError):
    """Raised on malformed panel input (duplicates, non-numeric values, ...)."""


@dataclass(frozen=True)
class PanelData:
    """Balanced-array view of a (possibly unbalanced) panel.

    `y` has shape (N, P) over the panel's observed period range; `mask` marks
    which (unit, period) cells are present. `x` optionally holds regressors
    with shape (N, P, k).
    """

    unit_ids: tuple
    times: np.ndarray
    y: np.ndarray
    mask: np.ndarray
    x: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.y.shape != self.mask.shape or self.y.shape[0] != len(self.unit_ids):
            raise PanelIngestionError("inconsistent panel array shapes")
        if self.x is not None and self.x.shape[:2] != self.y.shape:
            raise PanelIngestionError("regressor array does not match y")

    @property
    def n_periods(self) -> int:
        return self.y.shape[1]

    @property
    def balanced(self) -> bool:
        return bool(self.mask.all())


def load_panel(path) -> PanelData:
    """Read a long-format CSV with columns unit, time and y into a PanelData;
    any further columns are regressors."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise PanelIngestionError(f"{path}: empty file")
        for col in ("unit", "time", "y"):
            if col not in reader.fieldnames:
                raise PanelIngestionError(f"{path}: missing required column {col!r}")
        x_cols = [c for c in reader.fieldnames if c not in ("unit", "time", "y")]
        rows = {}
        for line_no, row in enumerate(reader, start=2):
            unit = row["unit"]
            try:
                t = int(row["time"])
            except (TypeError, ValueError):
                raise PanelIngestionError(f"{path}:{line_no}: non-integer time {row['time']!r}")
            if (unit, t) in rows:
                raise PanelIngestionError(f"{path}: duplicate observation for unit {unit!r} at time {t}")
            raw_y = (row["y"] or "").strip()
            if raw_y == "":
                y_val = np.nan
            else:
                try:
                    y_val = float(raw_y)
                except ValueError:
                    raise PanelIngestionError(f"{path}:{line_no}: non-numeric y {raw_y!r}")
            x_vals = []
            for c in x_cols:
                raw = (row.get(c) or "").strip()
                x_vals.append(np.nan if raw == "" else float(raw))
            rows[(unit, t)] = (y_val, x_vals)
    if not rows:
        raise PanelIngestionError(f"{path}: no observations")
    units = sorted({u for u, _ in rows}, key=str)
    t_min = min(t for _, t in rows)
    t_max = max(t for _, t in rows)
    times = np.arange(t_min, t_max + 1)
    n, p = len(units), times.size
    y = np.full((n, p), np.nan)
    mask = np.zeros((n, p), dtype=bool)
    k = len(x_cols)
    x = np.full((n, p, k), np.nan) if k else None
    index = {u: j for j, u in enumerate(units)}
    for (u, t), (y_val, x_vals) in rows.items():
        j, c = index[u], t - t_min
        if not np.isnan(y_val):
            mask[j, c] = True
        y[j, c] = y_val
        if k:
            x[j, c, :] = x_vals
    return PanelData(unit_ids=tuple(units), times=times, y=y, mask=mask, x=x)


def write_panel(data: PanelData, path) -> None:
    """Write a PanelData back to the canonical long CSV format."""
    k = 0 if data.x is None else data.x.shape[2]

    def cell(v):
        return "" if np.isnan(v) else v

    write_csv(path, ["unit", "time", "y"] + [f"x{j + 1}" for j in range(k)], (
        [unit, int(t), cell(data.y[j, c])] + ([cell(v) for v in data.x[j, c]] if k else [])
        for j, unit in enumerate(data.unit_ids) for c, t in enumerate(data.times)
        if data.mask[j, c] or (data.x is not None and not np.all(np.isnan(data.x[j, c])))))


# The unit-level blocks of the latent-state model, in the order they are drawn.
M2_BLOCKS = ("alpha", "rho", "sigma_u", "sigma_eps")


def draw_unit_deviations(theta: CommonState, n: int, rng, blocks=("alpha", "rho", "sigma")) -> UnitState:
    """Draw per-unit indicators and deviations from the spike-and-slab prior.

    Blocks are drawn in the order given; each draws its n indicator uniforms
    and then its n slab draws. The `alpha` slab is Normal with a scalar or
    k x k covariance, the `rho` slab Normal, and each variance scale
    (`sigma`, `sigma_u`, `sigma_eps`) has the unit-mean inverse-gamma slab of
    variance `v_delta_<label>`; a scale whose slab variance is None or 0 sits
    at its spike value 1.
    """
    gen = as_generator(rng)
    units = UnitState(z={}, delta_alpha=None, delta_rho=None)
    for label in blocks:
        z = (gen.random(n) < theta.q.get(label, 0.0)).astype(np.int64)
        units.z[label] = z
        if label == "alpha":
            v = theta.v_delta_alpha
            if np.ndim(v) == 2:
                units.delta_alpha = z[:, None] * sample_mv_normal(np.zeros(v.shape[0]), v, gen, size=n)
            else:
                units.delta_alpha = z * np.sqrt(v) * gen.standard_normal(n)
        elif label == "rho":
            units.delta_rho = z * np.sqrt(theta.v_delta_rho) * gen.standard_normal(n)
        else:
            v = getattr(theta, "v_delta_" + label)
            slab = ig_spec_from_variance(v).draw(gen, size=n) if v else np.ones(n)
            setattr(units, "delta_" + label, np.where(z == 1, slab, 1.0))
    return units


def simulate_m1_given(theta: CommonState, units: UnitState, t: int, rng) -> np.ndarray:
    """Outcomes y, shape (n, t+1), of the autoregressive panel for given unit
    deviations, starting from y_0 = 0."""
    gen = as_generator(rng)
    sigma_i = np.sqrt(theta.sigma2 * units.delta_sigma)
    alpha_i = theta.alpha + units.delta_alpha
    rho_i = theta.rho + units.delta_rho
    n = rho_i.shape[0]
    y = np.zeros((n, t + 1))
    shocks = gen.standard_normal((n, t))
    for step in range(1, t + 1):
        y[:, step] = alpha_i + rho_i * y[:, step - 1] + sigma_i * shocks[:, step - 1]
    return y


def simulate_m1(theta: CommonState, hyper: HyperParams, n: int, t: int, rng,
                heteroskedastic: bool = False) -> Tuple[PanelData, UnitState]:
    """Simulate an autoregressive panel with spike-and-slab unit deviations.

    Units start at y_0 = 0; periods run 0..t. Returns the panel and the true
    per-unit deviations used to generate it.
    """
    gen = as_generator(rng)
    blocks = ("alpha", "rho", "sigma") if heteroskedastic else ("alpha", "rho")
    truth = draw_unit_deviations(theta, n, gen, blocks=blocks)
    if truth.delta_sigma is None:
        truth.delta_sigma = np.ones(n)
        truth.z["sigma"] = np.zeros(n, dtype=np.int64)
    y = simulate_m1_given(theta, truth, t, gen)
    data = PanelData(
        unit_ids=tuple(f"u{j:06d}" for j in range(n)),
        times=np.arange(t + 1),
        y=y,
        mask=np.ones((n, t + 1), dtype=bool),
    )
    return data, truth


def m2_forward(s0, rho, mean, sd_eps, sd_u, eps, u) -> Tuple[np.ndarray, np.ndarray]:
    """States, s_0 first, and outcomes of the latent-state recursion
    s_t = rho s_{t-1} + sd_eps_t eps_t, y_t = mean_t + s_t + sd_u_t u_t, t = 1..H.

    The last axis of `mean`, the shock sds and the caller's noise `eps` and `u`
    is the period; the others, and `s0` and `rho`, broadcast to the paths.
    """
    h = eps.shape[-1]
    s = np.empty(np.shape(s0) + (h + 1,))
    y = np.empty(np.shape(s0) + (h,))
    s[..., 0] = state = s0
    for t in range(h):
        state = rho * state + sd_eps[..., t] * eps[..., t]
        s[..., t + 1] = state
        y[..., t] = mean[..., t] + state + sd_u[..., t] * u[..., t]
    return s, y


def simulate_m2_given(theta: CommonState, units: UnitState, x: np.ndarray, rng
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """States s, shape (n, T+1) with s_0 from its Normal prior, and outcomes
    y, shape (n, T), of the latent-state model for given unit deviations and
    regressors x of shape (n, T, k)."""
    gen = as_generator(rng)
    n, t, _ = x.shape
    s0 = theta.mu_s0 + np.sqrt(theta.v_s0) * gen.standard_normal(n)
    eps = gen.standard_normal((n, t))
    u = gen.standard_normal((n, t))
    alpha = np.atleast_1d(np.asarray(theta.alpha, dtype=float))
    mean = x @ alpha + np.sum(x * units.delta_alpha[:, None, :], axis=2)
    return m2_forward(s0, theta.rho + units.delta_rho, mean,
                      np.sqrt(theta.sigma2_eps * units.delta_sigma_eps[:, None]),
                      np.sqrt(theta.sigma2_u * units.delta_sigma_u[:, None]), eps, u)


def simulate_m2(theta: CommonState, hyper: HyperParams, n: int, t: int, experience_profile, rng
                ) -> Tuple[PanelData, UnitState]:
    """Simulate the latent-state panel model.

    `experience_profile` is an (n, t) array (or broadcastable) of experience
    levels for periods 1..t; the regressor vector is [1, experience/10].
    Observations exist for periods 1..t; the initial state s_0 is drawn from
    its Normal prior.
    """
    gen = as_generator(rng)
    h = np.broadcast_to(np.asarray(experience_profile, dtype=float), (n, t))
    truth = draw_unit_deviations(theta, n, gen, blocks=M2_BLOCKS)
    x = np.full((n, t + 1, 2), np.nan)
    x[:, 1:, 0] = 1.0
    x[:, 1:, 1] = h / 10.0
    truth.s, y_obs = simulate_m2_given(theta, truth, x[:, 1:], gen)
    y = np.full((n, t + 1), np.nan)
    y[:, 1:] = y_obs
    mask = np.ones((n, t + 1), dtype=bool)
    mask[:, 0] = False
    data = PanelData(
        unit_ids=tuple(f"u{j:06d}" for j in range(n)),
        times=np.arange(t + 1),
        y=y,
        mask=mask,
        x=x,
    )
    return data, truth
