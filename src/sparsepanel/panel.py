"""Panel data container, CSV interchange, sampling helpers, and model simulators.

The canonical interchange format is long CSV with header ``unit,time,y[,x1..xk]``,
UTF-8, LF line endings, 17 significant digits, and empty fields for missing
values.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from sparsepanel.blocks import CommonState, HyperParams, UnitState
from sparsepanel.distributions import ig_spec_from_variance, sample_mv_normal
from sparsepanel.rng import as_generator


class PanelIngestionError(ValueError):
    """Raised on malformed panel input (duplicates, non-numeric values, ...)."""


class EmptySampleError(ValueError):
    """Raised when a sample specification leaves no units."""


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
    def n_units(self) -> int:
        return self.y.shape[0]

    @property
    def n_periods(self) -> int:
        return self.y.shape[1]

    @property
    def balanced(self) -> bool:
        return bool(self.mask.all())


@dataclass(frozen=True)
class SampleSpec:
    """Estimation-sample selection rule plus a holdout split."""

    kind: str  # "balanced" or "unbalanced"
    n_periods: Optional[int] = None  # balanced: number of estimation periods T
    last_period: Optional[int] = None  # balanced: final estimation period value
    min_consecutive: int = 2
    holdout_periods: int = 0

    def __post_init__(self):
        if self.kind not in ("balanced", "unbalanced"):
            raise ValueError(f"unknown sample kind {self.kind!r}")
        if self.min_consecutive < 2:
            raise ValueError("min_consecutive must be at least 2")
        if self.holdout_periods < 0:
            raise ValueError("holdout_periods must be non-negative")


def load_panel(path, schema=None) -> PanelData:
    """Read a long-format CSV into a PanelData.

    `schema` maps roles to column names; defaults to unit/time/y with any
    remaining columns treated as regressors.
    """
    schema = dict(schema or {})
    unit_col = schema.get("unit", "unit")
    time_col = schema.get("time", "time")
    y_col = schema.get("y", "y")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise PanelIngestionError(f"{path}: empty file")
        for col in (unit_col, time_col, y_col):
            if col not in reader.fieldnames:
                raise PanelIngestionError(f"{path}: missing required column {col!r}")
        x_cols = schema.get("x")
        if x_cols is None:
            x_cols = [c for c in reader.fieldnames if c not in (unit_col, time_col, y_col)]
        rows = {}
        for line_no, row in enumerate(reader, start=2):
            unit = row[unit_col]
            try:
                t = int(row[time_col])
            except (TypeError, ValueError):
                raise PanelIngestionError(f"{path}:{line_no}: non-integer time {row[time_col]!r}")
            if (unit, t) in rows:
                raise PanelIngestionError(f"{path}: duplicate observation for unit {unit!r} at time {t}")
            raw_y = (row[y_col] or "").strip()
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
    header = ["unit", "time", "y"] + [f"x{j + 1}" for j in range(k)]

    def fmt(v: float) -> str:
        return "" if np.isnan(v) else format(v, ".17g")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for j, unit in enumerate(data.unit_ids):
        for c, t in enumerate(data.times):
            if not data.mask[j, c] and (data.x is None or np.all(np.isnan(data.x[j, c]))):
                continue
            row = [unit, int(t), fmt(data.y[j, c])]
            if k:
                row.extend(fmt(v) for v in data.x[j, c])
            writer.writerow(row)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def _max_consecutive_run(present: np.ndarray) -> int:
    best = run = 0
    for flag in present:
        run = run + 1 if flag else 0
        best = max(best, run)
    return best


def make_estimation_sample(data: PanelData, spec: SampleSpec) -> Tuple[PanelData, PanelData]:
    """Split a panel into an estimation sample and a holdout sample."""
    times = data.times
    if spec.kind == "balanced":
        last = int(spec.last_period) if spec.last_period is not None else int(times[-1]) - spec.holdout_periods
        n_est = int(spec.n_periods) if spec.n_periods is not None else None
        end_col = int(np.searchsorted(times, last))
        if end_col >= times.size or times[end_col] != last:
            raise EmptySampleError(f"last period {last} outside panel range")
        start_col = 0 if n_est is None else end_col - n_est + 1
        if start_col < 0:
            raise EmptySampleError("not enough periods before the last estimation period")
        est_cols = np.arange(start_col, end_col + 1)
        keep = data.mask[:, est_cols].all(axis=1)
    else:
        est_cols = np.arange(0, times.size - spec.holdout_periods)
        runs = np.array([_max_consecutive_run(data.mask[j, est_cols]) for j in range(data.n_units)])
        keep = runs >= spec.min_consecutive
    if not keep.any():
        raise EmptySampleError("no units satisfy the sample specification")
    hold_cols = np.arange(est_cols[-1] + 1, min(est_cols[-1] + 1 + spec.holdout_periods, times.size))

    def subset(cols):
        return PanelData(
            unit_ids=tuple(u for u, k_ in zip(data.unit_ids, keep) if k_),
            times=times[cols].copy(),
            y=data.y[np.ix_(keep, cols)].copy(),
            mask=data.mask[np.ix_(keep, cols)].copy(),
            x=None if data.x is None else data.x[np.ix_(keep, cols)].copy(),
        )

    return subset(est_cols), subset(hold_cols)


def residualize(data: PanelData, dummies: np.ndarray) -> PanelData:
    """Replace y with pooled least-squares residuals on the given covariates."""
    dummies = np.atleast_2d(np.asarray(dummies, dtype=float))
    flat_mask = data.mask.ravel()
    if dummies.shape[0] != flat_mask.size:
        raise ValueError("dummies must have one row per (unit, period) cell")
    y_obs = data.y.ravel()[flat_mask]
    d_obs = dummies[flat_mask]
    coef, *_ = np.linalg.lstsq(d_obs, y_obs, rcond=None)
    resid = y_obs - d_obs @ coef
    new_y = np.full_like(data.y, np.nan)
    new_y.ravel()[flat_mask] = resid
    return PanelData(unit_ids=data.unit_ids, times=data.times, y=new_y, mask=data.mask.copy(), x=data.x)


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
