"""Storage, summaries, and serialization for MCMC output."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

import numpy as np


class ConfigurationError(ValueError):
    pass


def check_chain_lengths(n_draws: int, burn_in: int, thin: int) -> None:
    """Reject chain lengths that keep no draw or cannot be thinned."""
    if not 0 <= burn_in < n_draws:
        raise ConfigurationError("burn_in must satisfy 0 <= burn_in < n_draws")
    if thin < 1:
        raise ConfigurationError("thin must be >= 1")


def hpd_interval(draws: np.ndarray, level: float = 0.90):
    """Shortest interval containing `level` posterior mass, from sorted draws."""
    x = np.sort(np.asarray(draws, dtype=float))
    n = x.size
    k = max(1, int(np.ceil(level * n)))  # number of draws inside the interval
    if k >= n:
        return float(x[0]), float(x[-1])
    widths = x[k - 1:] - x[: n - k + 1]
    j = int(np.argmin(widths))
    return float(x[j]), float(x[j + k - 1])


def summarize(draws: np.ndarray, level: float = 0.90) -> Dict[str, float]:
    x = np.asarray(draws, dtype=float)
    tail = (1.0 - level) / 2.0
    lo, hi = hpd_interval(x, level)
    return {
        "mean": float(np.mean(x)),
        "median": float(np.median(x)),
        "q_lo": float(np.quantile(x, tail)),
        "q_hi": float(np.quantile(x, 1.0 - tail)),
        "hpd_lo": lo,
        "hpd_hi": hi,
    }


@dataclass
class ChainOutput:
    """Post-burn-in, thinned draws plus diagnostics for one chain.

    `common` maps parameter names to arrays with the draw index first;
    `unit` does the same for per-unit quantities (draws x units). When unit
    draws are not stored, `unit_means` still carries their running posterior
    means.
    """

    common: Dict[str, np.ndarray]
    unit: Dict[str, np.ndarray] = field(default_factory=dict)
    unit_means: Dict[str, np.ndarray] = field(default_factory=dict)
    diagnostics: Dict[str, float] = field(default_factory=dict)
    config: Dict = field(default_factory=dict)
    unit_ids: tuple = ()

    @property
    def n_draws(self) -> int:
        return next(iter(self.common.values())).shape[0]

    def summaries(self, level: float = 0.90) -> Dict[str, Dict[str, float]]:
        out = {}
        for name, draws in self.common.items():
            arr = np.asarray(draws)
            if arr.ndim == 1:
                out[name] = summarize(arr, level)
            else:
                flat = arr.reshape(arr.shape[0], -1)
                for j in range(flat.shape[1]):
                    out[f"{name}[{j}]"] = summarize(flat[:, j], level)
        return out

    def to_dir(self, path) -> None:
        """Write draws as CSV files plus a JSON manifest with a content hash of
        the CSVs, the diagnostics and the `summaries()` of the common draws."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()
        written = []
        for group, table in (("common", self.common), ("unit", self.unit), ("unit_means", self.unit_means)):
            if not table:
                continue
            fname = f"{group}.csv"
            header, blocks = [], []
            for name in sorted(table):
                arr = np.asarray(table[name], dtype=float)
                arr = arr.reshape(arr.shape[0], -1)
                header += [name] if arr.shape[1] == 1 else [f"{name}[{j}]" for j in range(arr.shape[1])]
                blocks.append(arr)
            buf = io.StringIO()
            np.savetxt(buf, np.hstack(blocks), fmt="%.17g", delimiter=",", header=",".join(header),
                       comments="")
            text = buf.getvalue()
            (path / fname).write_text(text, encoding="utf-8")
            digest.update(text.encode())
            written.append(fname)

        def finite(v):  # NaN (an acceptance rate with no proposals) is not JSON; write null
            return v if np.isfinite(v) else None

        write_manifest(path / "manifest.json", {
            "config": self.config,
            "diagnostics": {k: finite(v) for k, v in self.diagnostics.items()},
            "summaries": {name: {k: finite(v) for k, v in stats.items()}
                          for name, stats in self.summaries().items()},
            "files": written,
            "unit_ids": list(self.unit_ids),
            "content_sha256": digest.hexdigest(),
        })


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a table in the package's one CSV format: UTF-8, LF line ends,
    floats to 17 significant digits (they read back exactly), any other
    cell as its str()."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row] for row in rows)


def write_manifest(path, manifest: Dict) -> None:
    """Write a run's manifest as strict JSON with sorted keys, stamped with
    the UTC time of writing."""
    manifest = {**manifest, "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True, default=_json_default,
                                     allow_nan=False) + "\n")


class DrawRecorder:
    """Keeps the post-burn-in, thinned draws of a chain of `n_draws` sweeps.

    Each recorded name gets an array of shape (kept,) + the shape of its
    first value. Unit quantities also add to running means, which is all
    that is kept of them when `store_unit_draws` is False.
    """

    def __init__(self, n_draws: int, burn_in: int = 0, thin: int = 1,
                 store_unit_draws: bool = True):
        check_chain_lengths(n_draws, burn_in, thin)
        self.n_draws, self.burn_in, self.thin = n_draws, burn_in, thin
        self.store_unit_draws = store_unit_draws
        self.kept = (n_draws - burn_in + thin - 1) // thin
        self.count = 0
        self.common: Dict[str, np.ndarray] = {}
        self.unit: Dict[str, np.ndarray] = {}
        self._sums: Dict[str, np.ndarray] = {}

    def keeps(self, j: int) -> bool:
        """Whether the draw of sweep `j` (counting from 0) is kept."""
        return j >= self.burn_in and (j - self.burn_in) % self.thin == 0

    def record(self, common: Dict, unit: Optional[Dict] = None,
               means_only: Optional[Dict] = None) -> None:
        """Keep one draw: `common` and `unit` values as draws, and `unit` and
        `means_only` values in the running unit means."""
        for name, value in common.items():
            self._keep(self.common, name, value)
        unit = unit or {}
        for name, value in {**unit, **(means_only or {})}.items():
            if name not in self._sums:
                self._sums[name] = np.zeros(np.shape(value))
            self._sums[name] += value
        if self.store_unit_draws:
            for name, value in unit.items():
                self._keep(self.unit, name, value)
        self.count += 1

    def _keep(self, table, name, value) -> None:
        if name not in table:
            table[name] = np.empty((self.kept,) + np.shape(value))
        table[name][self.count] = value

    def output(self, config: Dict, diagnostics: Optional[Dict] = None,
               unit_ids: tuple = ()) -> ChainOutput:
        """The kept draws; `config` gains the chain's length settings."""
        assert self.count == self.kept
        return ChainOutput(
            common=self.common,
            unit=self.unit,
            unit_means={name: total / self.kept for name, total in self._sums.items()},
            diagnostics=diagnostics or {},
            config={**config, "n_draws": self.n_draws, "burn_in": self.burn_in,
                    "thin": self.thin},
            unit_ids=unit_ids,
        )


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")
