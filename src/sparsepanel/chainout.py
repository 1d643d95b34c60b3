"""Storage, summaries, and serialization for MCMC output."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

import numpy as np


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
        """Write draws as CSV files plus a JSON manifest with a content hash."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()
        written = []
        for group, table in (("common", self.common), ("unit", self.unit), ("unit_means", self.unit_means)):
            if not table:
                continue
            fname = f"{group}.csv"
            cols = []
            header = []
            for name in sorted(table):
                arr = np.asarray(table[name], dtype=float)
                arr = arr.reshape(arr.shape[0], -1) if arr.ndim > 1 else arr.reshape(-1, 1)
                for j in range(arr.shape[1]):
                    header.append(name if arr.shape[1] == 1 else f"{name}[{j}]")
                    cols.append(arr[:, j])
            body = "\n".join(
                ",".join(format(col[r], ".17g") for col in cols) for r in range(cols[0].shape[0])
            )
            text = ",".join(header) + "\n" + body + "\n"
            (path / fname).write_text(text, encoding="utf-8")
            digest.update(text.encode())
            written.append(fname)
        manifest = {
            "config": self.config,
            # NaN (an acceptance rate with no proposals) is not JSON; write null
            "diagnostics": {k: v if np.isfinite(v) else None
                            for k, v in self.diagnostics.items()},
            "files": written,
            "unit_ids": list(self.unit_ids),
            "content_sha256": digest.hexdigest(),
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        (path / "manifest.json").write_text(
            json.dumps(manifest, indent=2, default=_json_default, allow_nan=False) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")
