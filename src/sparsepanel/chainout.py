"""Storage, summaries, and serialization for MCMC output."""

from __future__ import annotations

import csv
import hashlib
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
            with open(path / fname, "wb") as fh:
                for text in _csv_chunks(header, blocks):
                    fh.write(text)
                    digest.update(text)
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


# Cells of a chain CSV formatted at a time, so that a file's text is never
# held whole: a chunk is at most about 1.6 MB of text.
_CHUNK_CELLS = 1 << 16

# The format of one cell, indexed by its code: 0 (+0.0) and 1 (1.0) are
# written as literals and any other value as "%.17g"; codes 3-5 end a row.
# NUL bytes pad each format to 6 bytes and are dropped.
_CELL_FORMATS = np.frombuffer(b"0\0\0\0\0,1\0\0\0\0,%.17g,0\0\0\0\0\n1\0\0\0\0\n%.17g\n",
                              np.uint8).reshape(6, 6)


def _csv_chunks(header: Sequence[str], blocks: Sequence[np.ndarray]) -> Iterable[bytes]:
    """The CSV text of the 2-D `blocks` side by side under `header`, in
    chunks of whole rows: the text np.savetxt writes with fmt="%.17g"."""
    yield (",".join(header) + "\n").encode()
    step = max(1, _CHUNK_CELLS // len(header))
    for start in range(0, blocks[0].shape[0], step):
        yield _format_rows(np.hstack([block[start:start + step] for block in blocks]))


def _format_rows(rows: np.ndarray) -> bytes:
    """CSV lines of a C-contiguous 2-D float array, each value as "%.17g"
    formats it. The spike-and-slab draws are mostly exact 0s and 1s, so only
    the other values go through the % operator."""
    code = (rows != 1.0).view(np.uint8) + 1  # 1 at 1.0, 2 elsewhere
    code[rows.view(np.int64) == 0] = 0  # +0.0 only: -0.0 formats as "-0"
    real = code == 2
    code[:, -1] += 3
    template = _CELL_FORMATS.take(code.ravel(), axis=0).ravel()
    return template[template.view(bool)].tobytes() % tuple(rows[real].tolist())


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
