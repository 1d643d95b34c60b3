"""Bulk effective sample size of one chain (Vehtari et al., 2021), numpy only.

The chain is split in halves, the draws are rank-normalised, and the
autocorrelations are summed with Geyer's initial monotone sequence.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

_inv_cdf = np.vectorize(NormalDist().inv_cdf)


def _rank_normalise(x: np.ndarray) -> np.ndarray:
    ranks = np.empty(x.size)
    ranks[np.argsort(x.ravel(), kind="stable")] = np.arange(1, x.size + 1)
    return _inv_cdf((ranks - 0.375) / (x.size + 0.25)).reshape(x.shape)


def _autocovariance(chains: np.ndarray) -> np.ndarray:
    n = chains.shape[1]
    centred = chains - chains.mean(axis=1, keepdims=True)
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(centred, size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), size, axis=1)[:, :n] / n


def bulk_ess(draws) -> float:
    x = np.asarray(draws, dtype=float)
    half = x.size // 2
    if half < 4 or not np.all(np.isfinite(x)):
        return float("nan")
    chains = _rank_normalise(np.stack([x[:half], x[x.size - half:]]))
    m, n = chains.shape
    acov = _autocovariance(chains)
    within = acov[:, 0].mean() * n / (n - 1)
    var_plus = within * (n - 1) / n + chains.mean(axis=1).var(ddof=1)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    stop = np.argmax(pairs < 0) if np.any(pairs < 0) else pairs.size
    pairs = np.minimum.accumulate(pairs[:stop])
    tau = -1.0 + 2.0 * pairs.sum()
    return float(m * n / max(tau, 1.0 / np.log10(m * n)))


def min_bulk_ess(common: dict) -> float:
    """Smallest bulk ESS over the scalar parameters that vary in the chain."""
    values = [bulk_ess(v) for v in common.values() if np.ptp(v) > 0]
    return min(values) if values else float("nan")
