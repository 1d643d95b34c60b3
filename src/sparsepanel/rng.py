"""Reproducible random-number streams.

Streams are keyed by (seed, stream_id). The same key always yields the same
draw sequence, and distinct stream_ids give statistically independent
streams, so Monte Carlo replications and parallel chains can be scheduled in
any order without changing results.
"""

from __future__ import annotations

import numpy as np

# Philox is counter-based: cheap to construct per (seed, stream) key and
# streams derived from disjoint spawn keys never overlap.
_BITGEN = np.random.Philox


class RngStream:
    """A deterministic random stream identified by (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0):
        if not (0 <= int(seed) < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if not (0 <= int(stream_id) < 2**64):
            raise ValueError(f"stream_id must be a 64-bit unsigned integer, got {stream_id}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._keyed((self.stream_id,))

    def _keyed(self, key: tuple) -> "RngStream":
        self.key = key
        ss = np.random.SeedSequence(self.seed, spawn_key=key)
        self.generator = np.random.Generator(_BITGEN(ss))
        return self

    def substream(self, stream_id: int) -> "RngStream":
        """A fresh independent stream under the same seed.

        The child key extends this stream's full key with the new id, so
        substreams of distinct parents never collide at any depth.
        """
        child = RngStream.__new__(RngStream)
        child.seed, child.stream_id = self.seed, int(stream_id)
        return child._keyed(self.key + (child.stream_id,))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def draw_each(rng, draw, *params):
    """`draw(gen, *params)` on one stream; on a list of generators, one per
    replication, `draw(gen, *rows)` with each replication's own rows of the
    parameters, the draws stacked along a leading axis."""
    if isinstance(rng, list):
        return np.array([draw(*args) for args in zip(rng, *params)])
    return draw(as_generator(rng), *params)


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream, Generator, or integer seed; return a Generator."""
    if isinstance(rng, RngStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng)).generator
    raise TypeError(f"cannot interpret {type(rng).__name__} as a random stream")
