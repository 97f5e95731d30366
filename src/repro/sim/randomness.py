"""Reproducible random streams and the Zipfian key popularity Web 2.0
workloads need."""

from __future__ import annotations

from typing import Dict, List

import numpy as np


class RandomStreams:
    """A registry of named, independently-seeded random generators.

    Giving each component its own stream (``streams.get("arrivals")``,
    ``streams.get("service")``, ...) means changing how one component consumes
    randomness does not perturb every other component — experiments stay
    comparable across code changes.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        if name not in self._streams:
            derived = np.random.SeedSequence([self._seed, _stable_hash(name)])
            self._streams[name] = np.random.default_rng(derived)
        return self._streams[name]


def _stable_hash(name: str) -> int:
    """A hash of ``name`` that is stable across Python processes.

    ``hash()`` is salted per-process for strings, so we roll a small FNV-1a
    instead.
    """
    value = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


class ZipfGenerator:
    """Draws integers in ``[0, n)`` with Zipfian popularity skew.

    Used for key popularity: a small number of users/objects receive most of
    the traffic, which is what makes hot-range detection and repartitioning
    in the storage substrate meaningful.

    Draws are pooled: uniforms are pre-drawn in blocks (a scalar generator
    call per op is the workload generator's main cost at closed-loop request
    volumes).  Because numpy fills uniform blocks element-by-element, the
    emitted index sequence is identical to scalar draws from the same stream
    — though the *stream consumption point* moves earlier, which matters only
    if the same generator object feeds other consumers too.
    """

    POOL_BLOCK = 1024

    def __init__(self, n: int, theta: float, rng: np.random.Generator) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if not 0.0 <= theta < 1.0:
            raise ValueError(f"theta must be in [0, 1), got {theta}")
        self.n = n
        self._rng = rng
        ranks = np.arange(1, n + 1, dtype=float)
        weights = 1.0 / np.power(ranks, theta)
        self._cdf = np.cumsum(weights) / np.sum(weights)
        # A block's searchsorted indices are computed vectorized at refill
        # time, so draw() itself is a list lookup.
        self._pool_indices: List[int] = []
        self._pool_index = 0

    def _refill(self) -> None:
        self._pool_indices = np.searchsorted(
            self._cdf, self._rng.random(self.POOL_BLOCK)).tolist()
        self._pool_index = 0

    def draw(self) -> int:
        """Draw a single item index (0-based, 0 is the most popular)."""
        index = self._pool_index
        if index >= len(self._pool_indices):
            self._refill()
            index = 0
        self._pool_index = index + 1
        return self._pool_indices[index]
