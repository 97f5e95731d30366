"""Service-time models for simulated storage nodes and network hops.

The paper's performance SLAs are phrased over latency percentiles
("99.9 % of reads under 100 ms"), so the fidelity that matters here is the
*tail* behaviour of per-request service times and how it degrades with load.
``QueueingLatency`` captures the load-dependent part with an M/M/1-style
utilisation factor on top of any base distribution.

Sampling is *pooled*: scalar draws from a ``numpy.random.Generator`` cost
over a microsecond each in call overhead, which dominates simulator
throughput at closed-loop request volumes.  Each model therefore pre-draws a
vectorized block per generator and hands values out one at a time, read
through a ``memoryview`` of the drawn array: indexing it returns a built-in
``float`` without building a numpy scalar, and the pool holds no more than
the block's own doubles (a ``list`` of the same floats would hold about four
times as much).  Because
numpy fills distribution arrays element-by-element from the same bit stream,
the pooled sequence is *identical* to the scalar-draw sequence for a given
stream (property-tested in ``tests/test_hot_path_perf.py``) — only the
*consumption point* of the underlying bit stream moves earlier.  Streams
shared between several models (e.g. the network stream feeding every link)
will interleave their block prefetches differently than scalar draws did, so
cross-model interleavings on a shared stream are not preserved.

Distribution parameters are read when a block is drawn, so models must not
be re-parameterised in place mid-stream (construct a new model instead).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np


class LatencyModel:
    """Base class: a latency model returns a per-request service time.

    Subclasses implement :meth:`_draw_block` (a vectorized draw of ``size``
    float64 samples); the base class manages one sample pool per generator,
    ``[memoryview of the block, next index]``, so that :meth:`sample` is one
    buffer lookup in the common case and :meth:`slowest` the largest of one
    slice of it.
    """

    POOL_BLOCK = 1024

    # Lazily created so subclasses need not call ``super().__init__``.
    _pools: Optional[Dict[np.random.Generator, list]] = None

    def _draw_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` samples in one vectorized call."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> float:
        """One service time, served from the per-generator pool."""
        pools = self._pools
        if pools is None:
            pools = self._pools = {}
        pool = pools.get(rng)
        if pool is None:
            pool = pools[rng] = [_EMPTY_BLOCK, 0]
        block, index = pool
        if index >= len(block):
            block = pool[0] = memoryview(self._draw_block(rng, self.POOL_BLOCK))
            index = 0
        pool[1] = index + 1
        return block[index]

    def slowest(self, rng: np.random.Generator, count: int) -> float:
        """The largest of the next ``count`` (at least one) pooled service
        times.  When the block holds fewer, the rest are drawn as one block
        of exactly the shortfall and the next read starts a fresh block."""
        pools = self._pools
        if pools is None:
            pools = self._pools = {}
        pool = pools.get(rng)
        if pool is None:
            pool = pools[rng] = [_EMPTY_BLOCK, 0]
        block, index = pool
        end = index + count
        if end <= len(block):
            pool[1] = end
            return max(block[index:end])
        pool[0] = _EMPTY_BLOCK
        pool[1] = 0
        return max(block[index:].tolist()
                   + self._draw_block(rng, end - len(block)).tolist())

    def mean(self) -> float:
        """Analytic (or estimated) mean service time, used by the ML features."""
        raise NotImplementedError


_EMPTY_BLOCK = memoryview(np.empty(0))


class ConstantLatency(LatencyModel):
    """Always the same service time; useful in tests.  Consumes no randomness:
    its block is the one value repeated."""

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"latency must be non-negative, got {value}")
        self.value = float(value)

    def _draw_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    def mean(self) -> float:
        return self.value


class LogNormalLatency(LatencyModel):
    """Log-normal service times — the default for storage node reads/writes.

    Parameterised by median and sigma because that is how production latency
    distributions are usually characterised; the tail index grows with sigma.
    ``mu = log(median)`` is cached at construction instead of being
    recomputed on every sample.
    """

    def __init__(self, median: float, sigma: float = 0.5) -> None:
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.median = float(median)
        self.sigma = float(sigma)
        self._mu = math.log(self.median)

    def _draw_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.lognormal(mean=self._mu, sigma=self.sigma, size=size)

    def mean(self) -> float:
        return float(self.median * np.exp(self.sigma**2 / 2.0))


class QueueingLatency(LatencyModel):
    """Load-dependent latency: base service time inflated by queueing delay.

    Approximates an M/M/1 queue: with utilisation ``rho`` the expected
    residence time is ``service / (1 - rho)``.  Utilisation is supplied by
    the owner (a storage node tracks its own offered load vs. capacity), so
    the model itself stays stateless.  Utilisation is clamped just below 1 so
    an overloaded node returns very large — but finite — latencies, which is
    what lets the SLA monitor observe the violation and react.

    The utilisation factor is applied per sample (it changes between draws),
    so pooling lives in the *base* model and the pooled stream stays
    identical to scalar draws from the base distribution.

    A second multiplier, *contention*, models co-tenant interference on a
    shared physical host (see ``repro.sim.hosts``).  It inflates the base
    service draw itself — so ``split_service`` decomposition attributes the
    inflation to the *service* span kind, not queueing — and consumes no
    randomness, so contention-off runs are byte-identical.  While contention
    tracking is active the model also maintains an EWMA *service residual*:
    observed (contended) base service time relative to the base model's
    analytic mean.  It sits near 1.0 on a quiet host and approaches the
    contention factor under interference; the per-host health estimator
    aggregates it to name noisy hosts without peeking at the injected
    ground-truth factor.
    """

    MAX_UTILISATION = 0.99
    RESIDUAL_ALPHA = 0.05

    def __init__(self, base: LatencyModel) -> None:
        self.base = base
        self._utilisation = 0.0
        self._contention = 1.0
        self._tracking = False
        self._residual = 1.0
        self._base_mean: Optional[float] = None

    @property
    def utilisation(self) -> float:
        return self._utilisation

    @property
    def contention(self) -> float:
        return self._contention

    def set_utilisation(self, rho: float) -> None:
        """Update the utilisation used to inflate subsequent samples."""
        if rho < 0:
            raise ValueError(f"utilisation must be non-negative, got {rho}")
        self._utilisation = float(rho) if rho < self.MAX_UTILISATION else self.MAX_UTILISATION

    def set_contention(self, factor: float) -> None:
        """Update the co-tenant service inflation factor (>= 1).

        First call arms residual tracking: the contention layer pushes a
        factor (possibly 1.0) to every placed node each step, so tracking is
        active exactly in contention-enabled runs and the sample path is
        untouched otherwise.
        """
        if factor < 1.0:
            raise ValueError(f"contention factor must be >= 1, got {factor}")
        self._contention = float(factor)
        if not self._tracking:
            self._tracking = True
            self._base_mean = self.base.mean()

    def service_residual(self) -> float:
        """EWMA of observed base service time over the base model's mean."""
        return self._residual

    def sample(self, rng: np.random.Generator) -> float:
        # Inlined pooled lookup on the base model: this is the per-request
        # service-time path for every storage node.
        base = self.base
        pools = base._pools
        if pools is None:
            service = base.sample(rng) * self._contention
        else:
            pool = pools.get(rng)
            if pool is None:
                service = base.sample(rng) * self._contention
            else:
                block, index = pool
                if index >= len(block):
                    block = pool[0] = memoryview(base._draw_block(rng, base.POOL_BLOCK))
                    index = 0
                pool[1] = index + 1
                service = block[index] * self._contention
        if self._tracking:
            self._residual += self.RESIDUAL_ALPHA * (
                service / self._base_mean - self._residual)
        return service / (1.0 - self._utilisation)

    def mean(self) -> float:
        return self.base.mean() * self._contention / (1.0 - self._utilisation)
