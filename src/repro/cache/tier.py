"""The cache tier facade the engine embeds (``Scads(cache=...)``).

:class:`CacheTier` bundles the store and the admission policy, wires the
engine's write paths into invalidations, and owns the *latency model* of a
cache hit: a hit is served from the front tier's memory without touching the
cluster, so it samples a sub-millisecond log-normal service time from
:mod:`repro.sim.latency` instead of paying network hops plus node service
time.  The engine records that latency under the same read SLA as cluster
reads — the cache is part of the serving system, not an accounting trick.

Two kinds of writes can make a cached answer wrong, and both invalidate:

* **entity writes** (``Scads.put`` / ``Scads.delete``) — drop the written
  key's entity entry immediately, plus any cached *entity-namespace* range
  read covering the key;
* **index writes** — when the asynchronous index updater applies maintenance
  it rewrites index/reverse-index entries through the engine's storage
  adapter; each such write drops the cached query scans whose
  :class:`~repro.storage.records.KeyRange` contains the written index key.

The split matters for the staleness contract: a cached query scan keeps
serving the *pre-write* rows between the base write and the moment its index
maintenance is applied — which is precisely the asynchrony the declared
staleness bound already permits (the updater's deadline is that bound), and
the TTL derived in :mod:`repro.cache.policy` caps the exposure independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.cache.policy import AdmissionPolicy
from repro.cache.store import CacheEntry, StalenessBudgetCache, entity_token
from repro.core.consistency.sessions import Session
from repro.core.consistency.spec import ConsistencySpec
from repro.sim.latency import LogNormalLatency
from repro.sim.simulator import Simulator
from repro.storage.records import Key, KeyRange

# Log-normal service time of a cache hit — a front-tier memory lookup, orders
# of magnitude below a routed cluster read.
HIT_LATENCY_MEDIAN = 0.0005
HIT_LATENCY_SIGMA = 0.3


@dataclass(frozen=True)
class CacheConfig:
    """Sizing for the staleness-budget cache tier.

    Args:
        capacity: maximum rows held (LRU evicts past it).
    """

    capacity: int = 4096

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")


class CacheTier:
    """Read-through cache in front of the router, bound to one engine's spec."""

    def __init__(self, config: CacheConfig, spec: ConsistencySpec,
                 simulator: Simulator) -> None:
        self.config = config
        self.store = StalenessBudgetCache(capacity=config.capacity)
        self.policy = AdmissionPolicy(spec)
        self._clock = simulator.clock
        self._hit_latency = LogNormalLatency(
            median=HIT_LATENCY_MEDIAN, sigma=HIT_LATENCY_SIGMA)
        self._rng = simulator.random.get("cache:hit-latency")

    # ------------------------------------------------------------------ serving

    def sample_hit_latency(self) -> float:
        """Service time of one cache hit (no cluster involvement)."""
        return self._hit_latency.sample(self._rng)

    def lookup_entity(self, namespace: str, key: Key,
                      session: Optional[Session]) -> Optional[CacheEntry]:
        """The live cached entry for an entity get, or None on miss/bypass.

        A value the caller's session guarantees reject is a *bypass*: the
        entry stays cached for other sessions, but this read must go to the
        cluster (whose read path enforces the guarantee).
        """
        entry = self.store.get(entity_token(namespace, key), self._clock.now)
        if entry is None:
            return None
        if not self.policy.session_allows(session, namespace, key, entry.value):
            self._reclassify_as_misses(1)
            return None
        return entry

    def _reclassify_as_misses(self, bypasses: int) -> None:
        # Each bypassed lookup was counted as a hit, but its read goes to the
        # cluster; reclassify so the hit-rate feature the provisioning loop
        # sees reflects cluster-absorbed reads only.
        self.store.stats.hits -= bypasses
        self.store.stats.misses += bypasses

    def lookup_entities(
        self, namespace: str, keys: Iterable[Key], session: Optional[Session],
    ) -> Tuple[Dict[Key, Optional[Mapping[str, Any]]], float, List[Key]]:
        """Serve a query's dereference list from the cache in one pass.

        Each distinct key is looked up once, in first-occurrence order, with
        the effects of :meth:`lookup_entity` followed — on a hit — by the
        session's ``note_read`` and :meth:`sample_hit_latency`; the hit
        latencies are drawn together afterwards, which continues the pooled
        stream in the same order.  Returns ``(rows, slowest, misses)``: the
        stored row itself under every served key — the read-only mapping the
        write resolved, never a copy — or None for a cached negative result,
        the slowest of the hit latencies (the hits are served in parallel;
        0.0 when nothing was served), and the keys the caller must read
        through the cluster.
        """
        distinct = dict.fromkeys(keys)
        hits, misses = self.store.get_entities(namespace, distinct, self._clock.now)
        if session is not None and hits:
            if self.policy.session_checks(session):
                rejected = [key for key, value in hits.items()
                            if not session.acceptable(namespace, key, value)]
                if rejected:
                    for key in rejected:
                        del hits[key]
                    self._reclassify_as_misses(len(rejected))
                    misses = [key for key in distinct if key not in hits]
            session.note_reads(namespace, hits, hits.values())
        if not hits:
            return hits, 0.0, misses
        slowest = max(self._hit_latency.sample_many(self._rng, len(hits)).tolist())
        rows = {key: value.value if value is not None else None
                for key, value in hits.items()}
        return rows, slowest, misses

    def admit_entity(self, namespace: str, key: Key, value: Any,
                     known_staleness: Optional[float]) -> Optional[CacheEntry]:
        """Read-through fill after a cluster read that was ``known_staleness``
        seconds behind the primary when it was served (None = unverified,
        never admitted).

        The entry is servable for what is left of the policy's budget — its
        :meth:`~repro.cache.policy.AdmissionPolicy.entity_ttl`, worked out
        here because one fill is admitted per cluster-served dereference.
        """
        if known_staleness is None or known_staleness < 0:
            return None
        ttl = self.policy.servable_budget - known_staleness
        if ttl <= 0:
            return None
        return self.store.put_entity(namespace, key, value, self._clock.now, ttl)

    def lookup_range(self, namespace: str, start: Optional[Key],
                     end: Optional[Key], limit: Optional[int],
                     reverse: bool) -> Optional[List[Tuple[Key, Any]]]:
        """Cached rows for one bounded range read under its exact scan
        parameters, or None on miss (see
        :meth:`~repro.cache.store.StalenessBudgetCache.get_range`)."""
        return self.store.get_range(namespace, start, end, limit, reverse,
                                    self._clock.now)

    def admit_range(self, namespace: str, start: Optional[Key],
                    end: Optional[Key], limit: Optional[int], reverse: bool,
                    rows: List[Tuple[Key, Any]],
                    key_range: Optional[KeyRange] = None) -> Optional[CacheEntry]:
        """Read-through fill of one compiled-query range read.

        The rows must come from a primary read: apply-time index invalidation
        has already fired for writes a lagging replica may still be missing,
        so caching a replica's view could keep superseded rows alive for a
        full TTL with nothing left to evict them.  The TTL derivation in
        :meth:`AdmissionPolicy.range_ttl` relies on it.
        The entry keeps ``rows`` itself, not a copy (lookups hand out copies),
        so the caller must not mutate the list afterwards; a caller that
        already built the scan's ``KeyRange(namespace, start, end)`` passes it
        to be kept as well.
        """
        return self.store.put_range(
            namespace, start, end, limit, reverse, rows,
            self._clock.now, self.policy.range_ttl(), key_range,
        )

    # ------------------------------------------------------------- invalidation

    def note_entity_write(self, namespace: str, key: Key) -> None:
        """An entity row was written or deleted; drop everything it could
        have served: its entity entry and covering cached ranges."""
        self.store.invalidate_key(namespace, key)

    def note_index_write(self, namespace: str, key: Key) -> None:
        """An index (or reverse-index) entry was applied by the asynchronous
        updater; drop the cached scans whose range covers it."""
        self.store.invalidate_key(namespace, key)

    # ---------------------------------------------------------------- reporting

    def hit_counts(self) -> Tuple[int, int]:
        """Cumulative (hits, misses) — the provisioning monitor diffs these
        per window to compute the cache-hit-rate feature."""
        return self.store.stats.hits, self.store.stats.misses

    def hit_rate(self) -> float:
        return self.store.stats.hit_rate()
