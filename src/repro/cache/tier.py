"""The cache tier facade the engine embeds (``Scads(cache=...)``).

:class:`CacheTier` is where the declarative consistency specification becomes
a cache contract.  It bundles the store with that contract, wires the
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
the TTL the tier derives from that bound caps the exposure independently.

The contract:

* **Headroom** — the staleness bound of the governing
  :class:`~repro.core.consistency.spec.ReadConsistency` is cut by a
  propagation headroom of 10 % of the bound, capped at 2 seconds.  The
  headroom absorbs the asynchronous machinery between a write and its
  visibility (replica propagation, invalidation ordering), so a cached answer
  served at the very end of its TTL still sits inside the declared bound.
  The bound is always positive, so some budget is always left.
* **TTLs** — "stale data gone within B seconds" makes an entry servable for
  ``B - headroom`` seconds *minus any staleness the value already carried
  when it was read*.  The engine's consistency-aware read path knows that
  carried staleness exactly (it peeks the primary to enforce the bound) and
  passes it to :meth:`CacheTier.admit_entity`; reads whose staleness could
  not be verified (primary unreachable) are never admitted.
* **Session bypass** — Terry-style session guarantees outrank the staleness
  budget.  A read-your-writes session that has written a key must not be
  handed a cached value older than its own write, and a monotonic-reads
  session must never go backwards; a value the session's
  :meth:`~repro.core.consistency.sessions.Session.acceptable` rejects is a
  bypass, read through the cluster.  The engine passes a session only when it
  guarantees something (:meth:`~repro.core.consistency.sessions.SessionManager.get`),
  so a lookup without one accepts every live entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.cache.store import CacheEntry, StalenessBudgetCache, entity_token
from repro.core.consistency.sessions import Session
from repro.core.consistency.spec import ConsistencySpec
from repro.sim.latency import LogNormalLatency
from repro.sim.simulator import Simulator
from repro.storage.records import Key, KeyRange, VersionedValue

# Log-normal service time of a cache hit — a front-tier memory lookup, orders
# of magnitude below a routed cluster read.
HIT_LATENCY_MEDIAN = 0.0005
HIT_LATENCY_SIGMA = 0.3

# Seconds cut from the staleness bound before it is spent on TTLs: 10 % of the
# bound, capped at 2 seconds — enough to cover replica propagation in the
# simulation while leaving most of the declared budget exploitable.
HEADROOM_FRACTION = 0.1
HEADROOM_CAP = 2.0


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
        bound = spec.read.staleness_bound
        #: Seconds a freshly-read value may be served from cache: the bound
        #: less its propagation headroom (> 0, since ReadConsistency rejects
        #: a bound <= 0).
        self.servable_budget = bound - min(HEADROOM_FRACTION * bound, HEADROOM_CAP)
        self._clock = simulator.clock
        self._hit_latency = LogNormalLatency(
            median=HIT_LATENCY_MEDIAN, sigma=HIT_LATENCY_SIGMA)
        self._rng = simulator.random.get("cache:hit-latency")

    # ------------------------------------------------------------------ serving

    def sample_hit_latency(self) -> float:
        """Service time of one cache hit (no cluster involvement)."""
        return self._hit_latency.sample(self._rng)

    def lookup_entity(
        self, namespace: str, key: Key, session: Optional[Session],
    ) -> Optional[Tuple[Optional[VersionedValue], float]]:
        """Serve one entity get from the cache: ``(value, latency)`` on a hit
        — the cached version (None is a cached negative result) and the hit's
        service time, with the session's ``note_read`` run first, exactly as
        a cluster read would — or None on a miss or a bypass.

        A value the caller's session guarantees reject is a *bypass*: the
        entry stays cached for other sessions, but this read must go to the
        cluster (whose read path enforces the guarantee).
        """
        entry = self.store.get(entity_token(namespace, key), self._clock.now)
        if entry is None:
            return None
        value = entry.value
        if session is not None:
            if not session.acceptable(namespace, key, value):
                self._reclassify_as_misses(1)
                return None
            session.note_read(namespace, key, value)
        return value, self.sample_hit_latency()

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
        the effects of one :meth:`lookup_entity` call per key; the hit
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
        slowest = self._hit_latency.slowest(self._rng, len(hits))
        rows = {key: value.value if value is not None else None
                for key, value in hits.items()}
        return rows, slowest, misses

    def admit_entity(self, namespace: str, key: Key, value: Any,
                     known_staleness: Optional[float]) -> Optional[CacheEntry]:
        """Read-through fill after a cluster read that was ``known_staleness``
        seconds behind the primary when it was served (None = unverified,
        never admitted).

        The entry is servable for what is left of :attr:`servable_budget`
        after the staleness it carried.
        """
        if known_staleness is None or known_staleness < 0:
            return None
        ttl = self.servable_budget - known_staleness
        if ttl <= 0:
            return None
        return self.store.put_entity(namespace, key, value, self._clock.now, ttl)

    def lookup_range(self, namespace: str, start: Key, end: Key,
                     limit: Optional[int],
                     reverse: bool) -> Optional[List[Tuple[Key, Any]]]:
        """Cached rows for one bounded range read under its exact scan
        parameters, or None on miss (see
        :meth:`~repro.cache.store.StalenessBudgetCache.get_range`)."""
        return self.store.get_range(namespace, start, end, limit, reverse,
                                    self._clock.now)

    def admit_range(self, namespace: str, start: Key, end: Key,
                    limit: Optional[int], reverse: bool,
                    rows: List[Tuple[Key, Any]],
                    key_range: Optional[KeyRange] = None) -> Optional[CacheEntry]:
        """Read-through fill of one compiled-query range read.

        The entry lives the whole :attr:`servable_budget`.  That is sound
        because the rows come from a primary read, so they can only be missing
        index writes still pending in the updater's deadline queue —
        staleness the declared bound already grants — and the moment any such
        write is applied, :meth:`note_index_write` drops the covering cached
        scans.  A replica's view would not do: apply-time index invalidation
        has already fired for writes a lagging replica may still be missing,
        so caching it could keep superseded rows alive for a full TTL with
        nothing left to evict them.
        The entry keeps ``rows`` itself, not a copy (lookups hand out copies),
        so the caller must not mutate the list afterwards; a caller that
        already built the scan's ``KeyRange(namespace, start, end)`` passes it
        to be kept as well.
        """
        return self.store.put_range(
            namespace, start, end, limit, reverse, rows,
            self._clock.now, self.servable_budget, key_range,
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
