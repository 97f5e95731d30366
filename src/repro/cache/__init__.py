"""Staleness-budget cache tier.

A front-tier read-through cache whose freshness contract is *derived from the
declarative consistency specification*: an application that declared "stale
data gone within 10 seconds" has explicitly granted the system a 10-second
window in which a cached answer is just as correct as a cluster read.  The
cache tier exploits that slack — entity gets and compiled-query range reads
that hit the cache bypass the storage cluster entirely — while write-through
invalidation and TTLs derived from the staleness bound guarantee that no read
is ever served beyond its declared budget.

Pieces:

* :mod:`repro.cache.store` — capacity-bounded LRU + TTL store;
* :mod:`repro.cache.tier` — the :class:`~repro.cache.tier.CacheTier` facade
  the engine embeds (``Scads(cache=...)``): the TTLs and session bypasses it
  derives from the :class:`~repro.core.consistency.spec.ConsistencySpec` and
  the caller's session guarantees, with write-through invalidation wired into
  the engine's entity write path and the asynchronous index updater.
"""

from repro.cache.store import CacheEntry, CacheStats, StalenessBudgetCache
from repro.cache.tier import CacheConfig, CacheTier

__all__ = [
    "CacheConfig",
    "CacheEntry",
    "CacheStats",
    "CacheTier",
    "StalenessBudgetCache",
]
