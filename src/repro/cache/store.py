"""Capacity-bounded cache store with LRU and TTL eviction.

The store holds two kinds of entries in one LRU order:

* **entity entries** — one :class:`~repro.storage.records.VersionedValue`
  (or a negative result) under its ``(namespace, key)``;
* **range entries** — the materialised rows of one bounded contiguous range
  read (a compiled query's index scan), remembered together with the
  :class:`~repro.storage.records.KeyRange` they cover so a point write can
  invalidate exactly the cached scans whose range contains the written key.

A range entry is served only under its exact parameter token: every query
template binds its parameters into one bounded scan, so a repeated query
repeats the token.  Range entries are also indexed per namespace by the
leading key component every key of their range shares, so finding the cached
scans that contain a written key (invalidation) inspects one small bucket
instead of every cached scan of the namespace.

Every entry carries an absolute expiry time derived by the admission policy
from the governing staleness bound (see :mod:`repro.cache.policy`); expired
entries are treated as misses and reclaimed lazily.  Capacity is measured in
*rows* (a range entry costs as many units as it holds rows) so a handful of
wide scans cannot silently dwarf thousands of entity entries.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.storage.records import Key, KeyPart, KeyRange, key_part_successor

EntryToken = Tuple[Hashable, ...]


@dataclass
class CacheStats:
    """Counters the hit-rate feature and the benchmarks report from."""

    hits: int = 0
    misses: int = 0
    lru_evictions: int = 0
    invalidations: int = 0
    # Always 0: a range lookup is served by its exact token only.  Kept only
    # because perfbench/workloads.py reads it; it goes with the next change
    # to the benchmark.
    containment_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(slots=True)
class CacheEntry:
    """One cached result plus the metadata its freshness contract needs."""

    token: EntryToken
    namespace: str
    value: Any
    expires_at: float
    key: Optional[Key] = None
    key_range: Optional[KeyRange] = None
    cost: int = 1

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


def entity_token(namespace: str, key: Key) -> EntryToken:
    """Stable store token for an entity entry."""
    return ("entity", namespace, key)


def range_token(namespace: str, start: Optional[Key], end: Optional[Key],
                limit: Optional[int], reverse: bool) -> EntryToken:
    """Stable store token for one bounded range read's parameters."""
    return ("range", namespace, start, end, limit, reverse)


def _shared_lead(start: Optional[Key], end: Optional[Key]) -> Optional[KeyPart]:
    """The leading key component every key of ``[start, end)`` must share, or
    None when the range spans several leading components or has an open end.

    Two shapes qualify: ``end`` starts with the same component as ``start``,
    or ``end`` is the one-component key holding that component's immediate
    successor — what :func:`~repro.storage.records.prefix_range` builds for a
    one-component prefix.  The second shape is only trusted for strings, whose
    successor leaves no value in between (``n + 1`` leaves every float in
    ``(n, n + 1)``).
    """
    if not start or not end:
        return None
    lead = start[0]
    if end[0] == lead:
        return lead
    if isinstance(lead, str) and end == (key_part_successor(lead),):
        return lead
    return None


class _NamespaceRanges:
    """One namespace's range entries, findable without walking all of them.

    Both levels are insertion-ordered dicts, NOT sets: reclamation walks the
    admission order, and set iteration order varies with the interpreter's
    hash seed — which would let two invocations of the same seeded run
    reclaim (and so evict) different entries, breaking the sweep fabric's
    serial/parallel reproducibility.
    """

    __slots__ = ("admitted", "buckets")

    def __init__(self) -> None:
        # Every range token of the namespace, in admission order.
        self.admitted: Dict[EntryToken, None] = {}
        # :func:`_shared_lead` of the entry's range -> its tokens in admission
        # order; key None is the "wide" bucket every invalidation also inspects.
        self.buckets: Dict[Optional[KeyPart], Dict[EntryToken, None]] = {}


class StalenessBudgetCache:
    """An LRU + TTL cache over entity and range-read results.

    Args:
        capacity: maximum total cost (rows) held; least-recently-used entries
            are evicted past it.  Entity entries cost 1, range entries cost
            ``max(1, len(rows))``.
    """

    # A range lookup that misses its exact token reclaims at most this many
    # expired range entries from the head of the namespace's admission order.
    RECLAIM_CAP = 128

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[EntryToken, CacheEntry]" = OrderedDict()
        self._ranges: Dict[str, _NamespaceRanges] = {}
        self._cost_total = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def cost_total(self) -> int:
        """Current total cost (rows) of everything held."""
        return self._cost_total

    # ------------------------------------------------------------------ lookups

    def get(self, token: EntryToken, now: float) -> Optional[CacheEntry]:
        """Return the live entry under ``token``, or None (counted as a miss).

        A hit refreshes the entry's LRU position; an expired entry is
        reclaimed and reported as a miss.
        """
        entry = self._entries.get(token)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.expired(now):
            self._remove(token)
            self.stats.misses += 1
            return None
        self._entries.move_to_end(token)
        self.stats.hits += 1
        return entry

    def get_entities(self, namespace: str, keys: Iterable[Key],
                     now: float) -> Tuple[Dict[Key, Any], List[Key]]:
        """:meth:`get` for each of the distinct entity ``keys`` in order, as
        one loop, with the same counting, LRU refresh and lazy reclamation as
        that many single calls.  Returns ``(hits, misses)``: the cached value
        under every key with a live entry (None is a cached negative result),
        and the keys without one, both in the order given."""
        entries = self._entries
        hits: Dict[Key, Any] = {}
        misses: List[Key] = []
        for key in keys:
            token = ("entity", namespace, key)  # entity_token(), inlined
            entry = entries.get(token)
            if entry is not None:
                if now < entry.expires_at:
                    entries.move_to_end(token)
                    hits[key] = entry.value
                    continue
                self._remove(token)
            misses.append(key)
        stats = self.stats
        stats.hits += len(hits)
        stats.misses += len(misses)
        return hits, misses

    def peek(self, token: EntryToken) -> Optional[CacheEntry]:
        """The entry under ``token`` regardless of expiry, without counting
        a lookup or touching LRU order (tests and introspection)."""
        return self._entries.get(token)

    def get_range(self, namespace: str, start: Optional[Key], end: Optional[Key],
                  limit: Optional[int], reverse: bool, now: float) -> Optional[list]:
        """Rows for one bounded range read, served under its exact parameter
        token, or None.

        One hit or one miss is counted per call.  A miss also reclaims the
        expired entries at the head of the namespace's admission order, at
        most ``RECLAIM_CAP`` per call — with the one range TTL the admission
        policy derives, admission order is expiry order, so that is every
        expired scan of the namespace.
        """
        entry = self._entries.get(range_token(namespace, start, end, limit, reverse))
        if entry is not None:
            if entry.expired(now):
                self._remove(entry.token)
            else:
                self._entries.move_to_end(entry.token)
                self.stats.hits += 1
                return list(entry.value)
        # Looked up after the removal above, which may have emptied the namespace.
        ranges = self._ranges.get(namespace)
        if ranges is not None and self._entries[next(iter(ranges.admitted))].expired(now):
            self._reclaim_expired_head(ranges, now)
        self.stats.misses += 1
        return None

    def _reclaim_expired_head(self, ranges: _NamespaceRanges, now: float) -> None:
        doomed = []
        for token in ranges.admitted:
            if len(doomed) >= self.RECLAIM_CAP or not self._entries[token].expired(now):
                break
            doomed.append(token)
        for token in doomed:
            self._remove(token)

    # --------------------------------------------------------------- admission

    def put_entity(self, namespace: str, key: Key, value: Any,
                   now: float, ttl: float) -> Optional[CacheEntry]:
        """Admit one entity read result; returns the entry, or None when the
        derived TTL grants no servable window."""
        if ttl <= 0:
            return None
        token = ("entity", namespace, key)  # entity_token(), inlined
        entry = CacheEntry(token, namespace, value, now + ttl, key)
        entries = self._entries
        # An entity entry costs 1 and is in no range index, so replacing one
        # is a pop; the new entry goes to the young end of the LRU order.
        if entries.pop(token, None) is None:
            self._cost_total += 1
        entries[token] = entry
        if self._cost_total > self.capacity:
            self._evict_to_capacity(token)
        return entry

    def put_range(self, namespace: str, start: Optional[Key], end: Optional[Key],
                  limit: Optional[int], reverse: bool, rows: Any,
                  now: float, ttl: float,
                  key_range: Optional[KeyRange] = None) -> Optional[CacheEntry]:
        """Admit one bounded range read's rows under its exact parameters
        (``key_range``: the scan's ``KeyRange(namespace, start, end)`` when
        the caller already holds it)."""
        if ttl <= 0:
            return None
        cost = max(1, len(rows))
        if cost > self.capacity:
            return None  # a scan wider than the whole cache is not admissible
        token = range_token(namespace, start, end, limit, reverse)
        entry = CacheEntry(
            token=token,
            namespace=namespace,
            value=rows,
            expires_at=now + ttl,
            key_range=key_range or KeyRange(namespace=namespace, start=start, end=end),
            cost=cost,
        )
        if token in self._entries:
            self._remove(token)
        self._entries[token] = entry
        self._cost_total += cost
        ranges = self._ranges.get(namespace)
        if ranges is None:
            ranges = self._ranges[namespace] = _NamespaceRanges()
        ranges.admitted[token] = None
        ranges.buckets.setdefault(_shared_lead(start, end), {})[token] = None
        self._evict_to_capacity(token)
        return entry

    def _evict_to_capacity(self, newest: EntryToken) -> None:
        """Evict from the old end of the LRU order until the cost fits."""
        entries = self._entries
        while self._cost_total > self.capacity and entries:
            victim_token = next(iter(entries))
            if victim_token == newest and len(entries) == 1:
                break  # never evict the sole, just-inserted entry
            self._remove(victim_token)
            self.stats.lru_evictions += 1

    # ------------------------------------------------------------- invalidation

    def invalidate_key(self, namespace: str, key: Key) -> int:
        """Drop the entity entry for ``key`` and every cached range read in
        the same namespace whose range contains ``key``.

        This is the write-through hook: called for the written key on entity
        writes, and for the written *index* key when the asynchronous updater
        applies index maintenance (so cached query scans covering the changed
        index region are dropped too).  Only the cached scans under the key's
        leading component, plus the wide ones, are inspected.  Returns the
        number of entries dropped.
        """
        dropped = 0
        token = entity_token(namespace, key)
        if token in self._entries:
            self._remove(token)
            dropped += 1
        ranges = self._ranges.get(namespace)
        if ranges is not None:
            for lead in (key[0], None):
                # Copied: dropping an entry edits the bucket under iteration.
                for rtoken in list(ranges.buckets.get(lead, ())):
                    if self._entries[rtoken].key_range.contains(key):
                        self._remove(rtoken)
                        dropped += 1
        self.stats.invalidations += dropped
        return dropped

    # ----------------------------------------------------------------- internal

    def _remove(self, token: EntryToken) -> None:
        entry = self._entries.pop(token, None)
        if entry is None:
            return
        self._cost_total -= entry.cost
        covering = entry.key_range
        if covering is not None:
            ranges = self._ranges[entry.namespace]
            del ranges.admitted[token]
            lead = _shared_lead(covering.start, covering.end)
            bucket = ranges.buckets[lead]
            del bucket[token]
            if not bucket:
                del ranges.buckets[lead]
            if not ranges.admitted:
                del self._ranges[entry.namespace]
