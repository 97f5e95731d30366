"""A simulated storage node.

Each node holds per-namespace key/value maps, ordered when range-read, and models
its own request latency.  Latency is load-dependent: the node keeps an
exponentially weighted estimate of its arrival rate, derives a utilisation
against its configured capacity, and inflates a base log-normal service time
with an M/M/1-style queueing factor.  An overloaded node therefore produces exactly
the tail-latency degradation the SLA monitor and autoscaler are built to
detect and correct.
"""

from __future__ import annotations

import bisect
from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.sim.latency import LogNormalLatency, QueueingLatency
from repro.storage.records import Key, KeyRange, VersionedValue, validate_key


# Median service time of a node at low load, in seconds.  The engine hands the
# same number to the latency and sizing models, so it is defined once here.
BASE_SERVICE_TIME = 0.004
LATENCY_SIGMA = 0.45
# Smoothing factor of the arrival-rate estimate.
RATE_EWMA_ALPHA = 0.2


class NodeDownError(RuntimeError):
    """Raised when an operation is attempted on a crashed node."""


class _NamespaceStore:
    """An ordered map for one namespace on one node.

    A dict holds the versions; a key list orders them, but only once a range
    read needs the order.  A new key only ever lands at the dict's end, and a
    delete takes a key out of both structures, so ``_sorted_keys`` is always
    the dict's first ``len(_sorted_keys)`` keys in key order and the keys
    added since the last ordered read are the dict's own suffix: storing a
    copy costs one dict slot, and a store nothing range-reads never sorts a
    key.  ``range`` folds the suffix in first: by ``bisect`` insertion while
    it is shorter than the square root of the sorted list's length, else by
    one ``list.sort()``.  An insertion moves the list's tail once per key;
    the sort keeps the sorted run and compares each of its keys about once.
    Measured on CPython 3.11, the two cost the same at one to three square
    roots, from sixteen sorted keys to a million.  Deletes and scans sort
    nothing.  Point lookups are O(1) and a range scan is O(log n + k) once
    ordered — the access profile the SCADS query model restricts itself to.
    """

    def __init__(self) -> None:
        self._data: Dict[Key, VersionedValue] = {}
        self._sorted_keys: List[Key] = []

    def __len__(self) -> int:
        return len(self._data)

    def _ordered_keys(self) -> List[Key]:
        """Every stored key (tombstones included) in key order."""
        keys = self._sorted_keys
        new = len(self._data) - len(keys)
        if new:
            added = islice(reversed(self._data), new)
            if new * new < len(keys):
                insort = bisect.insort
                for key in added:
                    insort(keys, key)
            else:
                keys += added
                keys.sort()
        return keys

    def put(self, key: Key, value: VersionedValue) -> None:
        """Store ``value`` under ``key``."""
        self._data[key] = value

    def delete_many(self, keys: Iterable[Key]) -> None:
        """Drop each of ``keys`` that is stored (data movement: no tombstone),
        then filter the sorted keys once (a data-movement sweep takes up to
        half a store at a time)."""
        data = self._data
        for key in keys:
            data.pop(key, None)
        if self._sorted_keys:
            self._sorted_keys = [key for key in self._sorted_keys if key in data]

    def range(self, start: Key, end: Key,
              limit: Optional[int] = None,
              reverse: bool = False) -> List[Tuple[Key, VersionedValue]]:
        """The live (key, value) pairs with start <= key < end, in key order.

        With ``reverse=True`` the scan walks backwards from the end of the
        range (still returning keys in descending order), so a LIMIT on a
        descending query reads only ``limit`` entries.  ``limit`` bounds the
        entries *read*: a tombstone among them is skipped, not replaced.  The
        result is built in one pass over the bounded slice of the sorted keys
        and is the caller's to keep.
        """
        data = self._data
        keys = self._sorted_keys
        if len(keys) != len(data):
            keys = self._ordered_keys()
        lo = bisect.bisect_left(keys, start)
        hi = bisect.bisect_left(keys, end)
        if limit is not None and hi - lo > limit:
            if reverse:
                lo = hi - limit
            else:
                hi = lo + limit
        scanned = reversed(keys[lo:hi]) if reverse else keys[lo:hi]
        return [(key, value) for key in scanned
                if not (value := data[key]).tombstone]


class StorageNode:
    """One simulated storage server.

    Args:
        node_id: unique identifier (also used as a network endpoint).
        rng: random generator for service-time sampling.
        capacity_ops_per_sec: sustainable request rate before queueing delay
            dominates; the autoscaler reasons in these units.
    """

    def __init__(
        self,
        node_id: str,
        rng: np.random.Generator,
        capacity_ops_per_sec: float = 1000.0,
    ) -> None:
        if capacity_ops_per_sec <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_ops_per_sec}")
        self.node_id = node_id
        self.capacity_ops_per_sec = float(capacity_ops_per_sec)
        self._rng = rng
        self._latency = QueueingLatency(LogNormalLatency(BASE_SERVICE_TIME, LATENCY_SIGMA))
        self._namespaces: Dict[str, _NamespaceStore] = {}
        self._last_arrival: Optional[float] = None
        self._ewma_interarrival: Optional[float] = None
        # Operations seen at the current arrival instant (a query's fan-out
        # or a maintenance tick lands many ops at one simulated timestamp).
        self._burst_count = 1
        self._alive = True
        self._draining = False

    # ------------------------------------------------------------------ state

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def draining(self) -> bool:
        """True while the node is being gracefully evacuated (spot notice).

        A draining node still serves in-flight work (migration handoff,
        reconciliation) but the router stops sending it client reads and the
        replication engine stops targeting it with new writes, so detaching
        it never loses an acknowledged update.
        """
        return self._draining

    def set_draining(self, draining: bool) -> None:
        self._draining = draining

    def crash(self) -> None:
        """Mark the node as failed; subsequent operations raise NodeDownError."""
        self._alive = False

    def recover(self) -> None:
        """Bring a crashed node back (its data survives, as on a reboot)."""
        self._alive = True

    def wipe(self) -> None:
        """Drop all data (decommissioning / fresh instance)."""
        self._namespaces.clear()

    def _check_alive(self) -> None:
        if not self._alive:
            raise NodeDownError(f"node {self.node_id} is down")

    # -------------------------------------------------------------- load model

    def _record_arrival(self, now: float) -> None:
        last = self._last_arrival
        ewma = self._ewma_interarrival
        if last is None:
            self._last_arrival = now
            self._burst_count = 1
        else:
            gap = now - last
            if gap < 1e-6:
                # Co-timed with the previous arrival: a query's sequential
                # dereferences and a maintenance tick's writes all land at
                # one simulated instant.  That is a burst absorbed by one
                # service window, not a microsecond-scale arrival rate —
                # folding the raw gap into the EWMA would peg utilisation
                # at ~1.0 for a node whose true load is a few ops/sec.
                # Count the op and wait for simulated time to advance.
                self._burst_count += 1
            else:
                # Spread the elapsed gap over every op that arrived at the
                # previous instant, so a burst of N ops after ``gap``
                # seconds contributes a rate of N/gap — the windowed rate.
                per_op_gap = gap / self._burst_count
                if per_op_gap < 1e-6:
                    per_op_gap = 1e-6
                if ewma is None:
                    ewma = per_op_gap
                else:
                    ewma = RATE_EWMA_ALPHA * per_op_gap + (1 - RATE_EWMA_ALPHA) * ewma
                self._ewma_interarrival = ewma
                self._burst_count = 1
                self._last_arrival = now
        rate = 1.0 / ewma if ewma is not None and ewma > 0 else 0.0
        self._latency.set_utilisation(rate / self.capacity_ops_per_sec)

    def arrival_rate(self) -> float:
        """Current smoothed arrival rate estimate in ops/sec."""
        if self._ewma_interarrival is None or self._ewma_interarrival <= 0:
            return 0.0
        return 1.0 / self._ewma_interarrival

    def utilisation(self) -> float:
        """Current utilisation estimate (0..~1)."""
        return self._latency.utilisation

    def decay_load(self, now: float) -> None:
        """Decay the arrival-rate estimate when traffic has stopped arriving.

        Without this, a node that suddenly stops receiving requests would
        keep reporting its last (possibly very high) utilisation forever and
        the autoscaler could never scale down.
        """
        if self._last_arrival is None or self._ewma_interarrival is None:
            return
        idle_gap = now - self._last_arrival
        if idle_gap > self._ewma_interarrival:
            self._ewma_interarrival = (
                RATE_EWMA_ALPHA * idle_gap
                + (1 - RATE_EWMA_ALPHA) * self._ewma_interarrival
            )
            self._last_arrival = now
            self._burst_count = 1
            self._latency.set_utilisation(self.arrival_rate() / self.capacity_ops_per_sec)

    def set_contention(self, factor: float) -> None:
        """Apply a co-tenant service inflation factor (see ``repro.sim.hosts``)."""
        self._latency.set_contention(factor)

    def contention(self) -> float:
        """Current co-tenant service inflation factor (1.0 = quiet host)."""
        return self._latency.contention

    def service_residual(self) -> float:
        """EWMA of observed base service time over the model's analytic mean.

        Near 1.0 on a quiet host, approaches the contention factor under
        interference; the per-host health estimator averages it across a
        host's colocated nodes to name noisy hosts.
        """
        return self._latency.service_residual()

    def service_time(self) -> float:
        """Sample a service time at the node's current utilisation."""
        return self._latency.sample(self._rng)

    def split_service(self, total: float) -> Tuple[float, float]:
        """Decompose a just-sampled latency into (queue_wait, base_service).

        The queueing model inflates the base draw by ``1 / (1 - rho)``, so
        at the utilisation that produced the sample a fraction ``rho`` of
        the total is time spent waiting rather than being served.  Called
        by the tracer immediately after the op that produced ``total``
        (``_record_arrival`` fixes rho before sampling); the two parts sum
        to ``total`` exactly, so trace reconciliation is preserved.
        """
        rho = self._latency.utilisation
        return total * rho, total * (1.0 - rho)

    # ------------------------------------------------------------------- data

    def _store(self, namespace: str) -> _NamespaceStore:
        store = self._namespaces.get(namespace)
        if store is None:
            store = self._namespaces[namespace] = _NamespaceStore()
        return store

    def peek(self, namespace: str, key: Key,
             include_tombstones: bool = False) -> Optional[VersionedValue]:
        """Read the current version of a key without touching the load model.

        Used by the write path to determine the next version number and by
        replication/consistency internals; client reads go through :meth:`get`.
        ``include_tombstones`` exposes deletion markers: the write path needs
        them so a re-created key's version advances past its tombstone's —
        otherwise a delete and a re-create issued at the same simulated time
        tie under last-write-wins and replicas keep whichever arrived last.
        """
        if not self._alive:
            raise NodeDownError(f"node {self.node_id} is down")
        store = self._namespaces.get(namespace)
        value = store._data.get(key) if store is not None else None
        if value is not None and value.tombstone and not include_tombstones:
            return None
        return value

    def get(self, namespace: str, key: Key, now: float) -> Tuple[Optional[VersionedValue], float]:
        """Point read.  Returns (value-or-None, simulated service latency)."""
        if not self._alive:
            raise NodeDownError(f"node {self.node_id} is down")
        validate_key(key)
        self._record_arrival(now)
        store = self._namespaces.get(namespace)
        value = store._data.get(key) if store is not None else None
        if value is not None and value.tombstone:
            value = None
        return value, self._latency.sample(self._rng)

    def multi_get(
        self, namespace: str, keys: List[Key], now: float,
    ) -> Tuple[Dict[Key, Optional[VersionedValue]], float]:
        """Batched point read: one request's worth of load, many keys.

        The query layer's bounded dereference lists arrive as a single
        multiget, so the node charges its load model one arrival — not one
        per key — and adds a small per-key marginal cost, like adjacent
        rows in a range scan.  Returns ({key: value-or-None}, latency).
        """
        if not self._alive:
            raise NodeDownError(f"node {self.node_id} is down")
        self._record_arrival(now)
        store = self._namespaces.get(namespace)
        stored = (store._data if store is not None else {}).get
        out: Dict[Key, Optional[VersionedValue]] = {}
        for key in keys:
            validate_key(key)
            value = stored(key)
            if value is not None and value.tombstone:
                value = None
            out[key] = value
        per_key_cost = 0.00002  # 20 microseconds per additional key
        latency = self._latency.sample(self._rng) + per_key_cost * max(len(keys) - 1, 0)
        return out, latency

    def put(self, namespace: str, key: Key, value: VersionedValue, now: float) -> float:
        """Point write.  Returns the simulated service latency."""
        if not self._alive:
            raise NodeDownError(f"node {self.node_id} is down")
        validate_key(key)
        self._record_arrival(now)
        store = self._namespaces.get(namespace)
        if store is None:
            store = self._namespaces[namespace] = _NamespaceStore()
        store._data[key] = value
        return self._latency.sample(self._rng)

    def apply_replica_write(self, namespace: str, key: Key, value: VersionedValue) -> bool:
        """Apply an asynchronously replicated write, respecting last-write-wins.

        Replica application does not count against the node's request load —
        in a real system it rides the background replication path.  Returns
        True if the value was applied, False if a newer value was already
        present.
        """
        if not self._alive:
            raise NodeDownError(f"node {self.node_id} is down")
        store = self._namespaces.get(namespace)
        if store is None:
            store = self._namespaces[namespace] = _NamespaceStore()
        # One probe fetches the current version for last-write-wins; the
        # store is then written in place.
        data = store._data
        current = data.get(key)
        if current is not None and not value.wins_over(current):
            return False
        data[key] = value
        return True

    def delete(self, namespace: str, key: Key, tombstone: VersionedValue, now: float) -> float:
        """Delete via tombstone so replication can propagate the deletion."""
        self._check_alive()
        validate_key(key)
        self._record_arrival(now)
        self._store(namespace).put(key, tombstone)
        return self.service_time()

    def get_range(
        self,
        key_range: KeyRange,
        now: float,
        limit: Optional[int] = None,
        reverse: bool = False,
    ) -> Tuple[List[Tuple[Key, VersionedValue]], float]:
        """Bounded contiguous range read — the only scan SCADS queries perform.

        Latency scales mildly with the number of returned entries (sequential
        reads of adjacent keys), preserving the paper's claim that bounded
        ranges keep per-query cost constant as the *user base* grows.
        """
        self._check_alive()
        self._record_arrival(now)
        rows = self._store(key_range.namespace).range(
            key_range.start, key_range.end, limit, reverse)
        per_row_cost = 0.00002  # 20 microseconds per adjacent row
        latency = self.service_time() + per_row_cost * len(rows)
        return rows, latency

    def scan_namespace(self, namespace: str) -> List[Tuple[Key, VersionedValue]]:
        """Every stored (key, version) pair of one namespace, tombstones
        included, in storage order (not key order: it sorts nothing).  Used
        only for data movement and tests."""
        self._check_alive()
        return list(self._store(namespace)._data.items())

    def namespaces(self) -> List[str]:
        return sorted(self._namespaces.keys())

    def key_count(self) -> int:
        """Number of live keys stored."""
        return sum(len(store) for store in self._namespaces.values())
