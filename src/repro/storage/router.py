"""Request router: the storage substrate's client-facing read/write path.

The router translates logical operations (get, put, bounded range read) into
node interactions: it consults the partitioner, picks a replica, adds network
hops and node service time, performs asynchronous or quorum replication, and
reports per-request latency and success.  A range read lies under one
partition key (:func:`~repro.storage.records.range_lead`), so like a get it
reads one replica group.  Session guarantees and consistency policy live one
layer up (``repro.core.consistency``); the router only offers the mechanisms
they need (read-from-primary, quorum writes, version metadata).

When a targeted migration is in flight for a key (see
``repro.storage.cluster.MigrationRecord``), requests against it are
*dual-routed* instead of dropped: reads prefer the new owner but fall back to
the source group (which keeps its copies until the migration completes), and
writes land at the new owner and are mirrored to the source so fallback reads
never serve a value older than the migration cut-over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.network import NetworkPartitionError
from repro.storage.cluster import Cluster
from repro.storage.node import NodeDownError
from repro.storage.records import Key, KeyRange, VersionedValue, range_lead
from repro.storage.replication import ReplicaGroup

CLIENT_ENDPOINT = "client"


@dataclass(slots=True)
class RequestResult:
    """Outcome of one routed request.

    ``rows`` defaults to a shared empty tuple: one result is allocated per
    routed request, and only range reads carry rows, so point ops skip the
    per-result list allocation.
    """

    success: bool
    latency: float
    value: Optional[VersionedValue] = None
    rows: Sequence[Tuple[Key, VersionedValue]] = ()
    node_id: Optional[str] = None
    error: Optional[str] = None


@dataclass(slots=True, eq=False)
class ReadOutcome:
    """What one storage request of :meth:`Router.read_many` returned.

    One outcome is shared by every key the request served: a per-group
    multiget carries the whole batch in ``values``, a dual-routed single-key
    fallback carries one key.  ``group`` is the replica group that owns the
    keys *now* (for a key under migration the serving ``node_id`` may belong
    to the source group instead); everything except ``values`` is a fact
    about the request, not about a key, so a caller checking the read
    resolves it once per outcome.
    """

    success: bool
    latency: float
    values: Dict[Key, Optional[VersionedValue]]
    group: ReplicaGroup
    node_id: Optional[str] = None
    error: Optional[str] = None


class Router:
    """Routes client operations onto the simulated cluster."""

    # How many replica-choice indices to pre-draw per group size.
    CHOICE_BLOCK = 1024

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        self._sim = cluster.sim
        # The cluster's clock, node map, network, partitioner, group map,
        # replication engine and migration list are stable objects (mutated
        # in place, never replaced); direct references skip an attribute
        # chase — or a whole delegating call — on every routed request.
        self._clock = cluster.sim.clock
        self._replication = cluster.replication
        self._nodes = cluster.nodes
        self._network = cluster.network
        self._partitioner = cluster.partitioner
        self._groups = cluster.groups
        self._migrations = cluster._migrations  # noqa: SLF001 - same subsystem
        self._read_rng = cluster.sim.random.get("router:replica-choice")
        self._ops = {"read": 0, "write": 0, "range": 0, "failed": 0}
        # group_id -> (node_ids list object, rotations) — see _read_candidates.
        self._rotation_cache: Dict[str, Tuple[List[str], Tuple[Tuple[str, ...], ...]]] = {}
        # group size -> [pre-drawn index block, cursor] for replica choice.
        self._choice_pools: Dict[int, list] = {}
        # (payload, writer, version, tombstone) -> the one VersionedValue an
        # int or None payload written at ``_shared_at`` shares; see write().
        self._shared: Dict[tuple, VersionedValue] = {}
        self._shared_at: Optional[float] = None
        # Observability: None (the default) keeps tracing fully off the hot
        # path — the per-op cost of disabled tracing is one attribute load.
        self._tracer = None

    def attach_tracer(self, tracer) -> None:
        """Attach an ``obs.Tracer``; spans are recorded only while it has an
        open trace (it samples deterministically, consuming no randomness)."""
        self._tracer = tracer

    # ------------------------------------------------------------------ writes

    def write(
        self,
        namespace: str,
        key: Key,
        payload: Any,
        writer: str = "",
        write_quorum: int = 1,
        tombstone: bool = False,
    ) -> RequestResult:
        """Write ``payload`` under ``key``.

        ``write_quorum=1`` is the default lazy path: the primary acknowledges
        and replication is asynchronous.  A larger quorum waits for that many
        replicas synchronously (serializable / Dynamo-style writes).

        This is where a routed write builds its :class:`VersionedValue`.  An
        ``int`` or ``None`` payload (index support counts, reverse-entry 1s,
        tombstones) gets the one frozen version every write of the same
        ``(payload, writer, version, tombstone)`` at this simulated instant
        shares; versions are compared by value, never by identity, so
        sharing them changes nothing but the memory they take.  Entity rows
        are read-only mappings and keep a version of their own.
        """
        now = self._clock.now
        token = str(key[0])  # partition_token(key), inlined for the hot path
        group = self._groups[self._partitioner.group_for_token(token)]
        tracker = self._cluster._load_tracker  # noqa: SLF001 - router feeds it
        if tracker is not None:
            tracker.note(token, True, now)
        in_flight = self._migrations
        migrations = ([record for record in in_flight if token in record.tokens]
                      if in_flight else ())
        primary_id = group.primary
        primary = self._nodes[primary_id]
        ops = self._ops
        ops["write"] += 1
        try:
            client_hop = self._network.delay(CLIENT_ENDPOINT, primary_id)
        except NetworkPartitionError:
            ops["failed"] += 1
            return RequestResult(success=False, latency=0.0, error="client partitioned from primary")
        # The primary's current version, tombstones included: re-creating a
        # deleted key must get a version strictly greater than the
        # tombstone's so it wins last-write-wins ties on every replica.  A
        # down primary has no say (its put below raises NodeDownError).
        current = None
        if primary._alive:  # noqa: SLF001 - same subsystem
            store = primary._namespaces.get(namespace)  # noqa: SLF001
            if store is not None:
                current = store._data.get(key)  # noqa: SLF001
        version = (current.version + 1) if current is not None else 1
        if payload is None or type(payload) is int:  # not bool: True == 1
            shared = self._shared
            if now != self._shared_at:
                shared.clear()
                self._shared_at = now
            fields = (payload, writer, version, tombstone)
            versioned = shared.get(fields)
            if versioned is None:
                versioned = shared[fields] = VersionedValue(
                    payload, now, writer, version, tombstone)
        else:
            versioned = VersionedValue(payload, now, writer, version, tombstone)
        tracer = self._tracer
        traced = tracer is not None and tracer.active
        try:
            service = primary.put(namespace, key, versioned, now)
        except NodeDownError:
            fallback = self._migration_write_fallback(
                migrations, group, namespace, key, versioned, now)
            if fallback is not None:
                if traced:
                    # The fallback's hop/service split is internal to it;
                    # one timed dual_route span keeps the trace reconciled.
                    tracer.add("dual_route", fallback.latency,
                               detail="write accepted at migration source")
                return fallback
            ops["failed"] += 1
            if traced:
                tracer.add("network", client_hop, detail="primary down")
            return RequestResult(success=False, latency=client_hop, error="primary down",
                                 node_id=primary_id)

        if traced:
            queue_wait, base_service = primary.split_service(service)
            tracer.add("network", 2.0 * client_hop, detail=primary_id)
            tracer.add("queue", queue_wait)
            tracer.add("service", base_service)
            if migrations:
                tracer.add("dual_route", 0.0, detail="write mirrored to migration source")
        latency = 2.0 * client_hop + service
        if write_quorum > 1:
            acks, sync_latency = self._replication.synchronous_write(
                group, namespace, key, versioned, write_quorum, now
            )
            latency += sync_latency
            if traced:
                tracer.add("replication_ack", sync_latency,
                           detail=f"{acks}/{write_quorum} acks")
            if acks < write_quorum:
                ops["failed"] += 1
                return RequestResult(
                    success=False,
                    latency=latency,
                    node_id=primary_id,
                    error=f"only {acks}/{write_quorum} write acks",
                )
            # Remaining replicas still receive the write lazily.
        self._replication.propagate(group, namespace, key, versioned)
        if migrations:
            self._mirror_to_migration_sources(migrations, group, namespace, key, versioned)
        return RequestResult(success=True, latency=latency, value=versioned,
                             node_id=primary_id)

    def delete(self, namespace: str, key: Key, writer: str = "") -> RequestResult:
        """Delete a key (tombstone write so the deletion replicates)."""
        return self.write(namespace, key, payload=None, writer=writer, tombstone=True)

    # ------------------------------------------------------------------- reads

    def read(
        self,
        namespace: str,
        key: Key,
        from_primary: bool = False,
        read_quorum: int = 1,
    ) -> RequestResult:
        """Point read.

        ``from_primary`` forces the read to the primary (used to honour
        read-your-writes when a replica is behind).  ``read_quorum > 1`` reads
        that many replicas and returns the newest version (Dynamo-style R).
        """
        now = self._clock.now
        token = str(key[0])  # partition_token(key), inlined for the hot path
        group = self._groups[self._partitioner.group_for_token(token)]
        tracker = self._cluster._load_tracker  # noqa: SLF001 - router feeds it
        if tracker is not None:
            tracker.note(token, False, now)
        self._ops["read"] += 1
        if read_quorum > 1:
            return self._quorum_read(group, namespace, key, read_quorum, now)
        candidates = (group.primary,) if from_primary else self._read_candidates(group)
        # Dual-route: every migration source still holding in-flight copies
        # backstops the new owner, newest cut-over first (chained migrations
        # can leave several sources with copies of the same key).
        in_flight = self._migrations
        if in_flight:
            migrations = [record for record in in_flight if token in record.tokens]
            for source in self._migration_source_groups(migrations, group):
                candidates = candidates + (
                    (source.primary,) if from_primary else self._read_candidates(source)
                )
        last_error = "no replica available"
        for node_id in candidates:
            node = self._nodes.get(node_id)
            if node is None or not node.alive:
                last_error = f"node {node_id} down"
                continue
            if node.draining:
                last_error = f"node {node_id} draining"
                continue
            try:
                hop = self._network.delay(CLIENT_ENDPOINT, node_id)
                value, service = node.get(namespace, key, now)
            except NetworkPartitionError:
                last_error = f"client partitioned from {node_id}"
                continue
            except NodeDownError:
                last_error = f"node {node_id} down"
                continue
            tracer = self._tracer
            if tracer is not None and tracer.active:
                queue_wait, base_service = node.split_service(service)
                tracer.add("network", 2.0 * hop, detail=node_id)
                tracer.add("queue", queue_wait)
                tracer.add("service", base_service)
                if node_id not in group.node_ids:
                    tracer.add("dual_route", 0.0,
                               detail="served by migration source replica")
            return RequestResult(success=True, latency=2.0 * hop + service,
                                 value=value, node_id=node_id)
        self._ops["failed"] += 1
        return RequestResult(success=False, latency=0.0, error=last_error)

    def read_one(self, namespace: str, key: Key) -> ReadOutcome:
        """:meth:`read` as a one-key :class:`ReadOutcome` — the dual-routed
        single-key path in the shape :meth:`read_many` returns."""
        result = self.read(namespace, key)
        group = self._groups[self._partitioner.group_for_token(str(key[0]))]
        return ReadOutcome(result.success, result.latency, {key: result.value},
                           group, result.node_id, result.error)

    def read_many(self, namespace: str, keys: Sequence[Key]) -> Dict[Key, ReadOutcome]:
        """Batched point reads: one storage request per replica group.

        The query layer dereferences a bounded list of index entries; issuing
        them as per-group multigets matches the paper's parallel bounded
        lookup and charges each node one request per batch instead of one per
        key — without it, every query amplifies into ~``limit`` independent
        node requests and a handful of nodes can saturate a cluster whose
        per-key demand is modest.  Groups are contacted in parallel (client
        waits for the slowest batch).  Keys under an in-flight migration, and
        any batch with no live replica, fall back to the dual-routed
        single-key path (:meth:`read_one`).

        The batch is the unit of the result too: every distinct key maps to
        the :class:`ReadOutcome` of the request that served it, and the keys
        of one multiget share one outcome object (group, serving node,
        latency, ``{key: value}``) — nothing is allocated per key.  What is
        per key is only ``outcome.values[key]``.
        """
        now = self._clock.now
        tracker = self._cluster._load_tracker  # noqa: SLF001 - router feeds it
        in_flight = self._migrations
        group_for_token = self._partitioner.group_for_token
        results: Dict[Key, ReadOutcome] = {}
        by_group: Dict[str, Tuple[List[Key], List[str]]] = {}  # keys, their tokens
        # De-duplicated up front: one fetch serves every occurrence of a key.
        for key in dict.fromkeys(keys):
            token = str(key[0])  # partition_token(key), inlined for the hot path
            if in_flight and any(token in record.tokens for record in in_flight):
                results[key] = self.read_one(namespace, key)
                continue
            group_id = group_for_token(token)
            batch = by_group.get(group_id)
            if batch is None:
                by_group[group_id] = ([key], [token])
            else:
                batch[0].append(key)
                batch[1].append(token)
        ops = self._ops
        for group_id, (group_keys, tokens) in by_group.items():
            group = self._groups[group_id]
            ops["read"] += 1
            served = False
            for node_id in self._read_candidates(group):
                node = self._nodes.get(node_id)
                if node is None or not node._alive or node._draining:  # noqa: SLF001
                    continue
                try:
                    hop = self._network.delay(CLIENT_ENDPOINT, node_id)
                    values, service = node.multi_get(namespace, group_keys, now)
                except (NetworkPartitionError, NodeDownError):
                    continue
                latency = 2.0 * hop + service
                tracer = self._tracer
                if tracer is not None and tracer.active:
                    # Batches run in parallel; the query layer composes them
                    # by max and replaces these with one aggregate span.
                    tracer.add("multiget", latency,
                               detail=f"group={group_id} keys={len(group_keys)} via {node_id}")
                outcome = ReadOutcome(True, latency, values, group, node_id)
                for key in group_keys:
                    results[key] = outcome
                if tracker is not None:
                    tracker.note_reads(tokens, now)
                served = True
                break
            if not served:
                # No live replica took the batch; the single-key path knows
                # the migration fallbacks and error shapes.
                for key in group_keys:
                    results[key] = self.read_one(namespace, key)
        return results

    def read_range(
        self,
        key_range: KeyRange,
        limit: Optional[int] = None,
        from_primary: bool = False,
        reverse: bool = False,
    ) -> RequestResult:
        """Bounded contiguous range read — the only scan the query layer issues.

        The range lies under one partition key (:func:`range_lead`, which
        raises ``ValueError`` for a range spanning several), so one replica
        group answers it.  Its rows are handed through as the serving node
        built them: in scan order, bounded by ``limit``, the list itself and
        not a copy.
        """
        now = self._sim.now
        token = str(range_lead(key_range.start, key_range.end))
        group = self._groups[self._partitioner.group_for_token(token)]
        self._ops["range"] += 1
        tracer = self._tracer
        traced = tracer is not None and tracer.active
        candidates = (group.primary,) if from_primary else self._read_candidates(group)
        for node_id in candidates:
            node = self._nodes.get(node_id)
            if node is None or not node.alive or node.draining:
                continue
            try:
                hop = self._network.delay(CLIENT_ENDPOINT, node_id)
                rows, service = node.get_range(key_range, now, limit, reverse)
            except (NetworkPartitionError, NodeDownError):
                continue
            if traced:
                queue_wait, base_service = node.split_service(service)
                tracer.add("network", 2.0 * hop,
                           detail=f"group={group.group_id} via {node_id}")
                tracer.add("queue", queue_wait)
                tracer.add("service", base_service)
            latency = 2.0 * hop + service
            break
        else:
            rows, latency = self._range_migration_fallback(group, token, key_range,
                                                           now, limit, reverse)
            if rows is None:
                self._ops["failed"] += 1
                return RequestResult(success=False, latency=0.0,
                                     error=f"range unavailable in group {group.group_id}")
            if traced:
                tracer.add("dual_route", latency,
                           detail=f"range for group={group.group_id} "
                                  "served by migration source")
        cluster = self._cluster
        if cluster._load_tracker is not None:  # noqa: SLF001 - router feeds it
            # Range scans are real partition load too: charge the range's
            # partition, so query-heavy workloads are visible to the
            # repartitioner.
            cluster.note_access(key_range.namespace, (token,),
                                is_write=False, token=token)
        return RequestResult(success=True, latency=latency, rows=rows)

    # ------------------------------------------------- migration dual-routing

    def _migration_source_groups(self, migrations, group: ReplicaGroup):
        """Distinct live source groups still holding in-flight copies,
        newest cut-over first, excluding the current owner."""
        sources = []
        seen = {group.group_id}
        for record in reversed(migrations):
            source = self._cluster.groups.get(record.source_group)
            if source is None or source.group_id in seen:
                continue
            seen.add(source.group_id)
            sources.append(source)
        return sources

    def _mirror_to_migration_sources(self, migrations, group: ReplicaGroup,
                                     namespace: str, key: Key,
                                     versioned: VersionedValue) -> None:
        """Mirror an accepted write onto every migration source group.

        Fallback reads served from a source during the in-flight window must
        not miss writes accepted at the new owner; the mirror rides the
        background replication path (no extra client latency).
        """
        for source in self._migration_source_groups(migrations, group):
            for node_id in source.node_ids:
                node = self._nodes.get(node_id)
                if node is not None and node.alive:
                    node.apply_replica_write(namespace, key, versioned)

    def _migration_write_fallback(self, migrations, group: ReplicaGroup,
                                  namespace: str, key: Key,
                                  versioned: VersionedValue,
                                  now: float) -> Optional[RequestResult]:
        """Accept a write at a migration source when the new primary is down.

        The value is also pushed to the target's surviving replicas (with a
        retrying propagation for its downed nodes) so it is not lost when the
        source copies are reclaimed at migration completion.
        """
        for source in self._migration_source_groups(migrations, group):
            source_primary = self._nodes.get(source.primary)
            if source_primary is None or not source_primary.alive:
                continue
            # The version computed against the down target primary is
            # meaningless (peek saw nothing); re-derive it from the source,
            # which holds the migrated copy, so version order is preserved
            # for session guarantees and staleness checks.
            current = source_primary.peek(namespace, key, include_tombstones=True)
            if current is not None and current.version >= versioned.version:
                versioned = VersionedValue(
                    value=versioned.value,
                    timestamp=versioned.timestamp,
                    writer=versioned.writer,
                    version=current.version + 1,
                    tombstone=versioned.tombstone,
                )
            try:
                hop = self._network.delay(CLIENT_ENDPOINT, source.primary)
                service = source_primary.put(namespace, key, versioned, now)
            except (NetworkPartitionError, NodeDownError):
                continue
            # The downed target node (often the primary that forced this
            # fallback) must still receive the write once it recovers, or
            # source reclamation at completion would lose it.
            self._cluster.deliver(group, source.primary, namespace, key, versioned)
            self._replication.propagate(source, namespace, key, versioned)
            return RequestResult(success=True, latency=2.0 * hop + service,
                                 value=versioned, node_id=source.primary)
        return None

    def _range_migration_fallback(self, group: ReplicaGroup, token: str,
                                  key_range: KeyRange, now: float,
                                  limit: Optional[int], reverse: bool):
        """Serve a range from a migration source when the owning group cannot.

        Every range lies under one partition ``token``; the source holds
        every key of an in-flight token, so its answer for the range is
        complete.
        """
        for record in self._cluster.active_migrations():
            if record.target_group != group.group_id or token not in record.tokens:
                continue
            source = self._cluster.groups.get(record.source_group)
            if source is None:
                continue
            for node_id in self._read_candidates(source):
                node = self._nodes.get(node_id)
                if node is None or not node.alive or node.draining:
                    continue
                try:
                    hop = self._network.delay(CLIENT_ENDPOINT, node_id)
                    rows, service = node.get_range(key_range, now, limit, reverse)
                except (NetworkPartitionError, NodeDownError):
                    continue
                return rows, 2.0 * hop + service
        return None, 0.0

    # ----------------------------------------------------------------- helpers

    def _read_candidates(self, group: ReplicaGroup) -> Tuple[str, ...]:
        """Replica preference order for a read: a random replica, then the rest.

        Allocation-free on the hot path: every rotation of a group's replica
        list is built once and cached (keyed by the ``node_ids`` list object,
        whose identity changes if membership is ever replaced), and the
        random starting index comes from a pre-drawn block per group size
        instead of a scalar generator call per read.
        """
        node_ids = group.node_ids
        n = len(node_ids)
        if n <= 1:
            return tuple(node_ids)
        cached = self._rotation_cache.get(group.group_id)
        if cached is None or cached[0] is not node_ids or len(cached[1]) != n:
            rotations = tuple(
                tuple(node_ids[start:]) + tuple(node_ids[:start]) for start in range(n)
            )
            self._rotation_cache[group.group_id] = (node_ids, rotations)
        else:
            rotations = cached[1]
        pool = self._choice_pools.get(n)
        if pool is None or pool[1] >= self.CHOICE_BLOCK:
            # .tolist(): plain ints index the rotation tuple faster than np.int64.
            pool = [self._read_rng.integers(0, n, size=self.CHOICE_BLOCK).tolist(), 0]
            self._choice_pools[n] = pool
        start = pool[0][pool[1]]
        pool[1] += 1
        return rotations[start]

    def _quorum_read(
        self,
        group: ReplicaGroup,
        namespace: str,
        key: Key,
        read_quorum: int,
        now: float,
    ) -> RequestResult:
        if read_quorum > group.replication_factor:
            return RequestResult(
                success=False, latency=0.0,
                error=f"read quorum {read_quorum} exceeds replication factor",
            )
        # During an in-flight migration the source groups' copies count
        # toward the quorum too — in-flight keys are dual-routed, not dropped.
        node_ids = list(group.node_ids)
        for source in self._migration_source_groups(
                self._cluster.migrations_for_key(namespace, key), group):
            node_ids.extend(source.node_ids)
        responses: List[Tuple[Optional[VersionedValue], float, str]] = []
        splits: List[Tuple[float, float, float]] = []  # (2*hop, queue, service)
        tracer = self._tracer
        traced = tracer is not None and tracer.active
        for node_id in node_ids:
            if len(responses) >= read_quorum:
                break
            node = self._nodes.get(node_id)
            if node is None or not node.alive or node.draining:
                continue
            try:
                hop = self._network.delay(CLIENT_ENDPOINT, node_id)
                value, service = node.get(namespace, key, now)
            except (NetworkPartitionError, NodeDownError):
                continue
            if traced:
                queue_wait, base_service = node.split_service(service)
                splits.append((2.0 * hop, queue_wait, base_service))
            responses.append((value, 2.0 * hop + service, node_id))
        if len(responses) < read_quorum:
            self._ops["failed"] += 1
            return RequestResult(success=False, latency=0.0,
                                 error=f"only {len(responses)}/{read_quorum} read responses")
        latency = max(latency for _, latency, _ in responses)
        if traced:
            # Quorum legs run in parallel: the slowest leg is on-path, the
            # others are kept off-path for context.
            winner = max(range(len(responses)), key=lambda i: responses[i][1])
            for i, (net, queue_wait, base_service) in enumerate(splits):
                off = i != winner
                leg = responses[i][2]
                tracer.add("network", net, detail=f"quorum leg {leg}", off_path=off)
                tracer.add("queue", queue_wait, off_path=off)
                tracer.add("service", base_service, off_path=off)
        newest: Optional[VersionedValue] = None
        newest_node = None
        for value, _, node_id in responses:
            if value is not None and value.wins_over(newest):
                newest = value
                newest_node = node_id
        return RequestResult(success=True, latency=latency, value=newest, node_id=newest_node)

    # ------------------------------------------------------------------- stats

    def op_counts(self) -> Dict[str, int]:
        """Counters of routed operations, used by workload accounting."""
        return dict(self._ops)
