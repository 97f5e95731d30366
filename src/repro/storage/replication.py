"""Replica groups and the lazy replication engine.

Writes are accepted at a replica group's primary and propagated to the other
replicas asynchronously.  Propagation delay is the sum of a network hop and a
configurable replication processing delay.  A write in flight is one
:class:`PropagationRecord` holding its deliveries in due order, with one
queued event: the record fires at each delivery's due time in turn.  Each
completed delivery is reported to the registered lag listeners, and the
engine keeps the all-time maximum lag, so that the staleness-bound
experiments (E4) and the read-consistency axis of Figure 4 can measure actual
replication lag rather than assume it.

Quorum writes (used to implement the "serializable" end of the write-
consistency axis and as the Dynamo-style baseline) wait for ``W`` replicas
synchronously, paying the extra latency up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.network import NetworkModel, NetworkPartitionError
from repro.sim.simulator import Simulator
from repro.storage.node import NodeDownError, StorageNode
from repro.storage.records import Key, VersionedValue


# Per-write replication processing time at the replica, on top of the hop.
PROCESSING_DELAY = 0.002


@dataclass
class ReplicaGroup:
    """A set of storage nodes holding copies of the same key ranges."""

    group_id: str
    node_ids: List[str]

    @property
    def primary(self) -> str:
        """The node that accepts writes for this group."""
        if not self.node_ids:
            raise ValueError(f"replica group {self.group_id} has no nodes")
        return self.node_ids[0]

    @property
    def replication_factor(self) -> int:
        return len(self.node_ids)


class PropagationRecord:
    """One write's deliveries to its replicas, in due order — and the action
    that performs them.

    The record is the callable the simulator fires, and one event of it is
    queued at a time: at its current delivery's due time.  Firing applies
    that delivery and queues the record again at the next one's due time, so
    a write in flight costs one object and one heap entry however many
    replicas it reaches.  The next delivery sits in ``_next_id`` and
    ``_next_due`` (a replication factor of three has at most two
    deliveries); a larger group's further ones wait in ``_later``, a list of
    ``(due, replica_id)`` with the next at its end.  A delivery that finds
    its replica down splits off on a record of its own, which retries it,
    while the rest stay on time here.  A record with one delivery left is the
    one that retries it: the engine schedules the same object for every
    ``replicate-retry`` wait and every re-attempt.

    ``namespace``, ``key``, ``write_time``, ``replica_id`` and
    ``applied_time`` (None until applied) are what lag listeners read, of the
    delivery just applied: once the listeners return, the record moves on to
    its next delivery.  The underscored slots are the engine's delivery state.
    """

    __slots__ = ("namespace", "key", "write_time", "replica_id", "applied_time",
                 "_engine", "_value", "_source_id", "_retries_left",
                 "_awaiting_retry", "_next_id", "_next_due", "_later")

    def __init__(
        self,
        engine: "ReplicationEngine",
        namespace: str,
        key: Key,
        value: VersionedValue,
        write_time: float,
        source_id: str,
        replica_id: str,
        retries_left: int,
    ) -> None:
        self.namespace = namespace
        self.key = key
        self.write_time = write_time
        self.replica_id = replica_id
        self.applied_time: Optional[float] = None
        self._engine = engine
        self._value = value
        self._source_id = source_id
        self._retries_left = retries_left
        self._awaiting_retry = False
        self._next_id: Optional[str] = None
        self._next_due: Optional[float] = None
        self._later: Optional[List[Tuple[float, str]]] = None

    @property
    def lag(self) -> Optional[float]:
        """Replication lag in seconds, or None if not yet applied."""
        if self.applied_time is None:
            return None
        return self.applied_time - self.write_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PropagationRecord(namespace={self.namespace!r}, key={self.key!r}, "
                f"write_time={self.write_time!r}, replica_id={self.replica_id!r}, "
                f"applied_time={self.applied_time!r}, next_id={self._next_id!r})")

    def __call__(self) -> None:
        """Fire: end a retry wait by re-attempting, else deliver to the current
        replica and queue the next delivery, if any."""
        engine = self._engine
        namespace = self.namespace
        if self._awaiting_retry:
            self._awaiting_retry = False
            engine._schedule_apply(self, engine._event_names[namespace])
            return
        node = engine._nodes.get(self.replica_id)
        if node is None:
            # Replica left the cluster for good (decommission or spot
            # drain/hibernate detach); ownership moved with it, so the
            # copy is moot — drop instead of retrying into the void.
            engine._pending -= 1
        elif not node._alive:  # noqa: SLF001 - same subsystem
            if self._next_id is None:
                engine._schedule_retry(self)
                return
            engine._schedule_retry(PropagationRecord(
                engine, namespace, self.key, self._value, self.write_time,
                self._source_id, self.replica_id, self._retries_left))
        else:
            node.apply_replica_write(namespace, self.key, self._value)
            now = self.applied_time = engine._clock.now
            engine._pending -= 1
            lag = now - self.write_time
            if lag > engine._max_lag:
                engine._max_lag = lag
            for listener in engine._lag_listeners:
                listener(self)
        next_id = self._next_id
        if next_id is None:
            return
        due = self._next_due
        self.replica_id = next_id
        self.applied_time = None
        later = self._later
        if later:
            self._next_due, self._next_id = later.pop()
        else:
            self._next_id = None
        engine._sim.schedule_at(due, self, engine._event_names[namespace])


class ReplicationEngine:
    """Propagates primary writes to replicas asynchronously.

    Args:
        simulator: the discrete-event simulator used to schedule propagation.
        network: network model supplying hop delays and partitions.
        nodes: mapping from node id to :class:`StorageNode`.
    """

    # How long to wait before retrying a propagation that failed because of
    # a partition or a crashed replica, and how many retries one delivery gets.
    retry_interval = 1.0
    max_retries = 100

    def __init__(self, simulator: Simulator, network: NetworkModel,
                 nodes: Dict[str, StorageNode]) -> None:
        self._sim = simulator
        self._clock = simulator.clock
        self._network = network
        self._nodes = nodes
        # Completed propagations keep only an all-time running max: keeping
        # every PropagationRecord alive forever made long closed-loop runs
        # accumulate millions of gc-tracked objects.
        self._max_lag: float = 0.0
        self._pending: int = 0
        self._lag_listeners: List[Callable[[PropagationRecord], None]] = []
        # namespace -> "replicate:<namespace>", formatted once per namespace.
        self._event_names: Dict[str, str] = {}

    # -------------------------------------------------------------- listeners

    def add_lag_listener(self, listener: Callable[[PropagationRecord], None]) -> None:
        """Register a callback invoked whenever a propagation completes."""
        self._lag_listeners.append(listener)

    # ------------------------------------------------------------ propagation

    def propagate(
        self,
        group: ReplicaGroup,
        namespace: str,
        key: Key,
        value: VersionedValue,
    ) -> None:
        """Schedule asynchronous propagation of a primary write to all replicas.

        Every replica's hop is drawn now, in node order, and each delivery is
        due ``now + (hop + PROCESSING_DELAY)``; the deliveries share one
        record, queued at the earliest due time (ties in node order).  A
        partitioned replica retries on a record of its own at once.
        """
        node_ids = group.node_ids
        primary_id = node_ids[0]
        now = self._clock.now
        name = self._event_name(namespace)
        nodes = self._nodes
        delay = self._network.delay
        max_retries = self.max_retries
        first_id = second_id = later = None
        first_due = second_due = 0.0
        for i in range(1, len(node_ids)):
            replica_id = node_ids[i]
            replica = nodes.get(replica_id)
            if replica is not None and replica._draining:  # noqa: SLF001 - same subsystem
                # Draining replicas accept no new writes: they are about to
                # detach (spot interruption) and will catch up from the
                # primary if they ever rejoin, so shipping them updates now
                # only races the drain deadline.
                continue
            self._pending += 1
            try:
                due = now + (delay(primary_id, replica_id) + PROCESSING_DELAY)
            except NetworkPartitionError:
                self._schedule_retry(PropagationRecord(
                    self, namespace, key, value, now, primary_id, replica_id,
                    max_retries))
                continue
            if first_id is None:
                first_id, first_due = replica_id, due
            elif second_id is None:
                second_id, second_due = replica_id, due
            elif later is None:
                later = [(first_due, first_id), (second_due, second_id),
                         (due, replica_id)]
            else:
                later.append((due, replica_id))
        if first_id is None:
            return
        record = PropagationRecord(self, namespace, key, value, now, primary_id,
                                   first_id, max_retries)
        if later is not None:
            later.sort(key=itemgetter(0))  # stable: equal due times stay in node order
            first_due, record.replica_id = later[0]
            record._next_due, record._next_id = later[1]
            del later[:2]
            later.reverse()
            record._later = later
        elif second_id is not None:
            if second_due < first_due:
                record.replica_id = second_id
                record._next_id, record._next_due = first_id, first_due
                first_due = second_due
            else:
                record._next_id, record._next_due = second_id, second_due
        self._sim.schedule_at(first_due, record, name)

    def replicate_to(
        self,
        source_id: str,
        replica_id: str,
        namespace: str,
        key: Key,
        value: VersionedValue,
    ) -> PropagationRecord:
        """Propagate one write to one specific node, with the retry loop.

        Used by ``Cluster.deliver`` for a member that is down when moved data
        (or a write accepted at a migration source) reaches its group: the
        value must still arrive once the node recovers, or reclamation of the
        source copies would lose it.
        """
        record = PropagationRecord(self, namespace, key, value, self._clock.now,
                                   source_id, replica_id, self.max_retries)
        self._pending += 1
        self._schedule_apply(record, self._event_name(namespace))
        return record

    def _event_name(self, namespace: str) -> str:
        name = self._event_names.get(namespace)
        if name is None:
            name = self._event_names[namespace] = f"replicate:{namespace}"
        return name

    def _schedule_apply(self, record: PropagationRecord, name: str) -> None:
        """Draw the hop for one delivery attempt and schedule ``record``."""
        try:
            hop = self._network.delay(record._source_id, record.replica_id)
        except NetworkPartitionError:
            self._schedule_retry(record)
            return
        self._sim.schedule(hop + PROCESSING_DELAY, record, name=name)

    def _schedule_retry(self, record: PropagationRecord) -> None:
        """Re-arm ``record``, down to its one delivery, to re-attempt after the
        retry interval."""
        if record._retries_left <= 0:
            # Give up; the record stays un-applied and shows up as unbounded lag.
            self._pending -= 1
            return
        record._retries_left -= 1
        record._awaiting_retry = True
        self._sim.schedule(self.retry_interval, record, name="replicate-retry")

    # --------------------------------------------------------------- sync path

    def synchronous_write(
        self,
        group: ReplicaGroup,
        namespace: str,
        key: Key,
        value: VersionedValue,
        write_quorum: int,
        now: float,
    ) -> Tuple[int, float]:
        """Write to ``write_quorum`` replicas synchronously.

        Returns (acks, added_latency).  The added latency is the slowest of
        the contacted replicas' round trips (the client waits for the quorum).
        Used for serializable writes and the quorum-store baseline.
        """
        if write_quorum < 1:
            raise ValueError(f"write quorum must be >= 1, got {write_quorum}")
        if write_quorum > group.replication_factor:
            raise ValueError(
                f"write quorum {write_quorum} exceeds replication factor "
                f"{group.replication_factor}"
            )
        acks = 0
        slowest = 0.0
        for node_id in group.node_ids:
            if acks >= write_quorum:
                break
            node = self._nodes.get(node_id)
            if node is None or not node.alive or node.draining:
                continue
            try:
                if node_id == group.primary:
                    round_trip = 0.0
                else:
                    round_trip = 2.0 * self._network.delay(group.primary, node_id)
            except NetworkPartitionError:
                continue
            try:
                service = node.put(namespace, key, value, now) if node_id != group.primary \
                    else 0.0
            except NodeDownError:
                continue
            acks += 1
            slowest = max(slowest, round_trip + service)
        return acks, slowest

    # --------------------------------------------------------------- reporting

    def pending_count(self) -> int:
        """Number of deliveries scheduled but not yet applied or given up."""
        return self._pending

    def max_observed_lag(self) -> float:
        """The worst completed replication lag so far (0 if none completed)."""
        return self._max_lag
