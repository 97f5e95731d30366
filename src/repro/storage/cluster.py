"""Cluster manager: nodes, replica groups, partitioning, and data movement.

The cluster is the thing the provisioning controller scales.  Capacity is
added and removed in units of *replica groups* (a primary plus R-1 replicas),
which keeps the replication factor — and therefore the durability SLA —
invariant under scaling.  Adding or removing a group triggers live data
movement driven by the partitioner's new ownership map.

Besides whole-group scaling, the cluster supports *sub-group* repartitioning
actions under the range partitioner — :meth:`Cluster.split_partition`,
:meth:`Cluster.merge_partitions` and :meth:`Cluster.migrate_partition` — that
move only the keys whose owner actually changed.  Each such move is a *live
migration*: the keys are copied to the new owner immediately, the move is
charged a simulated duration (``keys_moved / movement_rate``, plus one
network hop between the primaries), and until that duration elapses the
migration is "in flight" — the router dual-routes requests for the affected
keys so none are dropped, and the source copies are only deleted when the
migration completes.

Data movement
-------------
Every path that moves keys is built from three primitives:

* :meth:`Cluster._misplaced` — the one key sweep: every key on a node that
  its group no longer owns, with the new owner (resolved once per token).
* :meth:`Cluster.deliver` — the one group delivery: live members apply the
  value now, down members get it through the replication engine's retry
  loop, so *a moved value outlives a crashed receiver*.
* :meth:`Cluster._new_node` / :meth:`Cluster._copy_store` — the one node
  seeding: build a member, fill it from another under last-write-wins.

Callers sweep, deliver, and only then delete at the source: *source copies
are reclaimed only after delivery*, by :meth:`Cluster._hand_back`'s one batch
delete per namespace.  Sweep order (group, namespace, key) is
part of a run's fingerprint: delivery to a down member draws a network delay.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.sim.network import NetworkModel, NetworkPartitionError
from repro.sim.simulator import Simulator
from repro.storage.node import StorageNode
from repro.storage.partitioner import (
    ConsistentHashPartitioner,
    PartitionInfo,
    Partitioner,
    RangePartitioner,
    partition_token,
)
from repro.storage.records import Key, VersionedValue
from repro.storage.replication import ReplicaGroup, ReplicationEngine


@dataclass
class MigrationRecord:
    """One in-flight (or completed) targeted key-range migration.

    ``tokens`` is the set of partition tokens whose data was copied to the
    target; while the migration is in flight, requests for those tokens are
    dual-routed (new owner first, source as fallback) and the source copies
    still exist.  ``end_time`` is when the simulated transfer finishes and the
    source copies are reclaimed.
    """

    migration_id: str
    source_group: str
    target_group: str
    tokens: Set[str]
    keys_moved: int
    start_time: float
    end_time: float
    completed: bool = False

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


@dataclass
class ClusterStats:
    """Aggregate load/size statistics the autoscaler's features are built from."""

    node_count: int
    group_count: int
    total_keys: int
    mean_utilisation: float
    max_utilisation: float
    total_capacity_ops: float


class Cluster:
    """A simulated elastic storage cluster.

    Class attribute ``MIGRATION_COMPLETION_RETRY`` is how often a finished
    transfer re-checks a still-down target before reclaiming source copies;
    ``movement_rate_keys_per_sec`` is how fast data movement proceeds, so a
    targeted migration takes simulated time instead of being instantaneous.

    Args:
        simulator: discrete-event simulator shared by all components.
        replication_factor: nodes per replica group.
        initial_groups: number of replica groups to start with.
        node_capacity_ops: per-node sustainable ops/sec.
        partitioner_kind: ``"hash"`` (consistent hashing, default) or ``"range"``.
        host_map: optional :class:`repro.sim.hosts.HostMap`.  When present,
            every node is placed on a shared physical host with replica-group
            anti-affinity (no group ever holds read/write quorum on one
            host); when None, placement is a no-op and behaviour is
            byte-identical to a host-unaware cluster.
    """

    MIGRATION_COMPLETION_RETRY = 5.0
    movement_rate_keys_per_sec = 50_000.0

    def __init__(
        self,
        simulator: Simulator,
        replication_factor: int = 3,
        initial_groups: int = 2,
        node_capacity_ops: float = 1000.0,
        partitioner_kind: str = "hash",
        host_map=None,
    ) -> None:
        if replication_factor < 1:
            raise ValueError(f"replication factor must be >= 1, got {replication_factor}")
        if initial_groups < 1:
            raise ValueError(f"initial_groups must be >= 1, got {initial_groups}")
        self.sim = simulator
        self.replication_factor = replication_factor
        self.node_capacity_ops = node_capacity_ops
        self.host_map = host_map
        self.network = NetworkModel(simulator.random.get("network"))
        self.nodes: Dict[str, StorageNode] = {}
        self.groups: Dict[str, ReplicaGroup] = {}
        self._node_counter = itertools.count()
        self._group_counter = itertools.count()
        self._keys_moved_total = 0
        self._migrations: List[MigrationRecord] = []
        self._migration_counter = itertools.count()
        self._splits_total = 0
        self._migrations_total = 0
        self._load_tracker = None
        # Hibernated surge replicas: node_id -> (home group id, frozen node).
        # The node object keeps its data but leaves ``nodes``/its group, so
        # replication and routing forget it until it resumes.
        self._hibernated: Dict[str, Tuple[str, StorageNode]] = {}
        # Hosts placement must avoid until the recorded time: an evacuated
        # host has no nodes left to report residuals, so the quarantine is
        # what stops the next rent from landing on it while it is still
        # degraded (host_id -> lift time).
        self._quarantined_hosts: Dict[str, float] = {}

        if partitioner_kind == "hash":
            self.partitioner: Partitioner = ConsistentHashPartitioner()
        elif partitioner_kind == "range":
            self.partitioner = RangePartitioner()
        else:
            raise ValueError(f"unknown partitioner kind: {partitioner_kind!r}")

        self.replication = ReplicationEngine(
            simulator=simulator,
            network=self.network,
            nodes=self.nodes,
        )

        for _ in range(initial_groups):
            self.add_replica_group()

    # ------------------------------------------------------------------ naming

    def _new_group_id(self) -> str:
        return f"group-{next(self._group_counter)}"

    def _new_node(self, group_id: str) -> StorageNode:
        """Build and register an empty member for ``group_id`` (not yet placed
        on a host or listed in the group: callers differ in both)."""
        node_id = f"node-{next(self._node_counter)}@{group_id}"
        node = self.nodes[node_id] = StorageNode(
            node_id=node_id,
            rng=self.sim.random.get(f"node:{node_id}"),
            capacity_ops_per_sec=self.node_capacity_ops,
        )
        return node

    # ----------------------------------------------------------- data movement

    @staticmethod
    def _copy_store(source: StorageNode, dest: StorageNode) -> int:
        """Copy everything ``source`` holds onto ``dest`` under last-write-wins;
        returns how many values ``dest`` took."""
        taken = 0
        for namespace in source.namespaces():
            for key, value in source.scan_namespace(namespace):
                if dest.apply_replica_write(namespace, key, value):
                    taken += 1
        return taken

    def live_members(self, group_id: str) -> List[StorageNode]:
        """The group's alive nodes in membership order.  A sweep of the group
        reads the first: its primary when alive, else its first live member."""
        return [self.nodes[n] for n in self.groups[group_id].node_ids if self.nodes[n].alive]

    def _in_flight_tokens(self) -> Dict[str, Set[str]]:
        """Source group id -> partition tokens of its in-flight migrations."""
        tokens_by_source: Dict[str, Set[str]] = {}
        for record in self._migrations:
            tokens_by_source.setdefault(record.source_group, set()).update(record.tokens)
        return tokens_by_source

    def _misplaced(self, node: StorageNode, group_id: str,
                   skip_tokens=()) -> List[Tuple[str, Key, VersionedValue, str]]:
        """Every ``(namespace, key, value, owner_id)`` on ``node`` that
        ``group_id`` no longer owns, in namespace then key order (the stores
        are read unsorted; only the moved keys, whose delivery order is all
        the simulation sees, are sorted).  Ownership is resolved once per
        *partition token*, not per key: topology churn over a large keyspace
        was the dominant superlinear cost of long autoscaled runs.
        ``skip_tokens`` (an in-flight migration's source side) are left alone.
        """
        group_for_token = self.partitioner.group_for_token
        owner_by_token: Dict[str, str] = {}
        misplaced = []
        for namespace in node.namespaces():
            for key, value in node.scan_namespace(namespace):
                token = str(key[0])  # partition_token(key), inlined
                owner = owner_by_token.get(token)
                if owner is None:
                    owner = owner_by_token[token] = group_for_token(token)
                if owner != group_id and token not in skip_tokens:
                    misplaced.append((namespace, key, value, owner))
        misplaced.sort(key=itemgetter(0, 1))
        return misplaced

    def deliver(self, group: ReplicaGroup, source_id: str, namespace: str,
                key: Key, value: VersionedValue) -> None:
        """Hand one moved value to every member of ``group``.

        Live members apply it now (last-write-wins protects newer data); a
        down or already-detached member gets it through the replication
        engine's retry loop from ``source_id``, so the value is not lost when
        the source copy is reclaimed.  The only place that decides how moved
        data reaches a group with a dead member.
        """
        for node_id in group.node_ids:
            node = self.nodes.get(node_id)
            if node is not None and node.alive:
                node.apply_replica_write(namespace, key, value)
            else:
                self.replication.replicate_to(source_id, node_id, namespace, key, value)

    # --------------------------------------------------------------- placement

    def _anti_affinity_cap(self) -> int:
        """Max members of one replica group allowed on a single host.

        One less than the majority quorum, so losing (or suffering contention
        on) any single host never takes a group's quorum with it.  Floored at
        1 so rf=1 groups remain placeable.
        """
        quorum = self.replication_factor // 2 + 1
        return max(1, quorum - 1)

    def _place_node(self, node_id: str, sibling_node_ids,
                    extra_avoid=()) -> Optional[str]:
        """Assign ``node_id`` to a host, avoiding anti-affinity violations.

        Hosts already holding the cap's worth of this group's members are
        avoided, as are ``extra_avoid`` hosts (e.g. the noisy host an
        evacuation is fleeing).  No-op when the cluster has no host map.
        """
        if self.host_map is None:
            return None
        avoid = set(extra_avoid)
        avoid.update(self.quarantined_hosts())
        cap = self._anti_affinity_cap()
        counts: Dict[str, int] = {}
        for sibling in sibling_node_ids:
            if sibling == node_id:
                continue
            host = self.host_map.host_of(sibling)
            if host is not None:
                counts[host] = counts.get(host, 0) + 1
        avoid.update(host for host, count in counts.items() if count >= cap)
        return self.host_map.assign(node_id, avoid=avoid)

    def _release_placement(self, node_id: str) -> None:
        if self.host_map is not None:
            self.host_map.release(node_id)

    def quarantine_host(self, host_id: str, until: float) -> None:
        """Bar new placements on ``host_id`` until simulated time ``until``."""
        current = self._quarantined_hosts.get(host_id, float("-inf"))
        self._quarantined_hosts[host_id] = max(current, float(until))

    def quarantined_hosts(self) -> Tuple[str, ...]:
        """Hosts currently barred from placement (expired holds are pruned)."""
        now = self.sim.now
        expired = [h for h, t in self._quarantined_hosts.items() if t <= now]
        for host in expired:
            del self._quarantined_hosts[host]
        return tuple(sorted(self._quarantined_hosts))

    def hosts_of_group(self, group_id: str) -> Dict[str, int]:
        """Physical-host spread of one group: host id -> member count.

        Empty when the cluster has no host map (placement-unaware runs).
        """
        group = self.groups.get(group_id)
        if group is None:
            raise KeyError(f"unknown replica group {group_id!r}")
        spread: Dict[str, int] = {}
        if self.host_map is None:
            return spread
        for node_id in group.node_ids:
            host = self.host_map.host_of(node_id)
            if host is not None:
                spread[host] = spread.get(host, 0) + 1
        return spread

    def anti_affinity_violations(self) -> List[Tuple[str, str, int]]:
        """Replica groups with quorum concentrated on one host.

        Returns ``(group_id, host_id, members_on_host)`` for every group
        whose member count on a single host reaches the majority quorum —
        the invariant the placement path maintains and the audit the
        zone-outage and contention tests assert stays empty.
        """
        violations: List[Tuple[str, str, int]] = []
        if self.host_map is None:
            return violations
        quorum = self.replication_factor // 2 + 1
        for group_id in self.groups:
            for host, count in self.hosts_of_group(group_id).items():
                if count >= quorum and len(self.groups[group_id].node_ids) > 1:
                    violations.append((group_id, host, count))
        return violations

    def replace_replica(self, node_id: str, avoid_hosts=()) -> Optional[str]:
        """Live-migrate one replica onto a fresh node placed off ``avoid_hosts``.

        The replacement is seeded with the group primary's data (the noisy
        original as fallback when the primary is down), spliced into the
        group — keeping primaryship if the departing node held it — and the
        original is decommissioned and its host slot released.  Returns the
        replacement node id, or None when ``node_id`` is not a group member.
        """
        group = self._owning_group(node_id)
        old = self.nodes.get(node_id)
        if group is None or old is None:
            return None
        node = self._new_node(group.group_id)
        new_id = node.node_id
        source = self.nodes.get(group.primary)
        if source is None or not source.alive:
            source = old
        self._keys_moved_total += self._copy_store(source, node)
        self._place_node(new_id, group.node_ids, extra_avoid=avoid_hosts)
        was_primary = group.node_ids[0] == node_id
        rest = [nid for nid in group.node_ids if nid != node_id]
        # New list object, never in-place mutation: the router's rotation
        # cache invalidates on list identity.
        group.node_ids = [new_id] + rest if was_primary else rest + [new_id]
        self._release_placement(node_id)
        old.wipe()
        del self.nodes[node_id]
        return new_id

    def evacuate_host(self, host_id: str) -> List[Tuple[str, str]]:
        """Move every replica off ``host_id``; returns (old_id, new_id) pairs.

        Replacement nodes are placed with the evacuated host in their avoid
        set on top of the usual anti-affinity, so the contention remediation
        path can never bounce a replica back onto the noisy host.
        """
        if self.host_map is None:
            return []
        moves: List[Tuple[str, str]] = []
        for node_id in self.host_map.nodes_on(host_id):
            new_id = self.replace_replica(node_id, avoid_hosts=(host_id,))
            if new_id is not None:
                moves.append((node_id, new_id))
        return moves

    # ----------------------------------------------------------------- scaling

    def add_replica_group(self) -> ReplicaGroup:
        """Provision a new replica group and rebalance data onto it."""
        group_id = self._new_group_id()
        node_ids = []
        for _ in range(self.replication_factor):
            node_id = self._new_node(group_id).node_id
            node_ids.append(node_id)
            self._place_node(node_id, node_ids)
        group = ReplicaGroup(group_id=group_id, node_ids=node_ids)
        self.groups[group_id] = group
        self.partitioner.add_group(group_id)
        if len(self.groups) > 1:
            if isinstance(self.partitioner, RangePartitioner):
                # Ranges do not redistribute by themselves: hand the new group
                # a slice of the busiest group's keys (a live migration).
                self._seed_range_for_new_group(group_id)
            else:
                self._rebalance()
        return group

    # ------------------------------------------- surge replicas / spot drain

    def add_surge_replica(self, group_id: str) -> str:
        """Attach one extra read replica to an existing group.

        Surge replicas add read capacity without touching partition
        ownership: the new node is seeded with a copy of the primary's
        current data and then receives ordinary async replication.  They are
        the unit of *spot* capacity — revocable without shrinking the durable
        quorum, which stays on the group's original on-demand members.
        """
        group = self.groups.get(group_id)
        if group is None:
            raise KeyError(f"unknown group {group_id!r}")
        node = self._new_node(group_id)
        node_id = node.node_id
        primary = self.nodes.get(group.primary)
        if primary is not None and primary.alive:
            self._copy_store(primary, node)
        self._place_node(node_id, group.node_ids)
        # New list object, never in-place append: the router's rotation
        # cache invalidates on list identity.
        group.node_ids = group.node_ids + [node_id]
        return node_id

    def begin_drain(self, node_id: str) -> None:
        """Start gracefully evacuating a node (spot interruption notice).

        The node stops receiving client reads and new replicated writes
        immediately; if it is a group primary it is demoted in favour of the
        first healthy non-draining member so the write path never routes
        through a machine with a revocation deadline.
        """
        node = self.nodes.get(node_id)
        if node is None:
            return
        node.set_draining(True)
        group = self._owning_group(node_id)
        if group is None or group.node_ids[0] != node_id or len(group.node_ids) < 2:
            return
        alternates = [
            nid for nid in group.node_ids[1:]
            if (candidate := self.nodes.get(nid)) is not None
            and candidate.alive and not candidate.draining
        ]
        if not alternates:
            return  # nobody healthy to promote; keep serving until detach
        new_primary = alternates[0]
        group.node_ids = [new_primary] + [nid for nid in group.node_ids
                                          if nid != new_primary]

    def detach_replica(self, node_id: str) -> Optional[StorageNode]:
        """Remove one replica from its group and the cluster, returning it.

        Refuses to detach a group's last member (that is group removal, a
        different operation with data movement).  The returned node object
        still holds its data — the hibernate path stashes it for resume.
        """
        group = self._owning_group(node_id)
        if group is not None:
            if len(group.node_ids) < 2:
                raise ValueError(
                    f"cannot detach {node_id!r}: it is the last member of "
                    f"group {group.group_id!r}")
            group.node_ids = [nid for nid in group.node_ids if nid != node_id]
        self._release_placement(node_id)
        return self.nodes.pop(node_id, None)

    def hibernate_node(self, node_id: str) -> bool:
        """Detach a replica and freeze it (data intact) for a later resume."""
        group = self._owning_group(node_id)
        node = self.detach_replica(node_id)
        if node is None:
            return False
        node.set_draining(False)
        self._hibernated[node_id] = (group.group_id if group is not None else "", node)
        return True

    def resume_hibernated(self, node_id: str) -> Optional[int]:
        """Rejoin a hibernated replica without a cold re-copy.

        The frozen node re-attaches to its home group, hands back any keys it
        no longer owns via :meth:`reconcile_node`, and catches up on what it
        missed with a last-write-wins sweep of the primary — all within one
        simulated instant, so no client read can observe the stale copy.
        Returns the number of keys refreshed from the primary, or None when
        the home group no longer exists (caller should retire the instance).
        """
        entry = self._hibernated.get(node_id)
        if entry is None:
            return None
        group_id, node = entry
        group = self.groups.get(group_id)
        if group is None:
            return None
        del self._hibernated[node_id]
        node.recover()
        node.set_draining(False)
        self.nodes[node_id] = node
        self._place_node(node_id, group.node_ids)
        group.node_ids = group.node_ids + [node_id]
        self.reconcile_node(node_id)
        primary = self.nodes.get(group.primary)
        if primary is not None and primary.alive and primary.node_id != node_id:
            return self._copy_store(primary, node)
        return 0

    def drop_hibernated(self, node_id: str) -> bool:
        """Forget a hibernated node (its instance was terminated)."""
        return self._hibernated.pop(node_id, None) is not None

    def _owning_group(self, node_id: str) -> Optional[ReplicaGroup]:
        for group in self.groups.values():
            if node_id in group.node_ids:
                return group
        return None

    def group_mean_utilisation(self, group_id: str) -> float:
        """Mean utilisation over one group's alive nodes (0 when none alive)."""
        alive = self.live_members(group_id)
        if not alive:
            return 0.0
        return sum(node.utilisation() for node in alive) / len(alive)

    def _seed_range_for_new_group(self, group_id: str) -> None:
        """Split the busiest group's fullest partition and migrate half of it
        to a freshly added group.

        This is the *load-oblivious* way capacity relieves pressure under the
        range partitioner — the donor group is chosen by node utilisation but
        the split point is the stored-key median, not the load median (the
        load-aware rebalancer does better; this is its add-a-group baseline).
        A group whose primary is down cannot donate: the changed-key sweep
        would skip it, so its range would change owner without its data (the
        guard :meth:`migrate_partition` has).  With no donor the group joins
        empty and the rebalancer hands it load later.
        """
        donors = [g for g in self.groups.values()
                  if g.group_id != group_id and self.nodes[g.primary].alive]
        if not donors:
            return

        def donor_load(group: ReplicaGroup) -> Tuple[float, int]:
            return (self.group_mean_utilisation(group.group_id),
                    self.nodes[group.primary].key_count())

        donor = max(donors, key=donor_load)
        owned = [p for p in self.partitioner.partitions() if p.owner == donor.group_id]
        if not owned:
            return
        primary = self.nodes[donor.primary]
        # One scan of the donor's primary, bucketing tokens per partition.
        tokens_by_index: Dict[int, set] = {p.index: set() for p in owned}
        owned_by_index = {p.index: p for p in owned}
        for namespace in primary.namespaces():
            for key, _ in primary.scan_namespace(namespace):
                token = partition_token(key)
                info = self.partitioner.partition_for_token(token)
                if info.index in tokens_by_index:
                    tokens_by_index[info.index].add(token)
        best_index = max(tokens_by_index, key=lambda i: len(tokens_by_index[i]))
        best = owned_by_index[best_index]
        best_tokens = sorted(tokens_by_index[best_index])
        if len(best_tokens) < 2:
            return  # nothing worth splitting yet; the group joins empty
        # best_tokens is sorted and unique with len >= 2, so the median index
        # (>= 1) is strictly greater than the partition's lower bound.
        median = best_tokens[len(best_tokens) // 2]
        self.partitioner.split_at(median)
        self.partitioner.reassign(
            self.partitioner.partition_for_token(median).index, group_id
        )
        self._migrate_changed_keys()

    def remove_replica_group(self, group_id: str) -> None:
        """Decommission a replica group after moving its data to the new owners."""
        if group_id not in self.groups:
            raise KeyError(f"unknown replica group {group_id!r}")
        if len(self.groups) == 1:
            raise ValueError("cannot remove the last replica group")
        group = self.groups[group_id]
        live = self.live_members(group_id)
        if not live:
            raise ValueError(
                f"cannot remove {group_id!r}: every member is down, so its "
                "data cannot be read to be moved")
        source = live[0]
        if isinstance(self.partitioner, RangePartitioner):
            # Hand the departing group's ranges to the least-loaded survivors
            # (the partitioner's own fallback would pile them onto the first
            # group, re-creating exactly the hotspots scale-down should not).
            survivors = [g for g in self.groups.values() if g.group_id != group_id]
            # Utilisation EWMAs do not move inside this loop, so spread the
            # departing partitions by also counting what each survivor has
            # already been handed — otherwise they all pile onto one group.
            handed: Dict[str, int] = {g.group_id: 0 for g in survivors}
            for part in self.partitioner.partitions():
                if part.owner == group_id:
                    target = min(
                        survivors,
                        key=lambda g: (handed[g.group_id],
                                       self.group_mean_utilisation(g.group_id)),
                    )
                    handed[target.group_id] += 1
                    self.partitioner.reassign(part.index, target.group_id)
        self.partitioner.remove_group(group_id)
        # The group owns nothing now, so every key it holds is misplaced.
        departing = self._misplaced(source, group_id)
        for namespace, key, value, owner in departing:
            self.deliver(self.groups[owner], source.node_id, namespace, key, value)
        self._keys_moved_total += len(departing)
        for node_id in group.node_ids:
            self._release_placement(node_id)
            self.nodes[node_id].wipe()
            del self.nodes[node_id]
        del self.groups[group_id]

    def _rebalance(self) -> None:
        """Move keys whose owner changed to their new replica group, at once,
        then drop them from the group's live members by one sort-free batch
        delete per (node, namespace): data movement, not a client delete, so
        no tombstone.  A group with no live member is skipped: each of its
        nodes hands back what it no longer owns on recovery (:meth:`reconcile_node`).
        """
        for group in list(self.groups.values()):
            live = self.live_members(group.group_id)
            if live:
                moved = self._misplaced(live[0], group.group_id)
                self._hand_back(moved, live)
                self._keys_moved_total += len(moved)

    # ---------------------------------------------------------- repartitioning

    def _require_range_partitioner(self, operation: str) -> RangePartitioner:
        if not isinstance(self.partitioner, RangePartitioner):
            raise TypeError(f"{operation} requires the range partitioner; "
                            f"got {type(self.partitioner).__name__}")
        return self.partitioner

    def split_partition(self, token: str) -> PartitionInfo:
        """Split the partition containing ``token`` at ``token`` (range only).

        A split moves no data — it creates the migratable unit a subsequent
        :meth:`migrate_partition` can hand to a colder replica group.
        """
        info = self._require_range_partitioner("split_partition").split_at(token)
        self._splits_total += 1
        return info

    def migrate_partition(self, token: str,
                          target_group_id: str) -> Optional[MigrationRecord]:
        """Reassign the partition containing ``token`` and move only its keys.

        Returns the in-flight :class:`MigrationRecord`, or None when the
        partition already belongs to the target or holds no keys.
        """
        partitioner = self._require_range_partitioner("migrate_partition")
        if target_group_id not in self.groups:
            raise KeyError(f"unknown replica group {target_group_id!r}")
        info = partitioner.partition_for_token(token)
        if info.owner == target_group_id:
            return None
        if not self.nodes[self.groups[info.owner].primary].alive:
            # Reassigning now would move ownership without moving any data
            # (the changed-key sweep cannot scan a dead primary), making the
            # range unreachable.  Leave ownership alone until it recovers.
            return None
        partitioner.reassign(info.index, target_group_id)
        records = self._migrate_changed_keys()
        for record in records:
            if record.source_group == info.owner and record.target_group == target_group_id:
                return record
        return None

    def merge_partitions(self, token: str) -> int:
        """Merge the partition containing ``token`` with its right neighbour.

        When the neighbours have different owners the right-hand partition is
        first migrated to the left owner; the returned count is the keys that
        migration moved (0 for a same-owner merge, which is free).
        """
        partitioner = self._require_range_partitioner("merge_partitions")
        info = partitioner.partition_for_token(token)
        if info.upper is None:
            raise ValueError(f"partition containing {token!r} has no right neighbour")
        right = partitioner.partition_for_token(info.upper)
        moved = 0
        if right.owner != info.owner:
            if not self.nodes[self.groups[right.owner].primary].alive:
                raise ValueError(
                    f"cannot merge: the primary of {right.owner!r} is down, so "
                    "its keys cannot be moved to the surviving owner"
                )
            partitioner.reassign(right.index, info.owner)
            moved = sum(r.keys_moved for r in self._migrate_changed_keys())
        partitioner.merge_at(info.index)
        return moved

    def _migrate_changed_keys(self) -> List[MigrationRecord]:
        """Copy keys whose partitioner owner changed to their new groups.

        Unlike :meth:`_rebalance` (used for whole-group add/remove), the
        source copies are not deleted immediately: each (source, target) pair
        becomes an in-flight :class:`MigrationRecord` whose simulated transfer
        time is charged, and reclamation happens at completion so the router
        can dual-route in the meantime.
        """
        in_flight = self._in_flight_tokens()
        moves: Dict[Tuple[str, str], List[Tuple[str, Key, object]]] = {}
        for group in list(self.groups.values()):
            group_id = group.group_id
            primary = self.nodes[group.primary]
            if not primary.alive:
                continue
            for namespace, key, value, owner in self._misplaced(
                    primary, group_id, in_flight.get(group_id, ())):
                moves.setdefault((group_id, owner), []).append((namespace, key, value))
        records = []
        for (source_id, target_id), items in moves.items():
            target_group = self.groups[target_id]
            source_primary_id = self.groups[source_id].primary
            tokens: Set[str] = set()
            for namespace, key, value in items:
                self.deliver(target_group, source_primary_id, namespace, key, value)
                tokens.add(partition_token(key))
            moved = len(items)
            self._keys_moved_total += moved
            duration = moved / self.movement_rate_keys_per_sec
            try:
                # One bulk-transfer hop between the primaries; if they are
                # partitioned the state copy is still modelled (the migration
                # would simply stall until heal in a real system).
                duration += self.network.delay(source_primary_id, target_group.primary)
            except NetworkPartitionError:
                pass
            record = MigrationRecord(
                migration_id=f"migration-{next(self._migration_counter)}",
                source_group=source_id,
                target_group=target_id,
                tokens=tokens,
                keys_moved=moved,
                start_time=self.sim.now,
                end_time=self.sim.now + duration,
            )
            self._migrations.append(record)
            self._migrations_total += 1
            self.sim.schedule(duration, lambda r=record: self._complete_migration(r),
                              name=f"{record.migration_id}:{source_id}->{target_id}")
            records.append(record)
        return records

    def _complete_migration(self, record: MigrationRecord) -> None:
        """Reclaim the source copies once the simulated transfer has finished.

        Completion is deferred while any target node is down: the bounded
        retry budget of the catch-up deliveries could otherwise expire during
        a long outage, after which reclaiming the source copies would lose
        the keys.  Deferral is safe — the record stays in flight, so the
        router keeps dual-routing and the source keeps serving.
        """
        target = self.groups.get(record.target_group)
        if target is not None and any(
            self.nodes.get(node_id) is None or not self.nodes[node_id].alive
            for node_id in target.node_ids
        ):
            self.sim.schedule(self.MIGRATION_COMPLETION_RETRY,
                              lambda: self._complete_migration(record),
                              name=f"{record.migration_id}:await-target")
            return
        record.completed = True
        if record in self._migrations:
            self._migrations.remove(record)
        source = self.groups.get(record.source_group)
        if source is None:
            return  # the source group was decommissioned mid-flight
        for node_id in source.node_ids:
            node = self.nodes.get(node_id)
            if node is None or not node.alive:
                # A crashed source keeps its stale copies; they are detected
                # and re-moved by the next changed-key sweep after recovery.
                continue
            # Ownership may have moved *back* since this migration started
            # (ping-pong): the sweep never reclaims what the source owns now.
            self._hand_back([moved for moved in self._misplaced(node, record.source_group)
                             if partition_token(moved[1]) in record.tokens], [node])

    def reconcile_node(self, node_id: str) -> int:
        """Reclaim stale copies on a (typically just-recovered) node.

        A migration source that was down when its transfer completed keeps
        its source-side copies (see :meth:`_complete_migration`); without
        this pass they linger until the next changed-key sweep happens to
        scan the node.  The failure injector calls this on every recovery:
        any key the node's group no longer owns — and that is not the source
        side of a still-in-flight migration, which dual-routing relies on —
        is pushed to the current owner (last-write-wins protects against
        clobbering newer data) and then dropped locally.

        Returns the number of keys reclaimed.
        """
        node = self.nodes.get(node_id)
        group = self._owning_group(node_id)
        if node is None or not node.alive or group is None:
            return 0
        stale = self._misplaced(node, group.group_id,
                                self._in_flight_tokens().get(group.group_id, ()))
        self._hand_back(stale, [node])
        return len(stale)

    def _hand_back(self, misplaced: List[Tuple[str, Key, VersionedValue, str]],
                   holders: List[StorageNode]) -> None:
        """Deliver each of ``misplaced`` (:meth:`_misplaced` of ``holders[0]``)
        to its owner now, then drop the keys from every holder by one batch
        delete per namespace that moved keys: data movement, not a client
        delete, so no tombstone.  The delivery is also the final refresh
        before a migration reclaims its source: a catch-up delivery that
        expired mid-transfer must not lose the freshest copy."""
        moved: Dict[str, List[Key]] = {}
        for namespace, key, value, owner in misplaced:
            self.deliver(self.groups[owner], holders[0].node_id, namespace, key, value)
            moved.setdefault(namespace, []).append(key)
        for node in holders:
            for namespace, keys in moved.items():
                node._store(namespace).delete_many(keys)  # noqa: SLF001 - cluster owns its nodes

    def active_migrations(self) -> List[MigrationRecord]:
        """Migrations whose simulated transfer has not finished yet."""
        return list(self._migrations)

    def migrations_for_key(self, namespace: str, key: Key) -> List[MigrationRecord]:
        """All in-flight migrations covering ``key``, oldest first.

        More than one record can cover a key when a range is migrated again
        while an earlier transfer is still in flight (A->B then B->C); the
        router must dual-route against every source still holding copies.
        """
        if not self._migrations:
            return []
        token = partition_token(key)
        return [record for record in self._migrations if token in record.tokens]

    # ---------------------------------------------------------- load tracking

    def attach_load_tracker(self, tracker) -> None:
        """Attach a per-partition load tracker fed by the router's accesses."""
        self._load_tracker = tracker

    def note_access(self, namespace: str, key: Key, is_write: bool,
                    token: Optional[str] = None) -> None:
        """Router hook: record one client access for per-partition load stats."""
        if self._load_tracker is not None:
            if token is None:
                token = partition_token(key)
            self._load_tracker.note(token, is_write, self.sim.now)

    # ----------------------------------------------------------------- routing

    def group_for_key(self, namespace: str, key: Key) -> ReplicaGroup:
        """The owning replica group."""
        # str(key[0]) is partition_token(key), inlined for the hot path.
        return self.groups[self.partitioner.group_for_token(str(key[0]))]

    # ------------------------------------------------------------------- stats

    def node_count(self) -> int:
        return len(self.nodes)

    def group_count(self) -> int:
        return len(self.groups)

    def total_keys(self) -> int:
        """Live keys counted at owner primaries.

        Replica copies within a group are never counted, and neither are the
        *source-side* copies of in-flight migrations: while a targeted
        migration is dual-routing, the moved keys exist at both the source and
        the target primary, and anything that reads this count (cache sizing,
        storage billing) must see each logical key exactly once.

        While migrations are in flight this sweeps each source primary once
        per call.  At simulation scale that is cheap; if keyspaces grow to
        where the per-control-window ``stats()`` call hurts, replace the sweep
        with an incremental duplicate count maintained by the
        dual-write/reclaim paths.
        """
        total = sum(self.nodes[g.primary].key_count() for g in self.groups.values())
        for source_id, tokens in self._in_flight_tokens().items():
            group = self.groups.get(source_id)
            if group is None:
                continue
            primary = self.nodes.get(group.primary)
            if primary is None or not primary.alive:
                # key_count() still reports a dead primary's keys in the main
                # sum, but a dead node cannot be scanned; fall back to the
                # transfer sizes recorded at migration start (approximate if
                # writes landed mid-flight, far closer than not subtracting).
                total -= sum(record.keys_moved for record in self._migrations
                             if record.source_group == source_id)
                continue
            # Ownership can ping-pong back mid-flight; a copy the source owns
            # again is the live one, not a duplicate, and is not misplaced.
            total -= sum(1 for _, key, _, _ in self._misplaced(primary, source_id)
                         if partition_token(key) in tokens)
        return total

    def decay_load(self) -> None:
        """Let idle nodes' load estimates decay (run periodically)."""
        now = self.sim.now
        for node in self.nodes.values():
            if node.alive:
                node.decay_load(now)

    def stats(self) -> ClusterStats:
        alive = [n for n in self.nodes.values() if n.alive]
        utilisations = [n.utilisation() for n in alive] or [0.0]
        return ClusterStats(
            node_count=len(self.nodes),
            group_count=len(self.groups),
            total_keys=self.total_keys(),
            mean_utilisation=float(np.mean(utilisations)),
            max_utilisation=float(np.max(utilisations)),
            total_capacity_ops=float(sum(n.capacity_ops_per_sec for n in alive)),
        )

    @property
    def keys_moved_total(self) -> int:
        """Total keys moved by all rebalances and migrations (data-movement cost)."""
        return self._keys_moved_total

    @property
    def splits_total(self) -> int:
        return self._splits_total

    @property
    def migrations_total(self) -> int:
        return self._migrations_total
