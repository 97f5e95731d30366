"""Unit and integration tests for partitioning, replication, routing, the
cluster manager, durability, and failure injection."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.simulator import Simulator
from repro.storage.cluster import Cluster
from repro.storage.durability import DurabilityModel
from repro.storage.failure import FailureInjector
from repro.storage.partitioner import (
    ConsistentHashPartitioner,
    PartitionerError,
    RangePartitioner,
)
from repro.storage.records import KeyRange, prefix_range, range_lead
from repro.storage.router import Router

pytestmark = pytest.mark.tier1


def hash_ring(group_ids, virtual_nodes=None):
    partitioner = ConsistentHashPartitioner()
    if virtual_nodes is not None:
        partitioner.virtual_nodes = virtual_nodes
    for group_id in group_ids:
        partitioner.add_group(group_id)
    return partitioner


def range_partitioner(group_ids):
    partitioner = RangePartitioner()
    for group_id in group_ids:
        partitioner.add_group(group_id)
    return partitioner


def make_cluster(groups=2, replication=3, seed=0, **kwargs):
    sim = Simulator(seed=seed)
    return Cluster(simulator=sim, replication_factor=replication,
                   initial_groups=groups, **kwargs)


# ------------------------------------------------------------------ partitioner


class TestConsistentHashPartitioner:
    def test_routes_all_tokens_to_registered_groups(self):
        partitioner = hash_ring(["g1", "g2", "g3"])
        for i in range(200):
            assert partitioner.group_for_key("ns", (f"user{i}",)) in {"g1", "g2", "g3"}

    def test_distribution_is_roughly_even(self):
        partitioner = hash_ring(["g1", "g2", "g3", "g4"], virtual_nodes=128)
        counts = {g: 0 for g in partitioner.groups()}
        for i in range(4000):
            counts[partitioner.group_for_key("ns", (f"user{i}",))] += 1
        assert min(counts.values()) > 500

    def test_adding_group_moves_only_some_keys(self):
        partitioner = hash_ring(["g1", "g2", "g3"])
        before = {f"u{i}": partitioner.group_for_key("ns", (f"u{i}",)) for i in range(1000)}
        partitioner.add_group("g4")
        moved = sum(
            1 for key, group in before.items()
            if partitioner.group_for_key("ns", (key,)) != group
        )
        # Consistent hashing should move roughly 1/4 of the keys, not most of them.
        assert 0 < moved < 500

    def test_duplicate_group_rejected(self):
        partitioner = hash_ring(["g1"])
        with pytest.raises(PartitionerError):
            partitioner.add_group("g1")

    def test_cannot_remove_last_group(self):
        partitioner = hash_ring(["g1"])
        with pytest.raises(PartitionerError):
            partitioner.remove_group("g1")

    def test_prefix_range_routes_to_single_group(self):
        partitioner = hash_ring(["g1", "g2", "g3"])
        key_range = prefix_range("ns", ("user42",))
        token = str(range_lead(key_range.start, key_range.end))
        assert partitioner.group_for_token(token) == partitioner.group_for_key(
            "ns", ("user42", "x"))

    def test_same_key_same_group_deterministic(self):
        a = hash_ring(["g1", "g2", "g3"])
        b = hash_ring(["g1", "g2", "g3"])
        for i in range(100):
            key = (f"user{i}",)
            assert a.group_for_key("ns", key) == b.group_for_key("ns", key)


class TestRangePartitioner:
    def test_single_group_owns_everything(self):
        partitioner = range_partitioner(["g1"])
        assert partitioner.group_for_key("ns", ("anything",)) == "g1"

    def test_routing_before_any_group_raises(self):
        partitioner = RangePartitioner()
        with pytest.raises(PartitionerError):
            partitioner.group_for_key("ns", ("anything",))
        with pytest.raises(PartitionerError):
            partitioner.partition_for_token("anything")
        key_range = prefix_range("ns", ("anything",))
        with pytest.raises(PartitionerError):
            partitioner.group_for_token(str(range_lead(key_range.start, key_range.end)))

    def test_explicit_splits(self):
        partitioner = range_partitioner(["g1", "g2"])
        partitioner.set_splits(["", "m"], ["g1", "g2"])
        assert partitioner.group_for_key("ns", ("alice",)) == "g1"
        assert partitioner.group_for_key("ns", ("zoe",)) == "g2"

    def test_splits_must_be_sorted_and_start_empty(self):
        partitioner = range_partitioner(["g1", "g2"])
        with pytest.raises(PartitionerError):
            partitioner.set_splits(["m", ""], ["g1", "g2"])
        with pytest.raises(PartitionerError):
            partitioner.set_splits(["a", "m"], ["g1", "g2"])

    def test_later_group_owns_nothing_until_set_splits(self):
        partitioner = range_partitioner(["g1", "g2"])
        tokens = [f"u{i:03d}" for i in range(100)]
        assert {partitioner.group_for_token(t) for t in tokens} == {"g1"}
        assert [p.owner for p in partitioner.partitions()] == ["g1"]
        partitioner.set_splits(["", "u050"], ["g1", "g2"])
        owners = {partitioner.group_for_token(t) for t in tokens}
        assert owners == {"g1", "g2"}


# -------------------------------------------------------------------- cluster


class TestCluster:
    def test_initial_topology(self):
        cluster = make_cluster(groups=2, replication=3)
        assert cluster.group_count() == 2
        assert cluster.node_count() == 6
        for group in cluster.groups.values():
            assert group.replication_factor == 3

    def test_add_replica_group_grows_cluster(self):
        cluster = make_cluster(groups=2, replication=3)
        cluster.add_replica_group()
        assert cluster.group_count() == 3
        assert cluster.node_count() == 9

    def test_remove_replica_group_shrinks_cluster(self):
        cluster = make_cluster(groups=3, replication=2)
        victim = list(cluster.groups)[-1]
        cluster.remove_replica_group(victim)
        assert cluster.group_count() == 2
        assert victim not in cluster.groups

    def test_cannot_remove_last_group(self):
        cluster = make_cluster(groups=1)
        with pytest.raises(ValueError):
            cluster.remove_replica_group(list(cluster.groups)[0])

    def test_data_survives_scale_up(self):
        cluster = make_cluster(groups=1, replication=2)
        router = Router(cluster)
        keys = [(f"user{i}",) for i in range(200)]
        for key in keys:
            router.write("ns", key, {"v": key[0]})
        cluster.add_replica_group()
        cluster.add_replica_group()
        for key in keys:
            result = router.read("ns", key, from_primary=True)
            assert result.success and result.value is not None, key

    def test_data_survives_scale_down(self):
        cluster = make_cluster(groups=3, replication=2)
        router = Router(cluster)
        keys = [(f"user{i}",) for i in range(200)]
        for key in keys:
            router.write("ns", key, {"v": key[0]})
        cluster.sim.run_until(cluster.sim.now + 5.0)  # let replication apply
        victim = list(cluster.groups)[-1]
        cluster.remove_replica_group(victim)
        for key in keys:
            result = router.read("ns", key, from_primary=True)
            assert result.success and result.value is not None, key

    def test_rebalance_moves_bounded_fraction(self):
        cluster = make_cluster(groups=2, replication=1)
        router = Router(cluster)
        for i in range(300):
            router.write("ns", (f"user{i}",), {"v": i})
        moved_before = cluster.keys_moved_total
        cluster.add_replica_group()
        moved = cluster.keys_moved_total - moved_before
        # Consistent hashing: roughly 1/3 of 300 keys move, certainly not all.
        assert 0 < moved < 250

    def test_remove_down_to_last_group_keeps_all_data(self):
        cluster = make_cluster(groups=3, replication=2)
        router = Router(cluster)
        keys = [(f"user{i}",) for i in range(120)]
        for key in keys:
            router.write("ns", key, {"v": key[0]})
        cluster.sim.run_until(cluster.sim.now + 5.0)
        while cluster.group_count() > 1:
            cluster.remove_replica_group(list(cluster.groups)[-1])
        with pytest.raises(ValueError):
            cluster.remove_replica_group(list(cluster.groups)[0])
        for key in keys:
            result = router.read("ns", key, from_primary=True)
            assert result.success and result.value is not None, key

    def test_remove_group_with_outstanding_quorum_write_and_replication(self):
        cluster = make_cluster(groups=2, replication=3)
        router = Router(cluster)
        victim_id = list(cluster.groups)[-1]
        victim = cluster.groups[victim_id]
        # Find keys owned by the victim and write them with a quorum; the
        # remaining (lazy) propagations to the victim's replicas are still
        # outstanding when the group is decommissioned.
        owned = [(f"user{i}",) for i in range(200)
                 if cluster.partitioner.group_for_key("ns", (f"user{i}",)) == victim_id]
        assert owned, "expected the victim group to own some keys"
        for key in owned:
            result = router.write("ns", key, {"v": key[0]}, write_quorum=2)
            assert result.success
        assert cluster.replication.pending_count() > 0
        cluster.remove_replica_group(victim_id)
        assert all(node_id not in cluster.nodes for node_id in victim.node_ids)
        # Outstanding propagations to deleted nodes must drain without error.
        cluster.sim.run_until(cluster.sim.now + 150.0)
        for key in owned:
            result = router.read("ns", key, from_primary=True)
            assert result.success and result.value is not None, key

    def test_remove_group_keys_moved_accounting_is_exact(self):
        cluster = make_cluster(groups=2, replication=2)
        router = Router(cluster)
        for i in range(150):
            router.write("ns", (f"user{i}",), {"v": i})
        cluster.sim.run_until(cluster.sim.now + 5.0)
        victim_id = list(cluster.groups)[-1]
        victim_primary_keys = cluster.nodes[cluster.groups[victim_id].primary].key_count()
        moved_before = cluster.keys_moved_total
        cluster.remove_replica_group(victim_id)
        assert cluster.keys_moved_total - moved_before == victim_primary_keys
        # Accounting is cumulative across scale events.
        moved_before = cluster.keys_moved_total
        cluster.add_replica_group()
        assert cluster.keys_moved_total >= moved_before

    def test_remove_migration_source_mid_flight_does_not_crash_completion(self):
        sim = Simulator(seed=0)
        cluster = Cluster(simulator=sim, replication_factor=2, initial_groups=3,
                          partitioner_kind="range")
        cluster.movement_rate_keys_per_sec = 10.0
        router = Router(cluster)
        for i in range(60):
            router.write("ns", (f"u{i:03d}",), {"v": i})
        sim.run_until(sim.now + 5.0)
        cluster.split_partition("u030")
        record = cluster.migrate_partition("u030", "group-1")
        assert record is not None and not record.completed
        cluster.remove_replica_group("group-0")  # the migration source
        sim.run_until(record.end_time + 150.0)
        assert record.completed
        for i in range(60):
            result = router.read("ns", (f"u{i:03d}",), from_primary=True)
            assert result.success and result.value is not None, i

    def test_stats_reflect_capacity(self):
        cluster = make_cluster(groups=2, replication=2, node_capacity_ops=500.0)
        stats = cluster.stats()
        assert stats.node_count == 4
        assert stats.total_capacity_ops == pytest.approx(2000.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            make_cluster(groups=0)
        with pytest.raises(ValueError):
            make_cluster(replication=0)


# -------------------------------------------------------------- data movement


def _loaded_cluster(partitioner_kind, keys=200):
    """Three rf-2 groups holding ``keys`` settled, routed writes."""
    cluster = make_cluster(groups=3, replication=2, partitioner_kind=partitioner_kind)
    router = Router(cluster)
    written = [(f"user{i:03d}",) for i in range(keys)]
    for key in written:
        assert router.write("ns", key, {"v": key[0]}).success
    cluster.sim.run_until(cluster.sim.now + 5.0)
    if partitioner_kind == "range":
        # Ranges do not spread by themselves: give each group a third.
        for group_id, third in (("group-1", keys // 3), ("group-2", 2 * keys // 3)):
            cluster.split_partition(written[third][0])
            assert cluster.migrate_partition(written[third][0], group_id) is not None
    cluster.sim.run_until(cluster.sim.now + 5.0)
    assert not cluster.active_migrations()
    assert all(cluster.nodes[g.primary].key_count() > 0 for g in cluster.groups.values())
    return cluster, router, written


def _recover_and_reconcile(cluster, node_ids):
    """What the failure injector does when an outage ends, then settle."""
    for node_id in node_ids:
        node = cluster.nodes.get(node_id)
        if node is not None:
            node.recover()
            cluster.reconcile_node(node_id)
    cluster.sim.run_until(cluster.sim.now + 150.0)


def _assert_nothing_lost(cluster, router, written):
    for key in written:
        result = router.read("ns", key, from_primary=True)
        assert result.success and result.value is not None, key
    assert cluster.total_keys() == len(written)


@pytest.mark.parametrize("partitioner_kind", ["hash", "range"])
class TestTopologyChangeDuringPrimaryOutage:
    """A group joins or leaves while a primary the sweep would read is down.

    At the parent of the PR that added these, each sweep scanned
    ``nodes[group.primary]`` unconditionally and the ``NodeDownError`` killed
    the ``boot`` event or control step it ran in.
    """

    def test_group_joins_while_the_busiest_groups_primary_is_down(self, partitioner_kind):
        cluster, router, written = _loaded_cluster(partitioner_kind)
        # The group the range partitioner would pick as donor (the hash
        # partitioner's rebalance sweeps every group, this one included).
        busiest = max(cluster.groups.values(), key=lambda g: (
            cluster.group_mean_utilisation(g.group_id),
            cluster.nodes[g.primary].key_count()))
        down = busiest.primary
        cluster.nodes[down].crash()
        cluster.add_replica_group()
        assert cluster.group_count() == 4
        # Nothing the live members serve went missing during the outage.
        for key in written:
            result = router.read("ns", key)
            assert result.success and result.value is not None, key
        _recover_and_reconcile(cluster, [down])
        _assert_nothing_lost(cluster, router, written)

    def test_group_leaves_while_its_primary_is_down(self, partitioner_kind):
        cluster, router, written = _loaded_cluster(partitioner_kind)
        victim = cluster.groups[list(cluster.groups)[-1]]
        down = victim.primary
        cluster.nodes[down].crash()
        cluster.remove_replica_group(victim.group_id)
        assert victim.group_id not in cluster.groups
        _recover_and_reconcile(cluster, [down])
        _assert_nothing_lost(cluster, router, written)

    def test_group_with_every_member_down_is_not_removed(self, partitioner_kind):
        cluster, router, written = _loaded_cluster(partitioner_kind)
        victim = cluster.groups[list(cluster.groups)[-1]]
        for node_id in victim.node_ids:
            cluster.nodes[node_id].crash()
        with pytest.raises(ValueError, match="every member is down"):
            cluster.remove_replica_group(victim.group_id)
        # Refused before anything changed hands: the only copies are intact.
        assert victim.group_id in cluster.groups
        assert victim.group_id in cluster.partitioner.groups()
        _recover_and_reconcile(cluster, victim.node_ids)
        _assert_nothing_lost(cluster, router, written)

    def test_group_joins_while_a_whole_group_is_down(self, partitioner_kind):
        cluster, router, written = _loaded_cluster(partitioner_kind)
        dark = cluster.groups["group-1"]
        for node_id in dark.node_ids:
            cluster.nodes[node_id].crash()
        cluster.add_replica_group()
        _recover_and_reconcile(cluster, dark.node_ids)
        _assert_nothing_lost(cluster, router, written)


def test_range_moved_on_mid_flight_is_not_handed_back_to_the_first_target():
    """A->B then B->C while A->B is in flight: when A->B completes, its final
    refresh goes to the keys' owner now (C), not to B, which gave them up."""
    cluster, router, written = _loaded_cluster("range")  # is exactly that chain
    counts = {g: [cluster.nodes[n].key_count() for n in group.node_ids]
              for g, group in cluster.groups.items()}
    assert counts == {"group-0": [66, 66], "group-1": [67, 67], "group-2": [67, 67]}
    assert cluster.total_keys() == len(written)


class TestDeliver:
    def _cluster_and_value(self):
        cluster = make_cluster(groups=2, replication=3)
        router = Router(cluster)
        value = router.write("ns", ("k",), {"v": 1}).value
        return cluster, value

    def test_live_members_apply_at_once(self):
        cluster, value = self._cluster_and_value()
        cluster.sim.run_until(cluster.sim.now + 5.0)
        group = cluster.groups["group-1"]
        cluster.deliver(group, cluster.groups["group-0"].primary, "moved", ("k",), value)
        for node_id in group.node_ids:
            assert cluster.nodes[node_id].peek("moved", ("k",)) == value
        assert cluster.replication.pending_count() == 0  # nothing left to retry

    def test_down_member_receives_it_after_recovery(self):
        cluster, value = self._cluster_and_value()
        cluster.sim.run_until(cluster.sim.now + 5.0)
        group = cluster.groups["group-1"]
        down = cluster.nodes[group.node_ids[1:][0]]
        down.crash()
        cluster.deliver(group, cluster.groups["group-0"].primary, "moved", ("k",), value)
        assert cluster.replication.pending_count() == 1
        cluster.sim.run_until(cluster.sim.now + 10.0)  # still down: keeps retrying
        assert cluster.replication.pending_count() == 1
        down.recover()
        cluster.sim.run_until(cluster.sim.now + 5.0)
        assert down.peek("moved", ("k",)) == value
        assert cluster.replication.pending_count() == 0

    def test_missing_member_id_does_not_raise(self):
        cluster, value = self._cluster_and_value()
        cluster.sim.run_until(cluster.sim.now + 5.0)
        group = cluster.groups["group-1"]
        group.node_ids = group.node_ids + ["node-99@group-1"]  # already detached
        cluster.deliver(group, cluster.groups["group-0"].primary, "moved", ("k",), value)
        cluster.sim.run_until(cluster.sim.now + 5.0)
        assert cluster.replication.pending_count() == 0  # dropped, not retried forever
        assert cluster.nodes[group.primary].peek("moved", ("k",)) == value

    def test_older_value_does_not_clobber_a_newer_one(self):
        cluster = make_cluster(groups=1, replication=2)
        router = Router(cluster)
        old = router.write("ns", ("k",), {"v": 1}).value
        cluster.sim.run_until(cluster.sim.now + 1.0)
        new = router.write("ns", ("k",), {"v": 2}).value
        cluster.sim.run_until(cluster.sim.now + 1.0)
        group = cluster.groups["group-0"]
        cluster.deliver(group, group.primary, "ns", ("k",), old)
        for node_id in group.node_ids:
            assert cluster.nodes[node_id].peek("ns", ("k",)) == new


class TestCopyStore:
    def test_returns_what_the_destination_took_under_last_write_wins(self):
        cluster = make_cluster(groups=2, replication=1)
        router = Router(cluster)
        source = cluster.nodes[cluster.groups["group-0"].primary]
        dest = cluster.nodes[cluster.groups["group-1"].primary]
        stamp = router.write("ns", ("seed",), {"v": 0}).value
        cluster.sim.run_until(cluster.sim.now + 1.0)
        newer = router.write("ns", ("seed",), {"v": 1}).value
        source.wipe()
        dest.wipe()
        for i in range(6):
            source.apply_replica_write("a" if i % 2 else "b", (f"k{i}",), stamp)
        # The destination already holds a newer k0, the same k1 and an older k2.
        dest.apply_replica_write("b", ("k0",), newer)
        dest.apply_replica_write("a", ("k1",), stamp)
        source.apply_replica_write("b", ("k2",), newer)
        dest.apply_replica_write("b", ("k2",), stamp)
        taken = Cluster._copy_store(source, dest)
        # k0 refused (newer there); everything else is new, equal or fresher.
        assert taken == 5
        assert dest.peek("b", ("k0",)) == newer
        assert dest.peek("b", ("k2",)) == newer
        assert dest.key_count() == source.key_count() == 6

    def test_fresh_destination_takes_everything(self):
        cluster, _, written = _loaded_cluster("hash", keys=40)
        source = cluster.nodes[cluster.groups["group-0"].primary]
        fresh = cluster._new_node("group-0")
        assert Cluster._copy_store(source, fresh) == source.key_count() > 0
        assert fresh.scan_namespace("ns") == source.scan_namespace("ns")


def test_misplaced_keys_come_in_namespace_then_key_order():
    """A sweep reads each store unsorted; the keys it moves are handed on
    in namespace then key order, whatever order they were stored in."""
    cluster = make_cluster(groups=1, replication=2, partitioner_kind="hash")
    router = Router(cluster)
    keys = [(f"user{(i * 37) % 60:03d}",) for i in range(60)]
    for namespace in ("ns-b", "ns-a"):
        for key in keys:
            assert router.write(namespace, key, 1).success
    source = cluster.nodes[cluster.groups["group-0"].primary]
    assert [key for key, _ in source.scan_namespace("ns-a")] == keys
    cluster.partitioner.add_group("elsewhere")  # ownership moves, data not
    moved = [(namespace, key) for namespace, key, *_
             in cluster._misplaced(source, "group-0")]
    assert 0 < len(moved) < 120
    assert moved == sorted(moved)


# One property over every way the cluster moves data, checked against a dict.

_NS = "ns"
_KEYS = [(f"k{i:02d}",) for i in range(16)]
_key = st.integers(0, len(_KEYS) - 1)
_pick = st.integers(0, 63)
_movement_ops = st.lists(st.one_of(
    st.tuples(st.just("write"), _key, st.integers(0, 999)),
    st.tuples(st.just("write"), _key, st.integers(0, 999)),
    st.tuples(st.just("delete"), _key),
    st.tuples(st.just("add_group")),
    st.tuples(st.just("remove_group"), _pick),
    st.tuples(st.just("crash"), _pick),
    st.tuples(st.just("recover"), _pick),
    st.tuples(st.just("replace"), _pick),
    st.tuples(st.just("surge"), _pick),
    st.tuples(st.just("hibernate"), _pick),
    st.tuples(st.just("resume"), _pick),
    st.tuples(st.just("repartition"), _key, _pick),
), min_size=1, max_size=40)


def _apply_movement_op(cluster, router, model, op):
    """Run one op (indices wrap over what exists now); skip what the cluster
    documents as unsupported rather than what merely looks dangerous."""
    sim = cluster.sim
    groups = sorted(cluster.groups)
    node_ids = sorted(cluster.nodes)
    kind = op[0]

    def primary_alive(group):
        return cluster.nodes[group.primary].alive

    if kind in ("remove_group", "replace", "surge", "resume"):
        # These read one node as the stand-in for its group.  A node is only
        # that once the retry loop has caught it up on what was acknowledged
        # while it was down (deliveries are per target node, not re-routed).
        sim.run_until(sim.now + 2.0)
    if kind in ("write", "delete"):
        key = _KEYS[op[1]]
        result = (router.write(_NS, key, {"v": op[2]}) if kind == "write"
                  else router.delete(_NS, key))
        if result.success:
            model[key] = result.value
    elif kind == "add_group":
        if len(groups) < 5:
            cluster.add_replica_group()
    elif kind == "remove_group":
        group_id = groups[op[1] % len(groups)]
        if len(groups) == 1 or not cluster.live_members(group_id):
            with pytest.raises(ValueError):
                cluster.remove_replica_group(group_id)
        else:
            cluster.remove_replica_group(group_id)
    elif kind == "crash":
        cluster.nodes[node_ids[op[1] % len(node_ids)]].crash()
    elif kind == "recover":
        node_id = node_ids[op[1] % len(node_ids)]
        cluster.nodes[node_id].recover()
        cluster.reconcile_node(node_id)
    elif kind == "replace":
        node_id = node_ids[op[1] % len(node_ids)]
        group = cluster._owning_group(node_id)
        # Seeding reads the primary, else the departing node: one must be up.
        if primary_alive(group) or cluster.nodes[node_id].alive:
            assert cluster.replace_replica(node_id) in cluster.nodes
    elif kind == "surge":
        group = cluster.groups[groups[op[1] % len(groups)]]
        # A surge replica is seeded from the primary or not at all.
        if primary_alive(group) and len(group.node_ids) < 4:
            cluster.add_surge_replica(group.group_id)
    elif kind == "hibernate":
        node_id = node_ids[op[1] % len(node_ids)]
        if cluster._owning_group(node_id).primary != node_id:
            assert cluster.hibernate_node(node_id)
    elif kind == "resume":
        frozen = sorted(list(cluster._hibernated))
        if frozen:
            node_id = frozen[op[1] % len(frozen)]
            home = cluster.groups.get(cluster._hibernated[node_id][0])
            if home is None:
                assert cluster.resume_hibernated(node_id) is None
                cluster.drop_hibernated(node_id)
            elif primary_alive(home):  # catch-up reads the primary
                assert cluster.resume_hibernated(node_id) is not None
    elif kind == "repartition" and isinstance(cluster.partitioner, RangePartitioner):
        token, target = _KEYS[op[1]][0], groups[op[2] % len(groups)]
        try:
            cluster.split_partition(token)
        except PartitionerError:
            pass  # already a split point
        cluster.migrate_partition(token, target)
    sim.run_until(sim.now + 0.05)


def _quiesce(cluster):
    """End every outage, let retries and transfers finish, then run the
    anti-entropy pass (``reconcile_node``) on every node."""
    # Primaries catch up before anything is seeded from them again.
    _recover_and_reconcile(
        cluster, [node_id for node_id, node in cluster.nodes.items() if not node.alive])
    for node_id in list(cluster._hibernated):
        if cluster.resume_hibernated(node_id) is None:
            cluster.drop_hibernated(node_id)
    cluster.sim.run_until(cluster.sim.now + 150.0)
    for node_id in list(cluster.nodes):
        cluster.reconcile_node(node_id)
    cluster.sim.run_until(cluster.sim.now + 150.0)


@pytest.mark.property
@pytest.mark.parametrize("partitioner_kind", ["hash", "range"])
@given(ops=_movement_ops)
def test_no_sequence_of_data_movement_loses_or_strands_a_key(partitioner_kind, ops):
    """Routed writes and deletes interleaved with every topology change and
    node outage the cluster offers: once the cluster is whole and quiet again,
    it holds exactly what a plain dict of the acknowledged writes holds."""
    cluster = make_cluster(groups=2, replication=2, partitioner_kind=partitioner_kind)
    router = Router(cluster)
    model = {}
    for op in ops:
        _apply_movement_op(cluster, router, model, op)
    _quiesce(cluster)
    assert not cluster.active_migrations()
    assert cluster.replication.pending_count() == 0
    # Every key's newest value is on every member of the group that owns it.
    for key, newest in model.items():
        for node_id in cluster.group_for_key(_NS, key).node_ids:
            assert cluster.nodes[node_id].peek(_NS, key, include_tombstones=True) == newest, (
                key, node_id)
    # Nobody else holds it.
    for node_id, node in cluster.nodes.items():
        for key, _ in node.scan_namespace(_NS):
            assert node_id in cluster.group_for_key(_NS, key).node_ids, (key, node_id)
    # Tombstones are stored values, so the model's size is the key count.
    assert cluster.total_keys() == len(model)


# --------------------------------------------------------------------- router


class TestRouter:
    def _setup(self, **kwargs):
        cluster = make_cluster(**kwargs)
        return cluster, Router(cluster)

    def test_write_then_primary_read(self):
        _, router = self._setup()
        write = router.write("ns", ("k",), {"a": 1})
        assert write.success
        read = router.read("ns", ("k",), from_primary=True)
        assert read.success and read.value.value == {"a": 1}

    def test_versions_increment_on_overwrite(self):
        _, router = self._setup()
        first = router.write("ns", ("k",), {"a": 1})
        second = router.write("ns", ("k",), {"a": 2})
        assert second.value.version == first.value.version + 1

    def test_replica_read_catches_up_after_replication(self):
        cluster, router = self._setup(groups=1, replication=3)
        router.write("ns", ("k",), {"a": 1})
        cluster.sim.run_until(5.0)
        # After replication has applied, any replica should serve the value.
        for _ in range(10):
            result = router.read("ns", ("k",))
            assert result.success and result.value is not None

    def test_delete_is_visible(self):
        cluster, router = self._setup()
        router.write("ns", ("k",), {"a": 1})
        router.delete("ns", ("k",))
        result = router.read("ns", ("k",), from_primary=True)
        assert result.success and result.value is None

    def test_delete_then_recreate_at_same_timestamp_converges_everywhere(self):
        # A delete and a re-create issued at the same simulated time must not
        # tie under last-write-wins: the re-create's version advances past the
        # tombstone's, so every replica converges to the live row no matter
        # which propagation arrives last.
        cluster, router = self._setup(groups=1, replication=3)
        router.write("ns", ("k",), {"a": 1})
        router.delete("ns", ("k",))
        recreated = router.write("ns", ("k",), {"a": 2})
        assert recreated.value.version > 1
        cluster.sim.run_until(cluster.sim.now + 5.0)
        for node in cluster.nodes.values():
            value = node.peek("ns", ("k",))
            assert value is not None and value.value == {"a": 2}, node.node_id

    def test_quorum_write_fails_when_replicas_unreachable(self):
        cluster, router = self._setup(groups=1, replication=3)
        group = list(cluster.groups.values())[0]
        for node_id in group.node_ids[1:]:
            cluster.nodes[node_id].crash()
        result = router.write("ns", ("k",), {"a": 1}, write_quorum=3)
        assert not result.success

    def test_quorum_read_returns_newest(self):
        cluster, router = self._setup(groups=1, replication=3)
        router.write("ns", ("k",), {"a": 1})
        router.write("ns", ("k",), {"a": 2})
        cluster.sim.run_until(5.0)
        result = router.read("ns", ("k",), read_quorum=2)
        assert result.success and result.value.value == {"a": 2}

    def test_read_fails_when_all_replicas_down(self):
        cluster, router = self._setup(groups=1, replication=2)
        router.write("ns", ("k",), {"a": 1})
        for node in cluster.nodes.values():
            node.crash()
        result = router.read("ns", ("k",))
        assert not result.success

    def test_range_read_collects_prefix(self):
        cluster, router = self._setup(groups=2, replication=2)
        for i in range(5):
            router.write("idx", ("alice", f"0{i}"), {"i": i})
        cluster.sim.run_until(5.0)
        result = router.read_range(prefix_range("idx", ("alice",)))
        assert result.success
        assert len(result.rows) == 5

    def test_range_read_reverse_with_limit(self):
        cluster, router = self._setup(groups=1, replication=1)
        for i in range(5):
            router.write("idx", ("alice", i), {"i": i})
        result = router.read_range(prefix_range("idx", ("alice",)), limit=2, reverse=True)
        assert [key[1] for key, _ in result.rows] == [4, 3]

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("limit", [None, 1, 3, 50])
    @pytest.mark.parametrize("cluster_size", ["one-group", "three-groups"])
    def test_range_read_equals_sort_and_slice(self, cluster_size, limit, reverse):
        """A range read is its owning group's primary scan, uncopied: in scan
        order, cut to ``limit``, tombstones skipped, and no other user's rows
        -- whether every user shares the one group or the users are spread
        over three."""
        groups = 1 if cluster_size == "one-group" else 3
        cluster, router = self._setup(groups=groups, replication=2)
        for user in range(8):
            for day in range(5):
                router.write("idx", (f"u{user}", day), {"d": day})
        router.delete("idx", ("u3", 1))
        cluster.sim.run_until(cluster.sim.now + 5.0)
        owners = {cluster.group_for_key("idx", (f"u{user}",)).group_id
                  for user in range(8)}
        assert len(owners) == groups
        key_range = prefix_range("idx", ("u3",))
        owner = cluster.group_for_key("idx", ("u3",))
        store = cluster.nodes[owner.primary]._namespaces["idx"]  # noqa: SLF001
        expected = store.range(key_range.start, key_range.end, limit, reverse)
        # ``limit`` bounds the entries read: the tombstone at day 1 uses one.
        days = [0, 1, 2, 3, 4][::-1 if reverse else 1][:limit]
        assert [key for key, _ in expected] == [("u3", day) for day in days if day != 1]
        result = router.read_range(key_range, limit=limit, reverse=reverse,
                                   from_primary=True)
        assert result.success and result.rows == expected
        assert all(not value.tombstone for _, value in result.rows)

    def test_a_range_spanning_tokens_is_rejected(self):
        cluster, router = self._setup(groups=3, replication=2)
        for user in range(8):
            router.write("idx", (f"u{user}", 0), {"d": 0})
        cluster.sim.run_until(cluster.sim.now + 5.0)
        with pytest.raises(ValueError):
            router.read_range(KeyRange("idx", ("u0",), ("u9",)))
        assert router.op_counts()["range"] == 0

    def test_op_counts_track_operations(self):
        _, router = self._setup()
        router.write("ns", ("k",), {"a": 1})
        router.read("ns", ("k",))
        counts = router.op_counts()
        assert counts["write"] == 1
        assert counts["read"] == 1


# ----------------------------------------------------------------- replication


class TestReplication:
    def test_lag_is_recorded_after_propagation(self):
        cluster = make_cluster(groups=1, replication=3)
        router = Router(cluster)
        lags = []
        cluster.replication.add_lag_listener(lambda record: lags.append(record.lag))
        router.write("ns", ("k",), {"a": 1})
        cluster.sim.run_until(5.0)
        assert len(lags) == 2  # two replicas
        assert all(lag > 0 for lag in lags)
        assert cluster.replication.pending_count() == 0

    def test_pending_count_before_time_advances(self):
        cluster = make_cluster(groups=1, replication=3)
        router = Router(cluster)
        router.write("ns", ("k",), {"a": 1})
        assert cluster.replication.pending_count() == 2

    def test_propagation_retries_after_partition_heals(self):
        cluster = make_cluster(groups=1, replication=2)
        router = Router(cluster)
        group = list(cluster.groups.values())[0]
        replica = group.node_ids[1:][0]
        partition = cluster.network.partition({group.primary}, {replica})
        router.write("ns", ("k",), {"a": 1})
        cluster.sim.run_until(2.0)
        assert cluster.nodes[replica].peek("ns", ("k",)) is None
        cluster.network.heal(partition)
        cluster.sim.run_until(10.0)
        assert cluster.nodes[replica].peek("ns", ("k",)) is not None

    def test_lag_listener_invoked(self):
        cluster = make_cluster(groups=1, replication=2)
        router = Router(cluster)
        seen = []
        cluster.replication.add_lag_listener(lambda record: seen.append(record.lag))
        router.write("ns", ("k",), {"a": 1})
        cluster.sim.run_until(5.0)
        assert len(seen) == 1


# ------------------------------------------------------------------ durability


class TestDurabilityModel:
    def test_more_replicas_more_durable(self):
        model = DurabilityModel()
        assert model.durability(3) > model.durability(2) > model.durability(1)

    def test_required_replication_factor_meets_target(self):
        model = DurabilityModel()
        factor = model.required_replication_factor(0.99999)
        assert model.durability(factor) >= 0.99999
        if factor > 1:
            assert model.durability(factor - 1) < 0.99999

    def test_relaxed_durability_saves_replicas(self):
        model = DurabilityModel()
        strict = model.required_replication_factor(0.9999999)
        relaxed = model.required_replication_factor(0.99)
        assert relaxed <= strict

    def test_unreachable_target_raises(self):
        model = DurabilityModel(node_mttf_hours=1.0, re_replication_hours=10.0)
        with pytest.raises(ValueError):
            model.required_replication_factor(0.9999999999)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DurabilityModel(node_mttf_hours=0)
        with pytest.raises(ValueError):
            DurabilityModel().loss_probability(0)
        with pytest.raises(ValueError):
            DurabilityModel().required_replication_factor(1.5)

    @pytest.mark.property
    @given(factor=st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_loss_probability_in_unit_interval(self, factor):
        probability = DurabilityModel().loss_probability(factor)
        assert 0.0 <= probability <= 1.0


# -------------------------------------------------------------------- failures


class TestFailureInjector:
    def test_crash_and_recover(self):
        cluster = make_cluster(groups=1, replication=2)
        injector = FailureInjector(cluster)
        node_id = list(cluster.nodes)[0]
        injector.crash_node(node_id, at=10.0, duration=20.0)
        cluster.sim.run_until(15.0)
        assert not cluster.nodes[node_id].alive
        cluster.sim.run_until(40.0)
        assert cluster.nodes[node_id].alive

    def test_crash_unknown_node_raises(self):
        cluster = make_cluster()
        with pytest.raises(KeyError):
            FailureInjector(cluster).crash_node("nope", at=1.0, duration=1.0)

    def test_fault_records_kept(self):
        cluster = make_cluster(groups=1, replication=2)
        injector = FailureInjector(cluster)
        injector.crash_node(list(cluster.nodes)[0], at=1.0, duration=2.0)
        assert len(injector.faults()) == 1
