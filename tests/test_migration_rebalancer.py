"""Tests for targeted migration, dual-routing, and the hot-partition rebalancer.

Covers the live-migration mechanics (split/merge/migrate with in-flight
windows and deferred reclamation), the router's dual-routing guarantees while
a migration is in flight — including under node failures injected
mid-migration — session guarantees executed *during* a migration, and the
rebalancer's detection/decision logic plus its REPARTITION wiring into the
provisioning controller.
"""

from __future__ import annotations

import pytest

from repro.core.consistency.spec import SessionGuarantee
from repro.core.engine import Scads
from repro.core.provisioning.monitor import WindowObservation
from repro.core.provisioning.planner import CapacityPlan
from repro.core.schema import EntitySchema, Field
from repro.metrics.sla import SLAReport
from repro.ml.features import WorkloadFeatures
from repro.sim.simulator import Simulator
from repro.storage.cluster import Cluster
from repro.storage.rebalancer import PartitionLoadTracker, RebalanceAction, Rebalancer
from repro.storage.router import Router

pytestmark = pytest.mark.tier1


def make_range_cluster(groups=2, replication=2, seed=0, rate=100.0,
                       node_capacity_ops=1000.0):
    sim = Simulator(seed=seed)
    cluster = Cluster(simulator=sim, replication_factor=replication,
                      initial_groups=groups, partitioner_kind="range",
                      node_capacity_ops=node_capacity_ops)
    cluster.movement_rate_keys_per_sec = rate
    return cluster, Router(cluster)


def load_keys(router, count=100, namespace="ns"):
    keys = [(f"u{i:03d}",) for i in range(count)]
    for key in keys:
        router.write(namespace, key, {"v": key[0]})
    return keys


# ------------------------------------------------------------- migration core


class TestTargetedMigration:
    def test_split_is_free_and_migrate_moves_only_the_range(self):
        cluster, router = make_range_cluster()
        load_keys(router, 100)
        cluster.sim.run_until(cluster.sim.now + 5.0)
        moved_before = cluster.keys_moved_total
        cluster.split_partition("u050")
        assert cluster.keys_moved_total == moved_before, "splits must move nothing"
        record = cluster.migrate_partition("u050", "group-1")
        assert record is not None
        assert record.keys_moved == 50
        assert cluster.keys_moved_total == moved_before + 50
        assert record.duration > 0

    def test_source_copies_reclaimed_only_at_completion(self):
        cluster, router = make_range_cluster(rate=10.0)  # long in-flight window
        load_keys(router, 40)
        cluster.sim.run_until(cluster.sim.now + 5.0)
        cluster.split_partition("u020")
        record = cluster.migrate_partition("u020", "group-1")
        source_primary = cluster.nodes[cluster.groups["group-0"].primary]
        assert source_primary.key_count() == 40, "source keeps copies in flight"
        assert cluster.active_migrations() == [record]
        cluster.sim.run_until(record.end_time + 1.0)
        assert record.completed
        assert not cluster.active_migrations()
        assert source_primary.key_count() == 20, "source reclaimed at completion"

    def test_reads_and_writes_during_migration_are_never_dropped(self):
        cluster, router = make_range_cluster(rate=10.0)
        load_keys(router, 40)
        cluster.sim.run_until(cluster.sim.now + 5.0)
        cluster.split_partition("u020")
        cluster.migrate_partition("u020", "group-1")
        read = router.read("ns", ("u030",), from_primary=True)
        assert read.success and read.value.value == {"v": "u030"}
        write = router.write("ns", ("u030",), {"v": "new"})
        assert write.success
        cluster.sim.run_until(cluster.sim.now + 30.0)
        after = router.read("ns", ("u030",), from_primary=True)
        assert after.success and after.value.value == {"v": "new"}

    def test_reads_fall_back_to_source_when_target_group_fails_mid_migration(self):
        cluster, router = make_range_cluster(rate=10.0)
        load_keys(router, 40)
        cluster.sim.run_until(cluster.sim.now + 5.0)
        cluster.split_partition("u020")
        cluster.migrate_partition("u020", "group-1")
        for node_id in cluster.groups["group-1"].node_ids:
            cluster.nodes[node_id].crash()
        read = router.read("ns", ("u030",))
        assert read.success, "dual-routing must serve from the source group"
        assert read.node_id.endswith("group-0")

    def test_writes_fall_back_to_source_when_target_primary_is_down(self):
        cluster, router = make_range_cluster(rate=10.0)
        load_keys(router, 40)
        cluster.sim.run_until(cluster.sim.now + 5.0)
        cluster.split_partition("u020")
        record = cluster.migrate_partition("u020", "group-1")
        cluster.nodes[cluster.groups["group-1"].primary].crash()
        write = router.write("ns", ("u030",), {"v": "fallback"})
        assert write.success
        assert write.node_id.endswith("group-0")
        cluster.nodes[cluster.groups["group-1"].primary].recover()
        cluster.sim.run_until(record.end_time + 10.0)
        read = router.read("ns", ("u030",), from_primary=True)
        assert read.success and read.value.value == {"v": "fallback"}, \
            "a fallback write must survive source reclamation"

    def test_range_reads_fall_back_to_source_for_in_flight_partition(self):
        cluster, router = make_range_cluster(rate=10.0)
        for i in range(5):
            router.write("ns", ("u001", i), {"i": i})
        cluster.sim.run_until(cluster.sim.now + 5.0)
        cluster.split_partition("u001")
        cluster.migrate_partition("u001", "group-1")
        for node_id in cluster.groups["group-1"].node_ids:
            cluster.nodes[node_id].crash()
        from repro.storage.records import prefix_range
        result = router.read_range(prefix_range("ns", ("u001",)))
        assert result.success and len(result.rows) == 5

    def test_source_crash_mid_migration_leaves_data_correct(self):
        cluster, router = make_range_cluster(rate=10.0)
        load_keys(router, 40)
        cluster.sim.run_until(cluster.sim.now + 5.0)
        cluster.split_partition("u020")
        record = cluster.migrate_partition("u020", "group-1")
        for node_id in cluster.groups["group-0"].node_ids:
            cluster.nodes[node_id].crash()
        cluster.sim.run_until(record.end_time + 1.0)  # completion skips dead source
        assert record.completed
        for i in range(20, 40):
            read = router.read("ns", (f"u{i:03d}",), from_primary=True)
            assert read.success and read.value is not None

    def test_ping_pong_migration_never_loses_keys(self):
        # A partition migrated away and back while the first transfer is
        # still in flight: the first completion must not reclaim keys the
        # source meanwhile re-owns.
        cluster, router = make_range_cluster(rate=10.0)
        load_keys(router, 40)
        cluster.sim.run_until(cluster.sim.now + 5.0)
        cluster.split_partition("u020")
        away = cluster.migrate_partition("u020", "group-1")
        back = cluster.migrate_partition("u020", "group-0")
        assert back is not None and not away.completed
        cluster.sim.run_until(max(away.end_time, back.end_time) + 30.0)
        for i in range(20, 40):
            read = router.read("ns", (f"u{i:03d}",), from_primary=True)
            assert read.success and read.value is not None, i

    def test_fallback_write_preserves_version_order(self):
        cluster, router = make_range_cluster(rate=10.0)
        for _ in range(3):
            last = router.write("ns", ("u030",), {"v": "x"})
        assert last.value.version == 3
        cluster.sim.run_until(cluster.sim.now + 5.0)
        cluster.split_partition("u020")
        cluster.migrate_partition("u020", "group-1")
        cluster.nodes[cluster.groups["group-1"].primary].crash()
        fallback = router.write("ns", ("u030",), {"v": "fallback"})
        assert fallback.success
        assert fallback.value.version == 4, \
            "a fallback write must continue the version sequence, not reset it"

    def test_chained_migrations_dual_route_to_every_source(self):
        sim = Simulator(seed=2)
        cluster = Cluster(simulator=sim, replication_factor=2, initial_groups=3,
                          partitioner_kind="range")
        cluster.movement_rate_keys_per_sec = 1.0
        router = Router(cluster)
        load_keys(router, 30)
        sim.run_until(sim.now + 5.0)
        cluster.split_partition("u010")
        first = cluster.migrate_partition("u010", "group-1")
        second = cluster.migrate_partition("u010", "group-2")
        assert first is not None and second is not None
        assert not first.completed and not second.completed
        # The newest owner (group-2) fails entirely: reads must fall back
        # through the chain of sources that still hold copies.
        for node_id in cluster.groups["group-2"].node_ids:
            cluster.nodes[node_id].crash()
        read = router.read("ns", ("u015",))
        assert read.success and read.value is not None
        write = router.write("ns", ("u016",), {"v": "chained"})
        assert write.success
        for node_id in cluster.groups["group-2"].node_ids:
            cluster.nodes[node_id].recover()
        sim.run_until(max(first.end_time, second.end_time) + 120.0)
        final = router.read("ns", ("u016",), from_primary=True)
        assert final.success and final.value.value == {"v": "chained"}

    def test_target_outage_longer_than_retry_budget_loses_nothing(self):
        # The catch-up deliveries to a downed target retry for ~100 simulated
        # seconds and then give up; reclamation must wait for the target to
        # come back (and refresh its copies) rather than delete the last ones.
        cluster, router = make_range_cluster(rate=10.0)
        load_keys(router, 40)
        cluster.sim.run_until(cluster.sim.now + 5.0)
        cluster.split_partition("u020")
        record = cluster.migrate_partition("u020", "group-1")
        for node_id in cluster.groups["group-1"].node_ids:
            cluster.nodes[node_id].crash()
        cluster.sim.run_until(record.end_time + 200.0)  # outage outlives retries
        assert not record.completed, "completion must wait for the target"
        for node_id in cluster.groups["group-1"].node_ids:
            cluster.nodes[node_id].recover()
        cluster.sim.run_until(cluster.sim.now + 30.0)
        assert record.completed
        for i in range(20, 40):
            key = (f"u{i:03d}",)
            read = router.read("ns", key, from_primary=True)
            assert read.success and read.value is not None, key
            for node_id in cluster.groups["group-1"].node_ids:
                assert cluster.nodes[node_id].peek("ns", key) is not None, \
                    (node_id, key)

    def test_migrate_with_dead_source_primary_is_refused(self):
        # Reassigning ownership when no data can move would make the range
        # unreachable; the migration must be refused instead.
        cluster, router = make_range_cluster()
        load_keys(router, 40)
        cluster.sim.run_until(cluster.sim.now + 5.0)
        cluster.split_partition("u020")
        cluster.nodes[cluster.groups["group-0"].primary].crash()
        assert cluster.migrate_partition("u020", "group-1") is None
        assert cluster.partitioner.partition_for_token("u020").owner == "group-0"
        read = router.read("ns", ("u030",))
        assert read.success and read.value is not None, \
            "the surviving replica must keep serving the un-migrated range"

    def test_merge_requires_migration_only_across_owners(self):
        cluster, router = make_range_cluster()
        load_keys(router, 60)
        cluster.sim.run_until(cluster.sim.now + 5.0)
        cluster.split_partition("u020")
        cluster.split_partition("u040")
        # Merging ['', 'u020') with its right neighbour ['u020', 'u040').
        assert cluster.merge_partitions("u000") == 0, "same-owner merge is free"
        record = cluster.migrate_partition("u040", "group-1")
        cluster.sim.run_until(record.end_time + 1.0)
        moved = cluster.merge_partitions("u000")
        assert moved == 20, "cross-owner merge must move the right-hand keys"
        cluster.sim.run_until(cluster.sim.now + 30.0)
        assert len(cluster.partitioner.partitions()) == 1


# -------------------------------------------- session guarantees under chaos


def build_session_engine():
    engine = Scads(seed=11, autoscale=False, initial_groups=2,
                   partitioner_kind="range", replication_factor=2)
    engine.register_entity(EntitySchema(
        "profiles", key_fields=[Field("user_id")], value_fields=[Field("bio")],
    ))
    tokens = [f"u{i:03d}" for i in range(40)]
    engine.cluster.partitioner.set_splits(["", tokens[20]], ["group-0", "group-1"])
    for token in tokens:
        engine.put("profiles", {"user_id": token, "bio": "original"})
    engine.settle(2.0)
    engine.cluster.movement_rate_keys_per_sec = 1.0  # long in-flight windows
    return engine


class TestSessionGuaranteesDuringMigration:
    def test_read_your_writes_holds_during_in_flight_migration(self):
        engine = build_session_engine()
        engine.sessions.open("alice", SessionGuarantee(read_your_writes=True))
        engine.cluster.split_partition("u010")
        record = engine.cluster.migrate_partition("u010", "group-1")
        assert record is not None and not record.completed
        write = engine.put("profiles", {"user_id": "u012", "bio": "mid-flight"},
                           session_id="alice")
        assert write.success
        read = engine.get("profiles", ("u012",), session_id="alice")
        assert read.success and read.row["bio"] == "mid-flight"

    def test_monotonic_reads_hold_during_in_flight_migration(self):
        engine = build_session_engine()
        engine.sessions.open(
            "bob", SessionGuarantee(read_your_writes=True, monotonic_reads=True))
        engine.put("profiles", {"user_id": "u015", "bio": "v2"}, session_id="bob")
        first = engine.get("profiles", ("u015",), session_id="bob")
        assert first.success and first.row["bio"] == "v2"
        engine.cluster.split_partition("u010")
        engine.cluster.migrate_partition("u010", "group-1")
        again = engine.get("profiles", ("u015",), session_id="bob")
        assert again.success and again.row["bio"] == "v2", \
            "a session must never observe an older version across a migration"

    def test_session_reads_survive_failure_injected_mid_migration(self):
        engine = build_session_engine()
        engine.sessions.open("carol", SessionGuarantee(read_your_writes=True))
        engine.put("profiles", {"user_id": "u005", "bio": "pre-chaos"},
                   session_id="carol")
        engine.settle(2.0)
        engine.cluster.split_partition("u010")
        record = engine.cluster.migrate_partition("u010", "group-1")
        assert record is not None and not record.completed
        # Kill a target replica mid-flight; the primary and the source group
        # both still hold the data, so the session read must succeed.
        target = engine.cluster.groups["group-1"]
        engine.cluster.nodes[target.node_ids[-1]].crash()
        read = engine.get("profiles", ("u005",), session_id="carol")
        assert read.success and read.row["bio"] == "pre-chaos"
        engine.cluster.nodes[target.node_ids[-1]].recover()
        engine.run_for(record.end_time - engine.now + 5.0)
        after = engine.get("profiles", ("u005",), session_id="carol")
        assert after.success and after.row["bio"] == "pre-chaos"


# ------------------------------------------------------ load tracker & rebalancer


class TestPartitionLoadTracker:
    def test_counts_decay_with_half_life(self):
        tracker = PartitionLoadTracker()
        tracker.half_life = 10.0
        for _ in range(100):
            tracker.note("hot", False, now=0.0)
        assert tracker.total_load() == pytest.approx(100.0)
        tracker.note("hot", False, now=10.0)
        assert tracker.total_load() == pytest.approx(51.0, rel=0.05)

    def test_sketch_size_stays_bounded(self):
        tracker = PartitionLoadTracker()
        tracker.max_tokens, tracker.half_life = 64, 1e9
        for i in range(1000):
            tracker.note(f"t{i:04d}", False, now=0.0)
        assert len(tracker._counts) <= 64  # noqa: SLF001

    def test_split_point_halves_tracked_load(self):
        tracker = PartitionLoadTracker()
        tracker.half_life = 1e9
        for token, count in (("a", 10), ("b", 40), ("c", 40), ("d", 10)):
            for _ in range(count):
                tracker.note(token, False, now=0.0)
        split = tracker.split_point("", None)
        assert split == "c"
        left = tracker.load_between("", split)
        right = tracker.load_between(split, None)
        assert left == 50 and right == 50

    def test_split_point_needs_two_tracked_tokens(self):
        tracker = PartitionLoadTracker()
        tracker.note("only", False, now=0.0)
        assert tracker.split_point("", None) is None

    def test_rate_estimate_matches_offered_rate(self):
        tracker = PartitionLoadTracker()
        tracker.half_life = 20.0
        now = 0.0
        while now < 200.0:  # 50 ops/sec for 200 seconds
            tracker.note(f"t{int(now) % 7}", False, now=now)
            now += 0.02
        assert tracker.rate_estimate() == pytest.approx(50.0, rel=0.15)


def skewed_cluster():
    """Two groups, all keys and all tracked load on group-0."""
    cluster, router = make_range_cluster(groups=2, replication=2, seed=3,
                                         node_capacity_ops=30.0)
    load_keys(router, 40)
    cluster.sim.run_until(cluster.sim.now + 5.0)
    rebalancer = Rebalancer(cluster, hot_utilisation=0.5, cold_utilisation=0.3)
    rebalancer.receiver_target_utilisation = 0.5
    rebalancer.merge_load_fraction = 0.1
    tracker = rebalancer.tracker
    # Synthesise a sustained skewed load profile: u005 very hot, the rest of
    # group-0's range warm, group-1 idle.
    now = cluster.sim.now
    for _ in range(3000):
        tracker.note("u005", False, now)
    for i in range(40):
        for _ in range(25):
            tracker.note(f"u{i:03d}", False, now)
    for node_id in cluster.groups["group-0"].node_ids:
        node = cluster.nodes[node_id]
        node._ewma_interarrival = 1.0 / 60.0  # looks busy
        node._last_arrival = now
        node._latency.set_utilisation(1.0)
    return cluster, rebalancer


class TestRebalancer:
    def test_find_imbalance_spots_hot_and_cold_groups(self):
        cluster, rebalancer = skewed_cluster()
        assert rebalancer.find_imbalance() == ("group-0", "group-1")

    def test_rebalance_once_splits_at_load_median_and_migrates(self):
        cluster, rebalancer = skewed_cluster()
        action = rebalancer.rebalance_once()
        assert action is not None
        assert action.kind in ("split_migrate", "migrate")
        assert 0 < action.keys_moved < 40, "must move a strict subset of keys"
        owners = {p.owner for p in cluster.partitioner.partitions()}
        assert owners == {"group-0", "group-1"}

    def test_cooldown_blocks_immediate_reaction(self):
        cluster, rebalancer = skewed_cluster()
        rebalancer.cooldown = 120.0
        assert rebalancer.rebalance_once() is not None
        assert rebalancer.in_cooldown()
        assert rebalancer.rebalance_once() is None

    def test_merge_cold_partitions_reclaims_quiet_splits(self):
        cluster, rebalancer = skewed_cluster()
        cluster.split_partition("u030")
        cluster.split_partition("u035")
        # Tokens past u030 carry no tracked load relative to the hot head, so
        # the same-owner pair (u030..u035, u035..) is merge-eligible.
        action = rebalancer.merge_cold_partitions()
        assert action is not None and action.kind == "merge"
        assert action.keys_moved == 0


# ------------------------------------------------- controller REPARTITION branch


def observation(violated: bool) -> WindowObservation:
    report = SLAReport(op_type="read", target_percentile=99.0, target_latency=0.15,
                       observed_fraction_within=0.5 if violated else 1.0,
                       observed_percentile_latency=1.0 if violated else 0.01,
                       request_count=100, satisfied=not violated)
    features = WorkloadFeatures(request_rate=100.0, write_fraction=0.1,
                                node_count=4.0, per_node_rate=25.0,
                                mean_utilisation=0.2, max_utilisation=0.9,
                                pending_updates=0.0)
    return WindowObservation(time=0.0, duration=30.0, request_rate=100.0,
                             write_fraction=0.1, features=features,
                             sla_reports={"read": report})


def plan(candidate: bool, target_nodes: int = 4) -> CapacityPlan:
    return CapacityPlan(target_nodes=target_nodes, forecast_rate=100.0,
                        latency_required_nodes=target_nodes,
                        utilisation_required_nodes=2, staleness_pressure=False,
                        reason="test", repartition_candidate=candidate)


class TestControllerRepartitionBranch:
    def make_engine(self):
        engine = Scads(seed=5, autoscale=False, initial_groups=2,
                       partitioner_kind="range", repartition=True,
                       replication_factor=2)
        return engine

    def test_hotspot_violation_prefers_repartition_over_renting(self):
        engine = self.make_engine()
        engine.rebalancer.find_imbalance = lambda: ("group-0", "group-1")
        engine.rebalancer.rebalance_once = lambda: RebalanceAction(
            time=0.0, kind="split_migrate", detail="stub", keys_moved=3)
        action = engine.controller._act(plan(candidate=True), observation(True))
        assert action.kind == "repartition"
        assert engine.pool.active_count() == engine.cluster.node_count(), \
            "no instances may be rented for a repartition"

    def test_settling_migration_holds_instead_of_renting(self):
        engine = self.make_engine()
        engine.rebalancer.find_imbalance = lambda: ("group-0", "group-1")
        engine.rebalancer.in_cooldown = lambda: True
        action = engine.controller._act(plan(candidate=True), observation(True))
        assert action.kind == "hold"
        assert "settle" in action.reason

    def test_unresolvable_hotspot_rents_a_single_group(self):
        engine = self.make_engine()
        engine.rebalancer.find_imbalance = lambda: ("group-0", "group-1")
        engine.rebalancer.rebalance_once = lambda: None
        before = engine.pool.active_count() + engine.pool.booting_count()
        action = engine.controller._act(plan(candidate=True), observation(True))
        assert action.kind == "scale_up"
        assert "unresolved" in action.reason
        after = engine.pool.active_count() + engine.pool.booting_count()
        assert after - before == engine.cluster.replication_factor

    def test_hash_hotspot_rents_one_group_without_moving_a_key(self):
        # Under hash the rebalancer has no partitions to move, so a real
        # hot/cold imbalance in a violated window rents exactly one group.
        engine = Scads(seed=5, autoscale=False, initial_groups=2,
                       partitioner_kind="hash", repartition=True,
                       replication_factor=2)
        cluster = engine.cluster
        for node_id in cluster.groups["group-0"].node_ids:
            cluster.nodes[node_id]._latency.set_utilisation(1.0)
        assert engine.rebalancer.find_imbalance() == ("group-0", "group-1")
        moved_before = cluster.keys_moved_total
        before = engine.pool.active_count() + engine.pool.booting_count()
        action = engine.controller._act(plan(candidate=True), observation(True))
        assert action.kind == "scale_up"
        assert action.reason.endswith("hotspot unresolved by repartitioning")
        after = engine.pool.active_count() + engine.pool.booting_count()
        assert after - before == cluster.replication_factor
        assert engine.rebalancer._actions == []  # noqa: SLF001
        assert cluster.keys_moved_total == moved_before
        assert not cluster.active_migrations()

    def test_satisfied_sla_never_triggers_repartition(self):
        engine = self.make_engine()
        engine.rebalancer.rebalance_once = lambda: RebalanceAction(
            time=0.0, kind="migrate", detail="stub")
        action = engine.controller._act(plan(candidate=True, target_nodes=4),
                                        observation(False))
        assert action.kind != "repartition"

    def test_planner_flags_hotspot_windows(self):
        engine = self.make_engine()
        result = engine.planner.plan(
            forecast_rate=50.0, write_fraction=0.1, slas=engine.slas,
            spec=engine.spec, mean_utilisation=0.2, max_utilisation=0.9)
        assert result.repartition_candidate
        result = engine.planner.plan(
            forecast_rate=50.0, write_fraction=0.1, slas=engine.slas,
            spec=engine.spec, mean_utilisation=0.7, max_utilisation=0.9)
        assert not result.repartition_candidate, \
            "uniformly hot clusters need capacity, not repartitioning"


# ---------------------------------------------- migration-aware key accounting


class TestMigrationAwareAccounting:
    def test_total_keys_does_not_double_count_in_flight_copies(self):
        cluster, router = make_range_cluster(rate=10.0)  # long in-flight window
        load_keys(router, 40)
        cluster.sim.run_until(cluster.sim.now + 5.0)
        assert cluster.total_keys() == 40
        cluster.split_partition("u020")
        record = cluster.migrate_partition("u020", "group-1")
        assert cluster.active_migrations() == [record]
        # Source and target primaries both hold the 20 moved keys, but each
        # logical key must be billed exactly once.
        source_primary = cluster.nodes[cluster.groups["group-0"].primary]
        target_primary = cluster.nodes[cluster.groups["group-1"].primary]
        assert source_primary.key_count() + target_primary.key_count() == 60
        assert cluster.total_keys() == 40
        cluster.sim.run_until(record.end_time + 1.0)
        assert record.completed
        assert cluster.total_keys() == 40

    def test_total_keys_counts_writes_during_the_in_flight_window_once(self):
        cluster, router = make_range_cluster(rate=10.0)
        load_keys(router, 40)
        cluster.sim.run_until(cluster.sim.now + 5.0)
        cluster.split_partition("u020")
        cluster.migrate_partition("u020", "group-1")
        # A brand-new key written mid-migration lands at the new owner and is
        # mirrored to the source (dual-routing); still one logical key.
        assert router.write("ns", ("u025x",), {"v": "new"}).success
        assert cluster.total_keys() == 41


# ------------------------------------------------- post-recovery reconciliation


class TestRecoveryReconciliation:
    def test_recovered_migration_source_reclaims_stale_copies(self):
        from repro.storage.failure import FailureInjector

        cluster, router = make_range_cluster(rate=10.0)
        injector = FailureInjector(cluster)
        load_keys(router, 40)
        cluster.sim.run_until(cluster.sim.now + 5.0)
        cluster.split_partition("u020")
        record = cluster.migrate_partition("u020", "group-1")
        # Crash the whole source group mid-flight; recover it well after the
        # transfer completes, so completion-time reclamation skipped it.
        recovery_at = record.end_time + 20.0
        for node_id in cluster.groups["group-0"].node_ids:
            injector.crash_node(node_id, at=cluster.sim.now + 0.1,
                                duration=recovery_at - cluster.sim.now)
        cluster.sim.run_until(cluster.sim.now + 1.0)
        assert not record.completed
        assert cluster.total_keys() == 40, \
            "in-flight accounting must hold even with the source primary down"
        cluster.sim.run_until(record.end_time + 5.0)
        assert record.completed
        source_primary = cluster.nodes[cluster.groups["group-0"].primary]
        assert source_primary.key_count() == 40, \
            "a crashed source keeps its stale copies at completion"
        cluster.sim.run_until(recovery_at + 5.0)
        assert source_primary.alive
        assert source_primary.key_count() == 20, \
            "recovery reconciliation reclaims the stale copies"
        assert cluster.total_keys() == 40
        # The moved keys are still served by the new owner.
        read = router.read("ns", ("u030",), from_primary=True)
        assert read.success and read.value.value == {"v": "u030"}

    def test_reconciliation_spares_in_flight_sources_and_owned_keys(self):
        from repro.storage.failure import FailureInjector

        cluster, router = make_range_cluster(rate=1.0)  # very long transfer
        load_keys(router, 40)
        cluster.sim.run_until(cluster.sim.now + 5.0)
        cluster.split_partition("u020")
        record = cluster.migrate_partition("u020", "group-1")
        assert not record.completed
        source_primary = cluster.nodes[cluster.groups["group-0"].primary]
        # Reconciling mid-flight must not touch the dual-routed source copies.
        assert cluster.reconcile_node(source_primary.node_id) == 0
        assert source_primary.key_count() == 40
        # A recovery while the migration is still in flight is equally safe.
        injector = FailureInjector(cluster)
        injector.crash_node(source_primary.node_id, at=cluster.sim.now + 0.1,
                            duration=1.0)
        cluster.sim.run_until(cluster.sim.now + 3.0)
        assert source_primary.alive
        assert source_primary.key_count() == 40


# ------------------------------------------- tracker-fed SLAMonitor feature


class TestTrackerFedMonitorFeature:
    def test_mean_utilisation_feature_uses_decayed_count_inversion(self):
        engine = Scads(seed=2, autoscale=False, partitioner_kind="range",
                       repartition=True, initial_groups=2)
        engine.register_entity(EntitySchema(
            "profiles", key_fields=[Field("user_id")], value_fields=[Field("bio")],
        ))
        engine.start()
        engine.put("profiles", {"user_id": "u1", "bio": "x"})
        engine.settle(1.0)
        tracker = engine.rebalancer.tracker
        for _ in range(200):
            tracker.note("u1", False, engine.now)
        observation = engine.monitor.close_window(engine.now + 30.0)
        expected = (tracker.rate_estimate()
                    / engine.cluster.stats().total_capacity_ops)
        assert observation.features.mean_utilisation == pytest.approx(expected, rel=0.05)

    def test_without_rebalancer_the_ewma_mean_is_kept(self):
        engine = Scads(seed=2, autoscale=False, initial_groups=2,
                       repartition=False)
        engine.register_entity(EntitySchema(
            "profiles", key_fields=[Field("user_id")], value_fields=[Field("bio")],
        ))
        engine.start()
        engine.put("profiles", {"user_id": "u1", "bio": "x"})
        engine.settle(1.0)
        observation = engine.monitor.close_window(engine.now + 30.0)
        assert observation.features.mean_utilisation == pytest.approx(
            engine.cluster.stats().mean_utilisation, rel=0.2)
