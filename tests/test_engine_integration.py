"""Integration tests of the SCADS engine: consistency-aware reads and writes,
query execution over maintained indexes, arbitration under partitions, and
durability-driven replication."""

from __future__ import annotations

import pytest

from repro import Scads
from repro.core.consistency.spec import (
    Axis,
    ConsistencySpec,
    DurabilitySLA,
    ReadConsistency,
    SessionGuarantee,
    WriteConsistency,
    WritePolicy,
)
from repro.core.query.analyzer import QueryRejected, RejectionReason
from repro.core.query.plans import entity_namespace
from repro.core.schema import EntitySchema, Field, FieldType
from repro.experiments.harness import build_engine_and_app
from repro.storage.failure import FailureInjector

pytestmark = pytest.mark.tier1


def simple_engine(**kwargs) -> Scads:
    defaults = dict(seed=3, initial_groups=2, autoscale=False)
    defaults.update(kwargs)
    engine = Scads(**defaults)
    engine.register_entity(EntitySchema(
        name="profiles",
        key_fields=[Field("user_id")],
        value_fields=[Field("name"), Field("birthday")],
    ))
    engine.register_entity(EntitySchema(
        name="friendships",
        key_fields=[Field("f1"), Field("f2")],
        max_per_partition=100,
        column_bounds={"f2": 100},
    ))
    engine.start()
    return engine


class TestEngineCrud:
    def test_put_and_get_round_trip(self):
        engine = simple_engine()
        put = engine.put("profiles", {"user_id": "alice", "name": "Alice", "birthday": "03-14"})
        assert put.success and put.latency > 0
        got = engine.get("profiles", ("alice",))
        assert got.success and got.row["name"] == "Alice"

    def test_get_missing_returns_success_with_no_row(self):
        engine = simple_engine()
        outcome = engine.get("profiles", ("ghost",))
        assert outcome.success and outcome.row is None

    def test_delete_removes_row(self):
        engine = simple_engine()
        engine.put("profiles", {"user_id": "alice", "name": "A", "birthday": "01-01"})
        engine.delete("profiles", ("alice",))
        engine.settle()
        assert engine.get("profiles", ("alice",)).row is None

    def test_schema_validation_enforced_on_put(self):
        engine = simple_engine()
        with pytest.raises(Exception):
            engine.put("profiles", {"user_id": "alice", "unknown_field": 1})

    def test_op_counters_and_sla_trackers_update(self):
        engine = simple_engine()
        engine.put("profiles", {"user_id": "a", "name": "A", "birthday": "01-01"})
        engine.get("profiles", ("a",))
        counts = engine.cumulative_operation_counts()
        assert counts["write"] == 1 and counts["read"] == 1
        assert engine.sla_report("read").request_count == 1

    def test_replication_factor_derived_from_durability_sla(self):
        relaxed = Scads(seed=1, autoscale=False,
                        consistency=ConsistencySpec(durability=DurabilitySLA(probability=0.99)))
        strict = Scads(seed=1, autoscale=False,
                       consistency=ConsistencySpec(durability=DurabilitySLA(probability=0.9999999)))
        assert strict.replication_factor >= relaxed.replication_factor

    def test_rejected_query_raises_with_reason(self):
        engine = simple_engine()
        with pytest.raises(QueryRejected):
            engine.register_query("bad", "SELECT * FROM profiles WHERE name = <n>")


class TestStoredRowsAreReadOnly:
    """A stored row changes only through a versioned write: the row ``put``
    returns, every ``get`` row and every query row is the stored value itself,
    and editing it raises instead of rewriting the replicas behind the
    version, the replication, the cache and the indexes."""

    ROW = {"user_id": "zed", "name": "Zed", "birthday": "02-02", "hometown": "Oslo"}

    def _assert_stored_as_written(self, engine):
        namespace = entity_namespace("profiles")
        group = engine.cluster.group_for_key(namespace, ("zed",))
        replicas = [engine.cluster.nodes[node_id].peek(namespace, ("zed",))
                    for node_id in group.node_ids]
        assert len(replicas) == 3
        assert all(value.version == 1 and value.value == self.ROW for value in replicas)

    def test_editing_a_returned_row_raises_and_changes_nothing_stored(self):
        engine, app, _ = build_engine_and_app(seed=7, n_users=20, autoscale=False)
        written = dict(self.ROW)
        put = engine.put("profiles", written)
        app.create_user("amy", "Amy", "05-05")
        app.add_friendship("amy", "zed")
        engine.settle()
        self._assert_stored_as_written(engine)

        with pytest.raises(TypeError):
            put.row["name"] = "Mallory"
        written["name"] = "Mallory"  # the caller's own input dict
        self._assert_stored_as_written(engine)

        hits, misses = engine.cache.hit_counts()
        cluster_read = engine.get("profiles", ("zed",))
        assert engine.cache.hit_counts() == (hits, misses + 1)
        cache_hit = engine.get("profiles", ("zed",))
        assert engine.cache.hit_counts() == (hits + 1, misses + 1)
        page = engine.query("friend_birthdays", {"user_id": "amy"})
        assert page.rows == [self.ROW]
        for row in (cluster_read.row, cache_hit.row, page.rows[0]):
            with pytest.raises(TypeError):
                row["birthday"] = "12-31"

        engine.settle()
        self._assert_stored_as_written(engine)
        assert engine.get("profiles", ("zed",)).row == self.ROW
        assert engine.query("friend_birthdays", {"user_id": "amy"}).rows == [self.ROW]


class TestEngineQueries:
    def test_query_over_maintained_index(self):
        engine = simple_engine()
        engine.register_query(
            "friend_birthdays",
            "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
            "WHERE f.f1 = <user_id> ORDER BY p.birthday LIMIT 10",
        )
        engine.put("profiles", {"user_id": "bob", "name": "Bob", "birthday": "07-04"})
        engine.put("profiles", {"user_id": "carol", "name": "Carol", "birthday": "01-02"})
        engine.put("friendships", {"f1": "alice", "f2": "bob"})
        engine.put("friendships", {"f1": "alice", "f2": "carol"})
        engine.settle()
        result = engine.query("friend_birthdays", {"user_id": "alice"})
        assert [row["name"] for row in result.rows] == ["Carol", "Bob"]
        assert result.latency > 0

    def test_a_filter_the_index_cannot_answer_is_rejected(self):
        # Admitting this template dropped its literal filter: every status of
        # the user came back, whatever its text.
        engine = simple_engine()
        engine.register_entity(EntitySchema(
            name="statuses", key_fields=[Field("user_id"), Field("status_id", FieldType.INT)],
            value_fields=[Field("text")], max_per_partition=100,
        ))
        with pytest.raises(QueryRejected) as excinfo:
            engine.register_query(
                "statuses_saying_x",
                "SELECT * FROM statuses WHERE user_id = <u> AND text = 'x' LIMIT 10")
        assert excinfo.value.reason is RejectionReason.RESIDUAL_FILTER
        assert "text = 'x'" in str(excinfo.value)
        assert "statuses_saying_x" not in engine.query_names()

    def test_query_unknown_name_raises(self):
        engine = simple_engine()
        with pytest.raises(KeyError):
            engine.query("nope", {})

    def test_query_latency_counts_toward_read_sla(self):
        engine = simple_engine()
        engine.register_query("friends",
                              "SELECT * FROM friendships WHERE f1 = <u> LIMIT 50")
        engine.put("friendships", {"f1": "a", "f2": "b"})
        engine.settle()
        before = engine.sla_report("read").request_count
        engine.query("friends", {"u": "a"})
        assert engine.sla_report("read").request_count == before + 1

    def test_maintenance_table_lists_rules_for_all_queries(self):
        engine = simple_engine()
        engine.register_query("friends", "SELECT * FROM friendships WHERE f1 = <u> LIMIT 50")
        engine.register_query(
            "friend_birthdays",
            "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
            "WHERE f.f1 = <user_id> ORDER BY p.birthday LIMIT 10",
        )
        table = engine.maintenance_table()
        indexes = {rule.index_name for rule in table}
        # Both query indexes plus the auxiliary reverse index the birthday
        # index needs for bounded reverse traversal.
        assert indexes == {"idx_friends", "idx_friend_birthdays", "friendships_by_f2"}


class TestSessionGuaranteesEndToEnd:
    def test_read_your_writes_served_from_primary_when_replicas_lag(self):
        spec = ConsistencySpec(session=SessionGuarantee(read_your_writes=True))
        engine = simple_engine(consistency=spec, seed=5)
        engine.sessions.open("alice")
        engine.put("profiles", {"user_id": "alice", "name": "Alice", "birthday": "03-14"},
                   session_id="alice")
        # No time passes, so replicas have not applied the write yet; the
        # session guarantee must still see it.
        for _ in range(10):
            outcome = engine.get("profiles", ("alice",), session_id="alice")
            assert outcome.success and outcome.row is not None

    @pytest.mark.parametrize("cache", [True, False])
    def test_read_your_writes_covers_a_delete_when_replicas_lag(self, cache):
        spec = ConsistencySpec(session=SessionGuarantee(read_your_writes=True))
        engine = simple_engine(consistency=spec, seed=5, initial_groups=1,
                               replication_factor=3, cache=cache)
        engine.put("profiles", {"user_id": "alice", "name": "Alice", "birthday": "03-14"},
                   session_id="alice")
        engine.settle()
        engine.delete("profiles", ("alice",), session_id="alice")
        # No time passes, so the replicas still hold the row; the session
        # that deleted it must not read it back.
        for _ in range(10):
            outcome = engine.get("profiles", ("alice",), session_id="alice")
            assert outcome.success and outcome.row is None

    def test_without_guarantee_stale_reads_are_possible(self):
        engine = simple_engine(seed=5)
        engine.put("profiles", {"user_id": "alice", "name": "Alice", "birthday": "03-14"})
        missing = 0
        for _ in range(20):
            outcome = engine.get("profiles", ("alice",))
            if outcome.row is None:
                missing += 1
        assert missing > 0  # eventual consistency: some replicas lag


class TestWriteConsistencyEndToEnd:
    def test_merge_policy_combines_concurrent_field_updates(self):
        def merge(current, incoming):
            merged = dict(current)
            merged.update({k: v for k, v in incoming.items() if v is not None})
            return merged

        spec = ConsistencySpec(write=WriteConsistency(WritePolicy.MERGE, merge_function=merge))
        engine = simple_engine(consistency=spec, seed=6)
        engine.put("profiles", {"user_id": "a", "name": "Alice", "birthday": "03-14"})
        engine.put("profiles", {"user_id": "a", "name": None, "birthday": "12-25"})
        engine.settle()
        row = engine.get("profiles", ("a",)).row
        assert row["name"] == "Alice"  # preserved by the merge
        assert row["birthday"] == "12-25"

    def test_serializable_writes_have_higher_latency_than_lww(self):
        lww = simple_engine(seed=7)
        ser = simple_engine(
            seed=7,
            consistency=ConsistencySpec(write=WriteConsistency(WritePolicy.SERIALIZABLE)),
        )
        lww_latency = []
        ser_latency = []
        for i in range(30):
            lww_latency.append(
                lww.put("profiles", {"user_id": f"u{i}", "name": "x", "birthday": "01-01"}).latency
            )
            lww.run_for(1.0)
            ser_latency.append(
                ser.put("profiles", {"user_id": f"u{i}", "name": "x", "birthday": "01-01"}).latency
            )
            ser.run_for(1.0)
        assert sum(ser_latency) > sum(lww_latency)


class TestArbitrationUnderPartition:
    def _partitioned_engine(self, priority):
        spec = ConsistencySpec(
            session=SessionGuarantee(read_your_writes=True),
            read=ReadConsistency(staleness_bound=30.0),
            priority=priority,
        )
        engine = simple_engine(consistency=spec, seed=8, initial_groups=2)
        engine.put("profiles", {"user_id": "alice", "name": "Alice", "birthday": "03-14"},
                   session_id="alice")
        engine.settle()
        # Partition the client away from every primary so consistency checks
        # cannot be satisfied.
        primaries = {group.primary for group in engine.cluster.groups.values()}
        engine.cluster.network.partition({"client"}, primaries)
        return engine

    def test_availability_first_serves_possibly_stale_data(self):
        engine = self._partitioned_engine([Axis.AVAILABILITY, Axis.READ_CONSISTENCY, Axis.SESSION])
        outcomes = [engine.get("profiles", ("alice",), session_id="alice") for _ in range(10)]
        successes = [o for o in outcomes if o.success]
        assert successes, "availability-first should keep serving"
        assert engine.arbitrator.stale_serves() > 0

    def test_consistency_first_fails_requests(self):
        engine = self._partitioned_engine([Axis.READ_CONSISTENCY, Axis.SESSION, Axis.AVAILABILITY])
        outcomes = [engine.get("profiles", ("alice",), session_id="alice") for _ in range(10)]
        failures = [o for o in outcomes if not o.success]
        assert failures, "consistency-first should reject unverifiable reads"
        assert engine.arbitrator.failed_requests() > 0


class TestFaultTolerance:
    def test_reads_survive_single_replica_crash(self):
        engine = simple_engine(seed=9, initial_groups=1)
        engine.put("profiles", {"user_id": "alice", "name": "Alice", "birthday": "03-14"})
        engine.settle()
        group = list(engine.cluster.groups.values())[0]
        engine.cluster.nodes[group.node_ids[1:][0]].crash()
        successes = sum(engine.get("profiles", ("alice",)).success for _ in range(20))
        assert successes == 20

    def test_failure_injector_crash_recovery_end_to_end(self):
        engine = simple_engine(seed=10, initial_groups=1)
        injector = FailureInjector(engine.cluster)
        engine.put("profiles", {"user_id": "alice", "name": "Alice", "birthday": "03-14"})
        engine.settle()
        group = list(engine.cluster.groups.values())[0]
        injector.crash_node(group.primary, at=engine.now + 1.0, duration=30.0)
        engine.run_for(5.0)
        read_during = engine.get("profiles", ("alice",))
        assert read_during.success  # served by a replica
        engine.run_for(60.0)
        assert engine.cluster.nodes[group.primary].alive
