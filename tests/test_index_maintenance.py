"""Tests for incremental index maintenance and the deadline-ordered updater.

Maintenance is tested against an in-memory StorageAdapter so the semantics
(delta computation, support counting, bounded work) are checked independently
of the storage substrate; the engine-level integration tests cover the wiring.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.core.index.maintenance import EntityWrite, IndexMaintainer, MaintenanceResult
from repro.core.index.updater import AsyncIndexUpdater
from repro.core.query.analyzer import QueryAnalyzer
from repro.core.query.compiler import QueryCompiler
from repro.core.query.executor import QueryExecutor
from repro.core.query.parser import parse_query
from repro.core.schema import EntitySchema, Field, SchemaRegistry
from repro.sim.simulator import Simulator

pytestmark = pytest.mark.tier1

FRIEND_CAP = 100


class DictStorageAdapter:
    """A StorageAdapter over plain dictionaries, for unit testing maintenance."""

    def __init__(self) -> None:
        self.entities: Dict[str, Dict[Tuple, Dict[str, Any]]] = {}
        self.indexes: Dict[str, Dict[Tuple, int]] = {}
        self.reverse: Dict[str, set] = {}
        self.index_ops = 0

    # -- entity side (test harness uses these to simulate base-table writes) --

    def put_entity(self, entity: str, key: Tuple, row: Dict[str, Any]) -> None:
        self.entities.setdefault(entity, {})[key] = dict(row)

    def delete_entity(self, entity: str, key: Tuple) -> None:
        self.entities.get(entity, {}).pop(key, None)

    # -- StorageAdapter protocol --

    def entity_rows_by_prefix(self, entity: str, prefix: Tuple) -> List[Dict[str, Any]]:
        rows = []
        for key, row in self.entities.get(entity, {}).items():
            if key[: len(prefix)] == prefix:
                rows.append(dict(row))
        return rows

    def entity_row(self, entity: str, key: Tuple) -> Optional[Dict[str, Any]]:
        row = self.entities.get(entity, {}).get(key)
        return dict(row) if row is not None else None

    def reverse_keys(self, reverse_index: str, value: Any) -> List[Tuple]:
        namespace = f"revidx:{reverse_index}"
        return [key[1:] for key in self.reverse.get(namespace, set()) if key[0] == value]

    def adjust_index_support(self, namespace: str, key: Tuple, delta: int) -> None:
        self.index_ops += 1
        index = self.indexes.setdefault(namespace, {})
        new_value = index.get(key, 0) + delta
        if new_value <= 0:
            index.pop(key, None)
        else:
            index[key] = new_value

    def put_reverse_entry(self, namespace: str, key: Tuple) -> None:
        self.reverse.setdefault(namespace, set()).add(key)

    def delete_reverse_entry(self, namespace: str, key: Tuple) -> None:
        self.reverse.get(namespace, set()).discard(key)

    # -- helpers for assertions --

    def index_keys(self, namespace: str) -> List[Tuple]:
        return sorted(self.indexes.get(namespace, {}).keys())

    def support(self, namespace: str, key: Tuple) -> int:
        return self.indexes.get(namespace, {}).get(key, 0)


def social_registry():
    registry = SchemaRegistry()
    registry.register_entity(EntitySchema(
        name="profiles",
        key_fields=[Field("user_id")],
        value_fields=[Field("name"), Field("birthday")],
    ))
    registry.register_entity(EntitySchema(
        name="friendships",
        key_fields=[Field("f1"), Field("f2")],
        max_per_partition=FRIEND_CAP,
        column_bounds={"f2": FRIEND_CAP},
    ))
    return registry


BIRTHDAY_SQL = (
    "SELECT p.* FROM friendships f JOIN profiles p ON f.f2 = p.user_id "
    "WHERE f.f1 = <user_id> ORDER BY p.birthday LIMIT 20"
)
FOF_SQL = (
    "SELECT p.* FROM friendships f JOIN friendships g ON f.f2 = g.f1 "
    "JOIN profiles p ON g.f2 = p.user_id WHERE f.f1 = <user_id> LIMIT 20"
)


def build_maintainer(*queries: Tuple[str, str]):
    registry = social_registry()
    adapter = DictStorageAdapter()
    maintainer = IndexMaintainer(registry, adapter)
    analyzer = QueryAnalyzer(registry)
    compiler = QueryCompiler()
    compiled = {}
    for name, sql in queries:
        cq = compiler.compile(name, analyzer.analyze(parse_query(sql)))
        maintainer.register(cq)
        compiled[name] = cq
    return registry, adapter, maintainer, compiled


def write_entity(adapter, maintainer, registry, entity, row):
    """Simulate a base-table write followed by synchronous maintenance."""
    schema = registry.entity(entity)
    key = schema.storage_key(row)
    old = adapter.entity_row(entity, key)
    adapter.put_entity(entity, key, row)
    return maintainer.apply(EntityWrite(entity=entity, old_row=old, new_row=row))


def delete_entity(adapter, maintainer, registry, entity, key):
    old = adapter.entity_row(entity, key)
    adapter.delete_entity(entity, key)
    if old is not None:
        return maintainer.apply(EntityWrite(entity=entity, old_row=old, new_row=None))
    return MaintenanceResult()


class TestBirthdayIndexMaintenance:
    def _setup(self):
        registry, adapter, maintainer, compiled = build_maintainer(
            ("friend_birthdays", BIRTHDAY_SQL)
        )
        namespace = compiled["friend_birthdays"].index_spec.namespace
        return registry, adapter, maintainer, namespace

    def test_friendship_insert_creates_entry_with_birthday(self):
        registry, adapter, maintainer, namespace = self._setup()
        write_entity(adapter, maintainer, registry, "profiles",
                     {"user_id": "bob", "name": "Bob", "birthday": "07-04"})
        write_entity(adapter, maintainer, registry, "friendships", {"f1": "alice", "f2": "bob"})
        assert adapter.index_keys(namespace) == [("alice", "07-04", "bob")]

    def test_friendship_delete_removes_entry(self):
        registry, adapter, maintainer, namespace = self._setup()
        write_entity(adapter, maintainer, registry, "profiles",
                     {"user_id": "bob", "name": "Bob", "birthday": "07-04"})
        write_entity(adapter, maintainer, registry, "friendships", {"f1": "alice", "f2": "bob"})
        delete_entity(adapter, maintainer, registry, "friendships", ("alice", "bob"))
        assert adapter.index_keys(namespace) == []

    def test_birthday_change_moves_index_entries_for_all_friends(self):
        registry, adapter, maintainer, namespace = self._setup()
        write_entity(adapter, maintainer, registry, "profiles",
                     {"user_id": "carol", "name": "Carol", "birthday": "01-01"})
        for friend in ("alice", "bob"):
            write_entity(adapter, maintainer, registry, "friendships",
                         {"f1": friend, "f2": "carol"})
        write_entity(adapter, maintainer, registry, "profiles",
                     {"user_id": "carol", "name": "Carol", "birthday": "12-25"})
        keys = adapter.index_keys(namespace)
        assert ("alice", "12-25", "carol") in keys
        assert ("bob", "12-25", "carol") in keys
        assert not any(key[1] == "01-01" for key in keys)

    def test_irrelevant_profile_change_produces_no_index_ops(self):
        registry, adapter, maintainer, namespace = self._setup()
        write_entity(adapter, maintainer, registry, "profiles",
                     {"user_id": "bob", "name": "Bob", "birthday": "07-04"})
        write_entity(adapter, maintainer, registry, "friendships", {"f1": "alice", "f2": "bob"})
        before = adapter.support(namespace, ("alice", "07-04", "bob"))
        result = write_entity(adapter, maintainer, registry, "profiles",
                              {"user_id": "bob", "name": "Robert", "birthday": "07-04"})
        assert adapter.support(namespace, ("alice", "07-04", "bob")) == before

    def test_friendship_before_profile_backfills_on_profile_write(self):
        registry, adapter, maintainer, namespace = self._setup()
        write_entity(adapter, maintainer, registry, "friendships", {"f1": "alice", "f2": "bob"})
        assert adapter.index_keys(namespace) == []  # no birthday known yet
        write_entity(adapter, maintainer, registry, "profiles",
                     {"user_id": "bob", "name": "Bob", "birthday": "07-04"})
        assert adapter.index_keys(namespace) == [("alice", "07-04", "bob")]

    def test_maintenance_work_is_bounded_by_friend_count(self):
        registry, adapter, maintainer, namespace = self._setup()
        write_entity(adapter, maintainer, registry, "profiles",
                     {"user_id": "star", "name": "Star", "birthday": "06-06"})
        for i in range(30):
            write_entity(adapter, maintainer, registry, "friendships",
                         {"f1": f"fan{i}", "f2": "star"})
        result = write_entity(adapter, maintainer, registry, "profiles",
                              {"user_id": "star", "name": "Star", "birthday": "09-09"})
        # One delete plus one insert per friend, plus bounded lookups.
        assert result.index_ops == 60
        assert result.total_ops <= 4 * 30 + 10


class TestFriendsOfFriendsMaintenance:
    def _setup(self):
        registry, adapter, maintainer, compiled = build_maintainer(
            ("friends", "SELECT * FROM friendships WHERE f1 = <user_id> LIMIT 100"),
            ("fof", FOF_SQL),
        )
        return registry, adapter, maintainer, compiled["fof"].index_spec.namespace

    def _befriend(self, registry, adapter, maintainer, a, b):
        write_entity(adapter, maintainer, registry, "friendships", {"f1": a, "f2": b})
        write_entity(adapter, maintainer, registry, "friendships", {"f1": b, "f2": a})

    def test_two_hop_paths_materialised(self):
        registry, adapter, maintainer, namespace = self._setup()
        for user in ("alice", "bob", "carol"):
            write_entity(adapter, maintainer, registry, "profiles",
                         {"user_id": user, "name": user.title(), "birthday": "01-01"})
        self._befriend(registry, adapter, maintainer, "alice", "bob")
        self._befriend(registry, adapter, maintainer, "bob", "carol")
        keys = adapter.index_keys(namespace)
        assert ("alice", "carol") in keys  # alice -> bob -> carol
        assert ("carol", "alice") in keys  # carol -> bob -> alice

    def test_support_counts_multiple_paths(self):
        registry, adapter, maintainer, namespace = self._setup()
        for user in ("alice", "bob", "carol", "dave"):
            write_entity(adapter, maintainer, registry, "profiles",
                         {"user_id": user, "name": user.title(), "birthday": "01-01"})
        # Two disjoint paths alice->bob->dave and alice->carol->dave.
        self._befriend(registry, adapter, maintainer, "alice", "bob")
        self._befriend(registry, adapter, maintainer, "alice", "carol")
        self._befriend(registry, adapter, maintainer, "bob", "dave")
        self._befriend(registry, adapter, maintainer, "carol", "dave")
        assert adapter.support(namespace, ("alice", "dave")) == 2
        # Removing one intermediate keeps the entry alive through the other.
        delete_entity(adapter, maintainer, registry, "friendships", ("bob", "dave"))
        delete_entity(adapter, maintainer, registry, "friendships", ("dave", "bob"))
        assert adapter.support(namespace, ("alice", "dave")) == 1
        delete_entity(adapter, maintainer, registry, "friendships", ("carol", "dave"))
        delete_entity(adapter, maintainer, registry, "friendships", ("dave", "carol"))
        assert adapter.support(namespace, ("alice", "dave")) == 0

    def test_reverse_index_is_maintained(self):
        registry, adapter, maintainer, _ = self._setup()
        write_entity(adapter, maintainer, registry, "friendships", {"f1": "alice", "f2": "bob"})
        assert adapter.reverse_keys("friendships_by_f2", "bob") == [("alice", "bob")]
        delete_entity(adapter, maintainer, registry, "friendships", ("alice", "bob"))
        assert adapter.reverse_keys("friendships_by_f2", "bob") == []


class TestQueryOverMaintainedIndex:
    def test_executor_reads_what_maintenance_wrote(self):
        registry, adapter, maintainer, compiled = build_maintainer(
            ("friend_birthdays", BIRTHDAY_SQL)
        )
        plan = compiled["friend_birthdays"].plan
        write_entity(adapter, maintainer, registry, "profiles",
                     {"user_id": "bob", "name": "Bob", "birthday": "07-04"})
        write_entity(adapter, maintainer, registry, "profiles",
                     {"user_id": "carol", "name": "Carol", "birthday": "01-02"})
        for friend in ("bob", "carol"):
            write_entity(adapter, maintainer, registry, "friendships",
                         {"f1": "alice", "f2": friend})

        def range_read(namespace, start, end, limit, reverse):
            keys = [k for k in adapter.index_keys(namespace)
                    if (start is None or k >= start) and (end is None or k < end)]
            if reverse:
                keys = keys[::-1]
            if limit is not None:
                keys = keys[:limit]
            return [(k, {"support": adapter.support(namespace, k)}) for k in keys], 0.001

        def entity_get_many(entity, keys):
            return {key: adapter.entity_row(entity, key) for key in keys}, 0.001

        reader = SimpleNamespace(range_read=range_read, entity_get_many=entity_get_many)
        result = QueryExecutor().execute(plan, {"user_id": "alice"}, reader)
        assert [row["name"] for row in result.rows] == ["Carol", "Bob"]
        assert result.index_entries_read == 2


class TestAsyncIndexUpdater:
    def _setup(self, fifo=False, nodes=1, ups=10.0):
        registry, adapter, maintainer, compiled = build_maintainer(
            ("friend_birthdays", BIRTHDAY_SQL)
        )
        sim = Simulator(seed=0)
        updater = AsyncIndexUpdater(
            simulator=sim,
            maintainer=maintainer,
            node_count_fn=lambda: nodes,
            updates_per_second_per_node=ups,
            default_staleness_bound=10.0,
            fifo=fifo,
        )
        updater.drain_interval = 0.5
        return registry, adapter, maintainer, sim, updater

    def _enqueue_writes(self, registry, adapter, updater, count, bound=None):
        tasks = []
        for i in range(count):
            row = {"f1": "alice", "f2": f"friend{i}"}
            key = ("alice", f"friend{i}")
            adapter.put_entity("friendships", key, row)
            tasks.append(updater.enqueue(EntityWrite("friendships", None, row),
                                         staleness_bound=bound))
        return tasks

    def test_tasks_apply_after_time_advances(self):
        registry, adapter, maintainer, sim, updater = self._setup()
        updater.start()
        adapter.put_entity("profiles", ("bob",), {"user_id": "bob", "birthday": "07-04"})
        row = {"f1": "alice", "f2": "bob"}
        adapter.put_entity("friendships", ("alice", "bob"), row)
        updater.enqueue(EntityWrite("friendships", None, row))
        assert updater.pending_count() == 1
        sim.run_until(2.0)
        assert updater.pending_count() == 0
        assert updater.stats().completed == 1

    def test_deadline_ordering_prefers_urgent_updates(self):
        registry, adapter, maintainer, sim, updater = self._setup()
        relaxed = updater.enqueue(
            EntityWrite("friendships", None, {"f1": "a", "f2": "b"}), staleness_bound=1000.0
        )
        urgent = updater.enqueue(
            EntityWrite("friendships", None, {"f1": "c", "f2": "d"}), staleness_bound=1.0
        )
        assert updater._heap[0][2] is urgent  # noqa: SLF001 - the next task drained
        updater.drain_now()
        assert urgent.completion_time is not None
        assert relaxed.completion_time is not None

    def test_fifo_mode_processes_in_arrival_order(self):
        registry, adapter, maintainer, sim, updater = self._setup(fifo=True)
        first = updater.enqueue(
            EntityWrite("friendships", None, {"f1": "a", "f2": "b"}), staleness_bound=1000.0
        )
        second = updater.enqueue(
            EntityWrite("friendships", None, {"f1": "c", "f2": "d"}), staleness_bound=1.0
        )
        assert updater._heap[0][2] is first  # noqa: SLF001 - the next task drained
        updater.drain_now()
        assert first.completion_time is not None
        assert second.completion_time is not None

    def test_throughput_scales_with_node_count(self):
        slow = self._setup(nodes=1, ups=10.0)
        fast = self._setup(nodes=10, ups=10.0)
        for registry, adapter, maintainer, sim, updater in (slow, fast):
            updater.start()
            self._enqueue_writes(registry, adapter, updater, 100)
            sim.run_until(3.0)
        assert fast[4].stats().completed > 2 * slow[4].stats().completed

    def test_deadline_misses_detected_when_overloaded(self):
        registry, adapter, maintainer, sim, updater = self._setup(nodes=1, ups=2.0)
        updater.start()
        self._enqueue_writes(registry, adapter, updater, 200, bound=5.0)
        sim.run_until(60.0)
        stats = updater.stats()
        assert stats.deadline_misses > 0
        assert stats.max_lag > 5.0

    def test_all_time_stats_match_the_task_handles(self):
        # One task per half-second tick against a 3 s bound: the tail misses.
        registry, adapter, maintainer, sim, updater = self._setup(ups=2.0)
        updater.start()
        tasks = self._enqueue_writes(registry, adapter, updater, 20, bound=3.0)
        sim.run_until(15.0)
        tasks += self._enqueue_writes(registry, adapter, updater, 5, bound=3.0)
        assert updater.drain_now() == 5
        assert all(task.completion_time is not None for task in tasks)
        stats = updater.stats()
        assert stats.completed == len(tasks) == 25
        misses = sum(1 for task in tasks if not task.met_deadline)
        assert 0 < misses < len(tasks)
        assert stats.deadline_misses == misses
        assert stats.max_lag == max(task.lag for task in tasks)
        assert stats.total_lag == pytest.approx(sum(task.lag for task in tasks))

    def test_behind_schedule_signal(self):
        registry, adapter, maintainer, sim, updater = self._setup(nodes=1, ups=1.0)
        self._enqueue_writes(registry, adapter, updater, 50, bound=0.5)
        assert updater.behind_schedule(margin=1.0)

    def test_invalid_staleness_bound_rejected(self):
        registry, adapter, maintainer, sim, updater = self._setup()
        with pytest.raises(ValueError):
            updater.enqueue(EntityWrite("friendships", None, {"f1": "a", "f2": "b"}),
                            staleness_bound=0.0)

    def test_stop_halts_draining(self):
        registry, adapter, maintainer, sim, updater = self._setup()
        updater.start()
        updater.stop()
        self._enqueue_writes(registry, adapter, updater, 5)
        sim.run_until(10.0)
        assert updater.pending_count() == 5
