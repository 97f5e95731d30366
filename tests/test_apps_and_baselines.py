"""Tests for the reference social-network application and the baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Scads
from repro.apps.social_network import SocialNetworkApp
from repro.baselines.naive_rdbms import NaiveRdbms
from repro.baselines.quorum_store import QuorumConfig, QuorumStore
from repro.workloads.opmix import Operation, OperationKind
from repro.workloads.social_graph import SocialGraph

pytestmark = pytest.mark.tier1


def make_app(seed=2, friend_cap=50, fof=True):
    engine = Scads(seed=seed, initial_groups=2, autoscale=False)
    engine.start()
    return SocialNetworkApp(engine, friend_cap=friend_cap, page_size=10,
                            register_friends_of_friends=fof)


class TestSocialNetworkApp:
    def test_registers_the_papers_queries(self):
        app = make_app()
        for name in ("friends", "friend_birthdays", "recent_statuses", "friends_of_friends"):
            assert app.engine.compiled_query(name).name == name

    def test_statuses_page_is_newest_first(self):
        app = make_app()
        app.create_user("alice", "Alice", "03-14")
        for status_id in range(1, 6):
            app.post_status("alice", status_id, f"status {status_id}")
        app.engine.settle()
        page = app.engine.query("recent_statuses", {"user_id": "alice"}, session_id="alice")
        ids = [row["status_id"] for row in page.rows]
        assert ids == sorted(ids, reverse=True)

    def test_remove_friendship_updates_friend_list(self):
        app = make_app()
        app.create_user("a", "A", "01-01")
        app.create_user("b", "B", "02-02")
        app.add_friendship("a", "b")
        app.engine.settle()
        assert len(app.friends_page("a").rows) == 1
        app.engine.delete("friendships", ("a", "b"), session_id="a")
        app.engine.delete("friendships", ("b", "a"), session_id="b")
        app.engine.settle()
        assert len(app.friends_page("a").rows) == 0

    def test_update_profile_changes_birthday_index(self):
        app = make_app()
        app.create_user("a", "A", "01-01")
        app.create_user("b", "B", "05-05")
        app.add_friendship("a", "b")
        app.engine.settle()
        app.update_profile("b", birthday="11-11")
        app.engine.settle()
        birthdays = [row["birthday"] for row in app.birthdays_page("a").rows]
        assert birthdays == ["11-11"]

    def test_load_graph_materialises_queryable_state(self):
        app = make_app(friend_cap=20)
        graph = SocialGraph(30, np.random.default_rng(0), max_friends=5, mean_friends=2.0)
        app.load_graph(graph)
        user = next(u for u in graph.users() if graph.friend_count(u) > 0)
        rows = app.friends_page(user).rows
        assert len(rows) == graph.friend_count(user)

    def test_execute_dispatches_every_operation_kind(self):
        app = make_app()
        app.create_user("u1", "U1", "01-01")
        app.create_user("u2", "U2", "02-02")
        operations = [
            Operation(OperationKind.READ_PROFILE, "u1", target_id="u2"),
            Operation(OperationKind.READ_FRIENDS, "u1"),
            Operation(OperationKind.READ_FRIEND_BIRTHDAYS, "u1"),
            Operation(OperationKind.READ_FRIENDS_OF_FRIENDS, "u1"),
            Operation(OperationKind.POST_STATUS, "u1", payload={"text": "hi"}),
            Operation(OperationKind.ADD_FRIEND, "u1", target_id="u2"),
            Operation(OperationKind.UPDATE_PROFILE, "u1", payload={"hometown": "town-1"}),
        ]
        for operation in operations:
            app.execute(operation)
        assert app.stats.page_views >= 4
        assert app.stats.statuses_posted == 1
        app.engine.settle()
        friends = app.engine.query("friends", {"user_id": "u1"}).rows
        assert {"f1": "u1", "f2": "u2"} in friends

    def test_self_friendship_rejected(self):
        app = make_app()
        app.create_user("a", "A", "01-01")
        with pytest.raises(ValueError):
            app.add_friendship("a", "a")


def index_entries(engine, key=None):
    """``(namespace, VersionedValue)`` of every stored index and reverse-index
    entry on every node, tombstones included (optionally one key only)."""
    return [(namespace, value)
            for node in engine.cluster.nodes.values()
            for namespace in node.namespaces()
            if namespace.startswith(("index:", "revidx:"))
            for entry_key, value in node.scan_namespace(namespace)
            if key is None or entry_key == key]


class TestIndexEntriesAreCounts:
    """An index entry stores its key, its version and an ``int`` support
    count; a reverse-index entry is an index entry with support 1."""

    def test_every_live_index_value_is_a_positive_int(self):
        app = make_app(friend_cap=20)
        app.load_graph(SocialGraph(30, np.random.default_rng(0), max_friends=5,
                                   mean_friends=2.0))
        app.engine.settle()
        entries = index_entries(app.engine)
        namespaces = {namespace for namespace, _ in entries}
        assert "index:idx_friends_of_friends" in namespaces
        assert "revidx:friendships_by_f2" in namespaces
        live = [value.value for _, value in entries if not value.tombstone]
        assert live
        assert all(type(support) is int and support >= 1 for support in live)

    def test_friend_of_friend_support_counts_paths(self):
        app = make_app()
        engine = app.engine
        for user in ("a", "b", "c", "d"):
            app.create_user(user, user.upper(), "01-01")
        # Two mutual friends, b and c, each join a to d.  Settling after each
        # write keeps maintenance in write order.
        for x, y in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
            app.add_friendship(x, y)
            engine.settle()

        def stored():
            replicas = index_entries(engine, key=("a", "d"))
            assert replicas
            assert {namespace for namespace, _ in replicas} == {
                "index:idx_friends_of_friends"}
            return {(value.value, value.tombstone) for _, value in replicas}

        assert stored() == {(2, False)}
        for path, expected in ((("b", "d"), {(1, False)}), (("c", "d"), {(None, True)})):
            engine.delete("friendships", path, session_id=path[0])
            engine.delete("friendships", path[::-1], session_id=path[1])
            engine.settle()
            assert stored() == expected
        assert "d" not in [row["user_id"] for row in app.friends_of_friends_page("a").rows]


class TestNaiveRdbms:
    def _load(self, n_users, friends_per_user=10):
        db = NaiveRdbms()
        for i in range(n_users):
            user = f"u{i}"
            db.insert("profiles", (user,),
                      {"user_id": user, "name": user, "birthday": f"{(i % 12) + 1:02d}-10"})
            for j in range(friends_per_user):
                other = f"u{(i + j + 1) % n_users}"
                db.insert("friendships", (user, other), {"f1": user, "f2": other})
        return db

    def test_query_returns_correct_friends(self):
        db = self._load(50)
        result = db.friend_birthdays("u0")
        assert sorted(row["user_id"] for row in result.rows) == \
            sorted(f"u{j}" for j in range(1, 11))

    def test_birthday_query_joins_and_sorts(self):
        db = self._load(50)
        result = db.friend_birthdays("u0")
        birthdays = [row["birthday"] for row in result.rows]
        assert birthdays == sorted(birthdays)

    def test_scan_cost_grows_with_population(self):
        small = self._load(100).friend_birthdays("u0")
        large = self._load(1000).friend_birthdays("u0")
        # the latency past the fixed overhead is the rows scanned, costed
        base = NaiveRdbms.base_cost
        assert large.latency - base > 5 * (small.latency - base)


class TestQuorumStore:
    def test_write_and_quorum_read(self):
        store = QuorumStore(QuorumConfig(n=3, r=2, w=2), seed=1)
        store.put(("k",), {"v": 1})
        store.run_for(2.0)
        result = store.get(("k",))
        assert result.success and result.value.value == {"v": 1}

    def test_strong_configuration_flag(self):
        assert QuorumConfig(n=3, r=2, w=2).strongly_consistent
        assert not QuorumConfig(n=3, r=1, w=1).strongly_consistent

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            QuorumConfig(n=3, r=4, w=1)
        with pytest.raises(ValueError):
            QuorumConfig(n=0, r=1, w=1)

    def test_weak_quorums_produce_more_stale_reads_than_strong(self):
        weak = QuorumStore(QuorumConfig(n=3, r=1, w=1), seed=2)
        strong = QuorumStore(QuorumConfig(n=3, r=2, w=2), seed=2)
        stale = {}
        for store in (weak, strong):
            stale[store] = 0
            for i in range(100):
                store.put((f"k{i % 10}",), {"v": i})
                _, was_stale = store.get_and_check_staleness((f"k{i % 10}",))
                stale[store] += was_stale
        assert stale[weak] >= stale[strong]

    def test_higher_write_quorum_costs_more_latency(self):
        fast = QuorumStore(QuorumConfig(n=3, r=1, w=1), seed=3)
        slow = QuorumStore(QuorumConfig(n=3, r=1, w=3), seed=3)
        fast_latency = slow_latency = 0.0
        for i in range(50):
            fast_latency += fast.put((f"k{i}",), {"v": i}).latency
            fast.run_for(1.0)
            slow_latency += slow.put((f"k{i}",), {"v": i}).latency
            slow.run_for(1.0)
        assert slow_latency > fast_latency
