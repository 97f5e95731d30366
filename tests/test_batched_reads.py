"""Burst-aware node load estimation and the batched dereference path.

Two halves of the same physical fix: co-timed operations (one query's
fan-out, one maintenance tick's writes) must not read as a million-ops/sec
arrival rate, and a query's bounded dereference list must reach storage as
per-group multigets rather than one independent request per entry.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.query.executor import ExecutionError, QueryExecutor
from repro.sim.network import NetworkPartitionError
from repro.sim.simulator import Simulator
from repro.storage.cluster import Cluster
from repro.storage.node import NodeDownError, StorageNode
from repro.storage.rebalancer import PartitionLoadTracker
from repro.storage.records import VersionedValue
from repro.storage.router import CLIENT_ENDPOINT, RequestResult, Router

pytestmark = pytest.mark.tier1


def make_node(node_id="n1", capacity=100.0, seed=0):
    return StorageNode(node_id, np.random.default_rng(seed), capacity_ops_per_sec=capacity)


def vv(value, timestamp=0.0, version=1):
    return VersionedValue(value=value, timestamp=timestamp, version=version, writer="w")


class TestBurstAwareArrivalEstimate:
    def test_co_timed_burst_is_not_a_microsecond_rate(self):
        """A query's fan-out lands at one simulated instant; spreading the
        following gap over the burst must keep utilisation near truth."""
        node = make_node(capacity=100.0)
        for i in range(400):
            node.put("ns", ("seed", i), vv(i), now=0.0)
        # 10 co-timed ops every 0.5s = 20 ops/sec true rate on 100 capacity.
        for step in range(40):
            now = 1.0 + step * 0.5
            for k in range(10):
                node.get("ns", ("seed", k), now=now)
        assert node.utilisation() < 0.5
        assert node.arrival_rate() < 50.0

    def test_legacy_runaway_shape(self):
        """The pre-fix estimator read a node serving a handful of ops/sec as
        saturated (rate = 1/clamped-gap = 1e6); the spread estimator keeps
        the same sustained-burst workload an order of magnitude lower."""
        node = make_node(capacity=60.0)
        for step in range(60):
            now = step * 1.0
            for k in range(14):  # 14 ops/sec true load, all co-timed
                node.put("ns", ("k", step, k), vv(k), now=now)
        assert node.utilisation() < 0.6

    def test_evenly_spaced_stream_unchanged(self):
        """Spaced arrivals (burst size 1) keep the original EWMA behaviour."""
        node = make_node(capacity=100.0)
        for i in range(200):
            node.put("ns", ("k", i), vv(i), now=i * 0.001)  # 1000 ops/sec
        assert node.utilisation() > 0.8


class TestNodeMultiGet:
    def test_values_match_single_gets(self):
        node = make_node()
        node.put("ns", ("a",), vv(1), now=0.0)
        node.put("ns", ("b",), vv(2), now=0.0)
        node.put("ns", ("t",), VersionedValue(value=None, timestamp=0.0, version=2,
                                              writer="w", tombstone=True), now=0.0)
        values, latency = node.multi_get("ns", [("a",), ("b",), ("t",), ("missing",)], now=1.0)
        assert values[("a",)].value == 1
        assert values[("b",)].value == 2
        assert values[("t",)] is None  # tombstones read as absent, like get()
        assert values[("missing",)] is None
        assert latency > 0.0

    def test_batch_is_one_arrival_not_one_per_key(self):
        batched = make_node(capacity=100.0, seed=3)
        single = make_node(capacity=100.0, seed=3)
        for n in (batched, single):
            for k in range(10):
                n.put("ns", ("k", k), vv(k), now=0.0)
        keys = [("k", k) for k in range(10)]
        for step in range(50):
            now = 1.0 + step * 0.1  # 10 batches/sec of 10 keys
            batched.multi_get("ns", keys, now=now)
            for j, key in enumerate(keys):
                single.get("ns", key, now=now + j * 1e-4)  # 100 requests/sec
        assert batched.utilisation() < 0.5 < single.utilisation()

    def test_per_key_marginal_cost(self):
        wide = make_node(seed=5)
        narrow = make_node(seed=5)
        keys = [("k", k) for k in range(100)]
        for n in (wide, narrow):
            for key in keys:
                n.put("ns", key, vv(0), now=0.0)
        _, wide_latency = wide.multi_get("ns", keys, now=1.0)
        _, narrow_latency = narrow.multi_get("ns", keys[:1], now=1.0)
        assert wide_latency > narrow_latency


class TestRouterReadMany:
    def _engine(self, groups=3):
        from repro import Scads
        from repro.core.schema import EntitySchema, Field, FieldType
        engine = Scads(seed=7, autoscale=False, initial_groups=groups)
        engine.register_entity(EntitySchema(
            name="items", key_fields=[Field("key")],
            value_fields=[Field("v", FieldType.INT)],
        ))
        engine.start()
        return engine

    def test_matches_single_key_reads(self):
        engine = self._engine()
        keys = []
        for i in range(20):
            engine.put("items", {"key": f"k{i:02d}", "v": i})
            keys.append((f"k{i:02d}",))
        engine.settle()
        router = engine.router
        batched = router.read_many("entity:items", keys)
        for key in keys:
            assert batched[key].success
            assert (batched[key].values[key].value
                    == router.read("entity:items", key).value.value)

    def test_one_request_per_group(self):
        engine = self._engine()
        keys = []
        for i in range(20):
            engine.put("items", {"key": f"k{i:02d}", "v": i})
            keys.append((f"k{i:02d}",))
        engine.settle()
        router = engine.router
        groups_touched = {
            engine.cluster.partitioner.group_for_token(k[0]) for k in keys
        }
        before = dict(router._ops)  # noqa: SLF001 - asserting load accounting
        results = router.read_many("entity:items", keys)
        after = dict(router._ops)  # noqa: SLF001
        assert len(results) == len(keys)
        assert after["read"] - before["read"] == len(groups_touched)
        assert after["read"] - before["read"] < len(keys)
        # ... and one shared outcome per request, holding exactly its keys
        outcomes = {id(outcome): outcome for outcome in results.values()}
        assert len(outcomes) == len(groups_touched)
        for outcome in outcomes.values():
            assert set(outcome.values) == {
                key for key in keys if engine.cluster.partitioner.group_for_token(
                    key[0]) == outcome.group.group_id}
            assert outcome.node_id in outcome.group.node_ids

    def test_duplicate_keys_fetched_once(self):
        engine = self._engine(groups=1)
        engine.put("items", {"key": "dup", "v": 1})
        engine.settle()
        router = engine.router
        results = router.read_many("entity:items", [("dup",)] * 5 + [("dup",)])
        assert results[("dup",)].success
        assert len(results) == 1


class CountingPart(str):
    """A key part that counts how often it is compared for equality."""

    comparisons = 0

    def __eq__(self, other):
        CountingPart.comparisons += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def reference_read_many(router, namespace, keys):
    """``Router.read_many`` as its docstring states it, through the public
    hooks only (``alive`` / ``draining``, ``Cluster.note_access``, the
    simulator's clock), de-duplicating by comparing every key with every key
    before it: what the router's one-pass version must be equal to."""
    cluster = router._cluster  # noqa: SLF001 - the reference routes on the same cluster
    now = cluster.sim.now
    distinct = []
    for key in keys:
        if not any(key == seen for seen in distinct):
            distinct.append(key)
    results, by_group = {}, {}
    for key in distinct:
        if cluster.migrations_for_key(namespace, key):
            results[key] = router.read(namespace, key)
        else:
            by_group.setdefault(cluster.group_for_key(namespace, key).group_id,
                                []).append(key)
    for group_id, group_keys in by_group.items():
        router._ops["read"] += 1  # noqa: SLF001 - one request per group batch
        for node_id in router._read_candidates(cluster.groups[group_id]):  # noqa: SLF001
            node = cluster.nodes.get(node_id)
            if node is None or not node.alive or node.draining:
                continue
            try:
                hop = cluster.network.delay(CLIENT_ENDPOINT, node_id)
                values, service = node.multi_get(namespace, group_keys, now)
            except (NetworkPartitionError, NodeDownError):
                continue
            for key in group_keys:
                results[key] = RequestResult(success=True, latency=2.0 * hop + service,
                                             value=values.get(key), node_id=node_id)
                cluster.note_access(namespace, key, is_write=False)
            break
        else:
            for key in group_keys:
                results[key] = router.read(namespace, key)
    return results


def _key_touches(cluster):
    """Per node, the keys its client reads touched: a spy on each node's
    ``get`` and ``multi_get`` that counts the keys of every read served."""
    touches = {}
    for node_id, node in cluster.nodes.items():
        def get(namespace, key, now, _node=node, _id=node_id):
            served = StorageNode.get(_node, namespace, key, now)
            touches[_id] = touches.get(_id, 0) + 1
            return served

        def multi_get(namespace, keys, now, _node=node, _id=node_id):
            served = StorageNode.multi_get(_node, namespace, keys, now)
            touches[_id] = touches.get(_id, 0) + len(keys)
            return served

        node.get, node.multi_get = get, multi_get
    return touches


def per_key(results):
    """``{key: (success, latency, value, serving node, error)}`` of a
    ``read_many`` result or of the reference's per-key ``RequestResult``s."""
    return {key: (result.success, result.latency,
                  result.values[key] if hasattr(result, "values") else result.value,
                  result.node_id, result.error)
            for key, result in results.items()}


class TestRouterReadManyOnePass:
    """The batch is de-duplicated and grouped in one pass over its keys."""

    def test_duplicate_check_is_linear_in_the_batch(self):
        cluster = Cluster(simulator=Simulator(seed=3), replication_factor=2,
                          initial_groups=1)
        router = Router(cluster)
        count = 2000
        keys = [(CountingPart(f"k{i:04d}"),) for i in range(count)]
        CountingPart.comparisons = 0
        results = router.read_many("ns", keys)
        assert len(results) == count and all(r.success for r in results.values())
        assert router.op_counts()["read"] == 1  # one group, one request
        # the pairwise check made count**2 / 2 = 2 000 000 of them
        assert CountingPart.comparisons <= 10 * count

    @staticmethod
    def _twin(seed=5):
        """Three range-partitioned groups: group-0 owns u000-u019 and is the
        source of an in-flight migration of u040-u059 to group-2; group-1 owns
        u020-u039 and has no live replica."""
        sim = Simulator(seed=seed)
        cluster = Cluster(simulator=sim, replication_factor=2, initial_groups=3,
                          partitioner_kind="range")
        tracker = PartitionLoadTracker()
        cluster.attach_load_tracker(tracker)
        router = Router(cluster)
        for i in range(60):
            router.write("ns", (f"u{i:03d}",), {"v": i})
        sim.run_until(sim.now + 5.0)
        cluster.split_partition("u020")
        cluster.split_partition("u040")
        done = cluster.migrate_partition("u020", "group-1")
        sim.run_until(done.end_time + 1.0)
        cluster.movement_rate_keys_per_sec = 0.1  # a long in-flight window
        in_flight = cluster.migrate_partition("u040", "group-2")
        assert done.completed and cluster.active_migrations() == [in_flight]
        for node_id in cluster.groups["group-1"].node_ids:
            cluster.nodes[node_id].crash()
        return cluster, router, tracker

    KEYS = [("u003",), ("u045",), ("u021",), ("u003",), ("u017",), ("absent",),
            ("u058",), ("u033",), ("u045",), ("u010",), ("u021",)]

    def test_equals_the_reference_under_migration_and_outage(self):
        cluster, router, tracker = self._twin()
        twin_cluster, twin_router, twin_tracker = self._twin()
        touches, twin_touches = _key_touches(cluster), _key_touches(twin_cluster)
        results = router.read_many("ns", self.KEYS)
        expected = reference_read_many(twin_router, "ns", self.KEYS)
        # values, latencies, serving nodes, errors
        assert per_key(results) == per_key(expected)
        assert list(results) == list(expected)
        assert results[("u003",)].values[("u003",)].value == {"v": 3}
        assert results[("absent",)].success
        assert results[("absent",)].values[("absent",)] is None
        # group-0's multiget is one outcome shared by the keys it served ...
        batch = results[("u003",)]
        assert list(batch.values) == [("u003",), ("u017",), ("absent",), ("u010",)]
        assert all(results[key] is batch for key in batch.values)
        assert batch.group is cluster.groups["group-0"]
        # ... a key under the in-flight migration came back through the
        # dual-routed single-key read, as a one-key outcome of the same type
        # whose group is the new owner even when the source served it ...
        for key in (("u045",), ("u058",)):
            moving = results[key]
            assert type(moving) is type(batch) and list(moving.values) == [key]
            assert moving.success and moving.values[key].value == {"v": int(key[0][1:])}
            assert moving.group is cluster.groups["group-2"]
            assert moving.node_id in (cluster.groups["group-0"].node_ids
                                      + cluster.groups["group-2"].node_ids)
        # ... and so did each key of the batch no live replica took.
        for key in (("u021",), ("u033",)):
            dead = results[key]
            assert type(dead) is type(batch) and list(dead.values) == [key]
            assert not dead.success and dead.values[key] is None
            assert dead.error.startswith("node ") and dead.group is cluster.groups["group-1"]
        # the books: requests, failures, partition load, key touches per node
        assert router.op_counts() == twin_router.op_counts()
        assert router.op_counts()["failed"] == 2  # u021 and u033
        assert tracker._counts == twin_tracker._counts  # noqa: SLF001
        assert touches and touches == twin_touches
        # the replica-choice and network streams were consumed alike
        group, twin_group = cluster.groups["group-0"], twin_cluster.groups["group-0"]
        assert (router._read_candidates(group)  # noqa: SLF001 - the next draw
                == twin_router._read_candidates(twin_group))  # noqa: SLF001
        assert (cluster.network.delay(CLIENT_ENDPOINT, group.primary)
                == twin_cluster.network.delay(CLIENT_ENDPOINT, twin_group.primary))
        # and every value is the one a single-key read returns
        for key, result in results.items():
            single = twin_router.read("ns", key)
            assert (single.success, single.value) == (result.success, result.values[key])


class TestExecutorBatchedDereference:
    """The executor's dereference contract: ``entity_get_many(entity, keys) ->
    (rows_by_key, slowest_latency)``, against a per-key model of it."""

    ENTITIES = {("k0",): {"key": "k0", "v": 0}, ("k1",): {"key": "k1", "v": 1},
                ("k2",): None,  # an index entry whose entity has no row
                ("k3",): {"key": "k3", "v": 3}, ("k4",): {"key": "k4", "v": 4}}
    LATENCIES = {("k0",): 0.002, ("k1",): 0.007, ("k2",): 0.009, ("k3",): 0.001,
                 ("k4",): 0.003}
    # ("k1",) is reached through two index entries
    INDEX_ROWS = [(("t", 1, "k1"), {}), (("t", 2, "k0"), {}), (("t", 3, "k2"), {}),
                  (("t", 4, "k1"), {}), (("t", 5, "k4"), {}), (("t", 6, "k3"), {})]

    @staticmethod
    def _plan(limit=5, selected_columns=()):
        from repro.core.query.plans import PrefixComponent, QueryPlan

        return QueryPlan(
            index_name="by_tag",
            prefix=[PrefixComponent(kind="parameter", value="tag")],
            range_bound=None, limit=limit, descending=False,
            final_entity="items", final_key_length=1,
            selected_columns=list(selected_columns),
        )

    def _reader(self, calls):
        def range_read(namespace, start, end, limit, reverse):
            assert namespace == "index:by_tag"
            assert (start, end) == (("t",), ("t\x00",))
            return self.INDEX_ROWS[:limit], 0.001

        def entity_get(entity, key):  # the per-key store the batch adapts
            row = self.ENTITIES[key]
            return (dict(row) if row is not None else None), self.LATENCIES[key]

        def entity_get_many(entity, keys):
            calls.append(list(keys))
            fetched = {key: entity_get(entity, key) for key in keys}
            return ({key: row for key, (row, _) in fetched.items()},
                    max(latency for _, latency in fetched.values()))

        return SimpleNamespace(range_read=range_read, entity_get=entity_get,
                               entity_get_many=entity_get_many)

    @staticmethod
    def _per_key_model(plan, reader, params):
        """One ``entity_get`` per index entry, composed by max."""
        entries, latency = reader.range_read(
            plan.namespace, (params["tag"],), (params["tag"] + "\x00",),
            plan.limit, plan.descending)
        rows, slowest = [], 0.0
        for key, _ in entries:
            row, fetch_latency = reader.entity_get(plan.final_entity,
                                                   key[-plan.final_key_length:])
            slowest = max(slowest, fetch_latency)
            if row is None:
                continue
            if plan.selected_columns:
                row = {column: row.get(column) for column in plan.selected_columns}
            rows.append(row)
        return rows, latency + slowest, len(entries), len(entries)

    @pytest.mark.parametrize("limit", [5, None, 2])
    @pytest.mark.parametrize("selected_columns", [(), ("v", "nope")])
    def test_result_equals_the_per_key_model(self, limit, selected_columns):
        plan = self._plan(limit, selected_columns)
        calls = []
        reader = self._reader(calls)
        result = QueryExecutor().execute(plan, {"tag": "t"}, reader)
        rows, latency, entries_read, dereferences = self._per_key_model(
            plan, reader, {"tag": "t"})
        assert len(calls) == 1  # the whole list went down in one call
        assert calls[0] == [key[-1:] for key, _ in self.INDEX_ROWS[:limit]]
        assert result.rows == rows
        assert result.latency == latency
        assert result.index_entries_read == entries_read
        assert result.dereferences == dereferences
        if limit is None:
            assert result.dereferences == 6 and len(result.rows) == 5  # k2 has no row
        if selected_columns:
            assert result.rows[0] == {"v": 1, "nope": None}

    def test_an_empty_scan_dereferences_nothing(self):
        calls = []
        reader = self._reader(calls)
        reader.range_read = lambda *scan: ([], 0.004)
        result = QueryExecutor().execute(self._plan(), {"tag": "t"}, reader)
        assert (result.rows, result.latency, result.dereferences) == ([], 0.004, 0)
        assert calls == []

    def test_unbound_and_non_key_parameters_are_rejected(self):
        reader = self._reader([])
        with pytest.raises(ExecutionError, match="missing query parameter 'tag'"):
            QueryExecutor().execute(self._plan(), {"other": "t"}, reader)
        with pytest.raises(TypeError, match="key parts must be str, int, or float"):
            QueryExecutor().execute(self._plan(), {"tag": None}, reader)

    def test_engine_query_reads_own_writes_through_batch(self):
        """End-to-end: the batched dereference path preserves session
        read-your-writes (per-key verification still runs)."""
        from repro import Scads
        from repro.apps.social_network import SocialNetworkApp
        from repro.workloads.social_graph import SocialGraph

        engine = Scads(seed=11, autoscale=False, initial_groups=2)
        app = SocialNetworkApp(engine)
        graph = SocialGraph(10, np.random.default_rng(11))
        app.load_graph(graph)
        engine.start()
        app.post_status("u0", 10_000, "hello-batched-world")
        engine.settle()  # let the async index maintenance apply
        result = engine.query("recent_statuses", {"user_id": "u0"}, session_id="u0")
        assert any(r.get("text") == "hello-batched-world" for r in result.rows)


class TestEngineDereferenceGlue:
    """``entity_get_many`` of the reader ``Scads.query`` hands the executor."""

    NAMESPACE = "entity:items"

    @staticmethod
    def _glue(cache, groups=3, items=6, session=None, warm=True, **engine_kwargs):
        """A loaded engine and a reader of it, as its next query would build."""
        from repro import Scads
        from repro.core.engine import _QueryReader
        from repro.core.schema import EntitySchema, Field, FieldType

        engine = Scads(seed=7, autoscale=False, initial_groups=groups, cache=cache,
                       **engine_kwargs)
        engine.register_entity(EntitySchema(
            name="items", key_fields=[Field("key")],
            value_fields=[Field("v", FieldType.INT)], max_per_partition=50,
        ))
        engine.start()
        for i in range(items):
            engine.put("items", {"key": f"k{i}", "v": i})
        engine.settle()
        if warm:
            engine.get("items", ("k1",))  # with a tier: k1 is now cached
        if session is not None:
            session = engine.sessions.open("s", session)
        return engine, _QueryReader(engine, session, None)

    def _primary_of_the_one_group(self, engine):
        (group,) = engine.cluster.groups.values()
        return group, engine.cluster.nodes[group.primary]

    def _advance_primary_only(self, engine, keys):
        """Version 2 of ``keys`` at the primary alone: the replicas stay at 1."""
        _, primary = self._primary_of_the_one_group(engine)
        for key in keys:
            primary.put(self.NAMESPACE, key, VersionedValue(
                value={"key": key[0], "v": 100 + int(key[0][1:])},
                timestamp=engine.now, version=2), engine.now)

    def _replica_served(self, engine, keys):
        """``read_many`` of a one-group batch until a replica serves it."""
        for _ in range(64):
            routed = engine.router.read_many(self.NAMESPACE, keys)
            outcome = routed[keys[0]]
            assert all(routed[key] is outcome for key in keys)
            if outcome.node_id != outcome.group.primary:
                return routed, outcome
        pytest.fail("no replica-served batch in 64 attempts")

    @staticmethod
    def _spy_on_primary_reads(engine):
        """Record every ``router.read(..., from_primary=True)`` and its result."""
        calls, read = [], engine.router.read

        def spy(namespace, key, from_primary=False, read_quorum=1):
            result = read(namespace, key, from_primary, read_quorum)
            if from_primary:
                calls.append((key, result))
            return result

        engine.router.read = spy
        return calls

    @pytest.mark.parametrize("cache", [True, False], ids=["cached", "uncached"])
    def test_duplicate_keys_read_once_with_identical_results(self, cache):
        keys = [("k1",), ("k3",), ("k1",), ("absent",), ("k3",), ("k5",), ("k1",)]
        duplicated_engine, duplicated = self._glue(cache)
        distinct_engine, distinct = self._glue(cache)
        ops_before = dict(duplicated_engine.router._ops)  # noqa: SLF001
        with_duplicates = duplicated.entity_get_many("items", keys)
        once_each = distinct.entity_get_many("items", list(dict.fromkeys(keys)))
        assert with_duplicates == once_each  # rows and slowest latency, same seed
        rows, slowest = with_duplicates
        assert rows[("k3",)] == {"key": "k3", "v": 3}
        assert rows[("absent",)] is None
        assert set(rows) == set(keys)
        assert slowest > 0.0
        assert duplicated.touched_cluster and distinct.touched_cluster
        assert duplicated_engine.router._ops == distinct_engine.router._ops  # noqa: SLF001
        assert duplicated_engine.router._ops != ops_before  # noqa: SLF001
        if cache:
            assert (duplicated_engine.cache.store.stats
                    == distinct_engine.cache.store.stats)
        else:
            assert duplicated_engine.cache is None

    def test_misses_are_admitted_in_first_occurrence_order_not_group_order(self):
        from repro.cache.tier import CacheConfig

        engine, reader = self._glue(CacheConfig(capacity=4), items=12, warm=False)
        group_of = {}
        for i in range(12):
            group_of.setdefault(engine.cluster.partitioner.group_for_token(f"k{i}"),
                                []).append((f"k{i}",))
        first, second = sorted(group_of.values(), key=len, reverse=True)[:2]
        assert len(first) >= 3 and len(second) >= 3
        # a1 b1 a1 a2 b2 a3 b3: two multigets, their keys interleaved
        keys = [first[0], second[0], first[0], first[1], second[1], first[2], second[2]]
        rows, _ = reader.entity_get_many("items", keys)
        assert all(rows[key] is not None for key in keys)
        # six admissions: four held, two evicted
        assert (len(engine.cache.store), engine.cache.store.stats.lru_evictions) == (4, 2)
        # The victims are the first two misses; admitting one outcome after
        # the other would have evicted a1 and a2 and kept b1.
        assert [token[2] for token in engine.cache.store._entries] == [  # noqa: SLF001
            first[1], second[1], first[2], second[2]]

    def test_only_the_keys_beyond_the_bound_are_re_read_from_the_primary(self):
        engine, _ = self._glue(False, groups=1)
        keys = [(f"k{i}",) for i in range(6)]
        too_stale = [("k1",), ("k4",)]
        self._advance_primary_only(engine, too_stale)
        engine.run_for(engine.spec.read.staleness_bound + 1.0)
        self._advance_primary_only(engine, [("k2",)])  # newer, but inside the bound
        routed, outcome = self._replica_served(engine, keys)
        re_reads = self._spy_on_primary_reads(engine)
        stale_before = engine.stale_read_count()
        rows, slowest, error = engine._verify_replica_read(  # noqa: SLF001
            self.NAMESPACE, keys, routed, None)
        assert error is None and engine.stale_read_count() == stale_before
        assert [key for key, _ in re_reads] == too_stale
        assert all(result.success for _, result in re_reads)
        # the re-read keys carry the primary's value and their added latency;
        # the rest of the batch is served as the replica read it
        assert {key: row["v"] for key, row in rows.items()} == {
            ("k0",): 0, ("k1",): 101, ("k2",): 2, ("k3",): 3, ("k4",): 104, ("k5",): 5}
        assert slowest == outcome.latency + max(result.latency for _, result in re_reads)

    @pytest.mark.parametrize("availability_first", [True, False],
                             ids=["serve-stale", "fail"])
    def test_unreachable_primary_is_arbitrated_per_key_as_get_does(self, availability_first):
        from repro.core.consistency.spec import DEFAULT_PRIORITY, Axis, ConsistencySpec

        priority = list(DEFAULT_PRIORITY)
        if not availability_first:
            priority.remove(Axis.READ_CONSISTENCY)
            priority.insert(priority.index(Axis.AVAILABILITY), Axis.READ_CONSISTENCY)
        keys = [(f"k{i}",) for i in range(4)]
        engines = []
        for _ in range(2):
            engine, _ = self._glue(True, groups=1, warm=False,
                                   consistency=ConsistencySpec(priority=priority))
            group, _ = self._primary_of_the_one_group(engine)
            engine.cluster.network.partition({CLIENT_ENDPOINT}, {group.primary})
            engines.append(engine)
        batched, single = engines
        routed, _ = self._replica_served(batched, keys)
        rows, _, error = batched._verify_replica_read(  # noqa: SLF001
            self.NAMESPACE, keys, routed, None)
        gets, served_stale = [], []
        for key in keys:
            stale_before = single.stale_read_count()
            gets.append(single.get("items", key))
            served_stale.append(single.stale_read_count() > stale_before)
        assert served_stale == [availability_first] * len(keys)
        assert batched.stale_read_count() == single.stale_read_count() == (
            len(keys) if availability_first else 0)
        conflicts = [(engine.arbitrator.stale_serves(), engine.arbitrator.failed_requests())
                     for engine in (batched, single)]
        assert conflicts[0] == conflicts[1]
        assert sum(conflicts[0]) == len(keys)
        assert [rows[key] for key in keys] == [outcome.row for outcome in gets]
        assert error == gets[-1].error
        assert (error is None) == availability_first
        # a read whose bound could not be verified is never admitted
        assert len(batched.cache.store) == len(single.cache.store) == 0

    def test_a_down_primary_leaves_the_batch_unverified_as_get_does(self):
        keys = [(f"k{i}",) for i in range(4)]
        batched, _ = self._glue(True, groups=1, warm=False)
        single, _ = self._glue(True, groups=1, warm=False)
        for engine in (batched, single):
            self._primary_of_the_one_group(engine)[1].crash()
        routed, _ = self._replica_served(batched, keys)
        rows, _, error = batched._verify_replica_read(  # noqa: SLF001
            self.NAMESPACE, keys, routed, None)
        gets = [single.get("items", key) for key in keys]
        assert error is None
        assert batched.stale_read_count() == single.stale_read_count() == 0
        assert [rows[key] for key in keys] == [outcome.row for outcome in gets]
        for engine in (batched, single):
            assert engine.arbitrator.stale_serves() == engine.arbitrator.failed_requests() == 0
        assert len(batched.cache.store) == len(single.cache.store) == 0

    def test_a_monotonic_reads_session_rejects_per_key_inside_a_batch(self):
        from repro.core.consistency.spec import SessionGuarantee

        engine, reader = self._glue(False, groups=1,
                                    session=SessionGuarantee(monotonic_reads=True))
        session = reader._session  # noqa: SLF001
        keys = [(f"k{i}",) for i in range(4)]
        self._advance_primary_only(engine, [("k3",)])
        engine.run_for(engine.spec.read.staleness_bound + 1.0)  # k3: beyond the bound
        self._advance_primary_only(engine, [("k2",)])  # k2: inside it
        _, primary = self._primary_of_the_one_group(engine)
        for key in (("k2",), ("k3",)):
            session.note_read(self.NAMESPACE, key, primary.peek(self.NAMESPACE, key))
        routed, _ = self._replica_served(engine, keys)
        re_reads = self._spy_on_primary_reads(engine)
        stale_before = engine.stale_read_count()
        rows, _, error = engine._verify_replica_read(  # noqa: SLF001
            self.NAMESPACE, keys, routed, session)
        assert error is None and engine.stale_read_count() == stale_before
        # version 1 after seeing 2: k2 on the session's word alone, k3 once,
        # though the staleness bound asks for it too — and the session is
        # asked either way
        assert [key for key, _ in re_reads] == [("k2",), ("k3",)]
        assert [rows[key]["v"] for key in keys] == [0, 1, 102, 103]
        # ... and the whole batch is noted as seen
        assert set(session._last_seen_version) == {  # noqa: SLF001
            (self.NAMESPACE, key) for key in keys}
