"""Burst-aware node load estimation and the batched dereference path.

Two halves of the same physical fix: co-timed operations (one query's
fan-out, one maintenance tick's writes) must not read as a million-ops/sec
arrival rate, and a query's bounded dereference list must reach storage as
per-group multigets rather than one independent request per entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query.executor import QueryExecutor
from repro.storage.node import StorageNode
from repro.storage.records import VersionedValue

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
        assert batched.stats.reads == single.stats.reads  # key touches identical
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
            assert batched[key].value.value == router.read("entity:items", key).value.value

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

    def test_duplicate_keys_fetched_once(self):
        engine = self._engine(groups=1)
        engine.put("items", {"key": "dup", "v": 1})
        engine.settle()
        router = engine.router
        results = router.read_many("entity:items", [("dup",)] * 5 + [("dup",)])
        assert results[("dup",)].success
        assert len(results) == 1


class TestExecutorBatchedDereference:
    def _plan_and_data(self):
        from repro.core.query.plans import PrefixComponent, QueryPlan

        plan = QueryPlan(
            query_name="q", index_name="by_tag",
            prefix=[PrefixComponent(kind="parameter", value="tag")],
            range_bound=None, limit=5, descending=False,
            dereference=True, final_entity="items", final_key_length=1,
        )
        index_rows = [(("t", f"k{i}"), {}) for i in range(5)]
        entities = {(f"k{i}",): {"key": f"k{i}", "v": i} for i in range(5)}
        return plan, index_rows, entities

    def test_batched_rows_equal_single_rows(self):
        plan, index_rows, entities = self._plan_and_data()

        def range_read(namespace, start, end, limit, reverse):
            return list(index_rows), 0.001

        def entity_get(name, key):
            return dict(entities[key]), 0.002

        calls = {"many": 0}

        def entity_get_many(name, keys):
            calls["many"] += 1
            return {key: (dict(entities[key]), 0.002) for key in keys}

        single = QueryExecutor(range_read, entity_get).execute(plan, {"tag": "t"})
        batched = QueryExecutor(range_read, entity_get, entity_get_many).execute(
            plan, {"tag": "t"})
        assert calls["many"] == 1
        assert batched.rows == single.rows
        assert batched.dereferences == single.dereferences
        assert batched.latency == pytest.approx(single.latency)

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
        result = app.statuses_page("u0")
        assert any(r.get("text") == "hello-batched-world" for r in result.rows)


class TestEngineDereferenceGlue:
    """The ``entity_get_many`` closure ``Scads.query`` hands the executor."""

    @staticmethod
    def _glue(cache, monkeypatch):
        """A loaded engine and the closure its next query builds."""
        from repro import Scads
        from repro.core import engine as engine_module
        from repro.core.schema import EntitySchema, Field, FieldType

        engine = Scads(seed=7, autoscale=False, initial_groups=3, cache=cache)
        engine.register_entity(EntitySchema(
            name="items", key_fields=[Field("key")],
            value_fields=[Field("v", FieldType.INT)], max_per_partition=50,
        ))
        engine.register_query("all", "SELECT * FROM items WHERE key = <k>")
        engine.start()
        for i in range(6):
            engine.put("items", {"key": f"k{i}", "v": i})
        engine.settle()
        engine.get("items", ("k1",))  # with a tier: k1 is now cached
        captured = {}

        class Spy(QueryExecutor):
            def __init__(self, range_read, entity_get, entity_get_many):
                super().__init__(range_read, entity_get, entity_get_many)
                captured["get_many"] = entity_get_many

        monkeypatch.setattr(engine_module, "QueryExecutor", Spy)
        engine.query("all", {"k": "k0"})
        return engine, captured["get_many"]

    @pytest.mark.parametrize("cache", [None, False], ids=["cached", "uncached"])
    def test_duplicate_keys_read_once_with_identical_results(self, cache, monkeypatch):
        keys = [("k1",), ("k3",), ("k1",), ("absent",), ("k3",), ("k5",), ("k1",)]
        duplicated_engine, duplicated = self._glue(cache, monkeypatch)
        distinct_engine, distinct = self._glue(cache, monkeypatch)
        ops_before = dict(duplicated_engine.router._ops)  # noqa: SLF001
        with_duplicates = duplicated("items", keys)
        once_each = distinct("items", list(dict.fromkeys(keys)))
        assert with_duplicates == once_each  # rows and latencies, same seed
        assert with_duplicates[("k3",)][0] == {"key": "k3", "v": 3}
        assert with_duplicates[("absent",)][0] is None
        assert duplicated_engine.router._ops == distinct_engine.router._ops  # noqa: SLF001
        assert duplicated_engine.router._ops != ops_before  # noqa: SLF001
        if cache is None:
            assert (duplicated_engine.cache.store.stats
                    == distinct_engine.cache.store.stats)
        else:
            assert duplicated_engine.cache is None
