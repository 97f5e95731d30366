"""Hot-path perf machinery: pooled-sampler identity and route-memo safety.

The PR that pooled RNG sampling and memoized partitioner routing rests on two
invariants:

1. **Pooled draws are invisible** — every ``LatencyModel`` (and the pooled
   workload generators) must emit the *identical* value sequence a scalar
   draw loop would have produced from the same stream.  numpy fills
   distribution arrays element-by-element from the same bit stream, so this
   holds by construction; these property tests pin it against numpy upgrades
   and future model edits.
2. **The route memo never serves stale topology** — every ownership-changing
   operation (hash: add/remove group; range: add/remove group, split/merge/
   reassign/set_splits) must clear the token→group memo, so a memoized partitioner always answers exactly like a
   freshly built (memo-cold) replica of itself.

A third, from the cache's range index: **range misses and invalidations do
not walk the namespace** — their work is counted (not timed) against a
namespace holding thousands of other users' scans.

A fourth, from the write-path fast lane: **a write in flight is one object** —
the gc-tracked allocations of a replicated write and of a retry cycle are
counted (not timed), so neither a closure per attempt nor a record per replica
can creep back in.

A fifth, from the dereference fast lane: **a query's dereference list is served
in one pass** — the interpreter-level calls of a cached query are counted (not
timed) against the length of its list, sessions hold no history their
guarantee cannot read, and the records on the path carry no ``__dict__``.

A sixth: **a stored row is copied once** — where its write is resolved, into a
read-only mapping — and every read path hands out that object, checked by
identity (``is``), not by timing.

A seventh: **a version is a value** — every index and reverse-index version
written with the same fields at one simulated instant is one object, checked
by counting distinct objects against distinct field tuples, while entity
versions stay per key and last-write-wins orders what a shared version
stores exactly as before.

An eighth: **a stored copy costs a dict slot** — a node store orders its keys
only when a range read needs the order (counted through the node module's
``bisect``), every pooled sample is a built-in ``float``, and a pool holds
about one block of doubles (``tracemalloc``).
"""

from __future__ import annotations

import bisect
import gc
import sys
import tracemalloc
from collections import Counter, OrderedDict
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.social_network import SocialNetworkApp
from repro.cache.store import CacheEntry, StalenessBudgetCache
from repro.core import engine as engine_module
from repro.core.consistency.sessions import Session
from repro.core.engine import Scads
from repro.core.query.executor import QueryResult
from repro.core.query.plans import (
    ENTITY_NAMESPACE_PREFIX,
    INDEX_NAMESPACE_PREFIX,
    REVERSE_NAMESPACE_PREFIX,
    entity_namespace,
)
from repro.sim.latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    QueueingLatency,
)
from repro.sim.network import NetworkModel
from repro.sim.randomness import ZipfGenerator
from repro.sim.simulator import Simulator
from repro.experiments.harness import build_engine_and_app
from repro.workloads.generator import LoadGenerator
from repro.workloads.opmix import CloudStoneMix
from repro.workloads.social_graph import SocialGraph
from repro.workloads.traces import ConstantTrace
from repro.storage import node as node_module
from repro.storage.node import StorageNode
from repro.storage.partitioner import (
    ConsistentHashPartitioner,
    PartitionerError,
    RangePartitioner,
)
from repro.storage.records import KeyRange, VersionedValue
from repro.storage.replication import PropagationRecord, ReplicaGroup, ReplicationEngine

pytestmark = [pytest.mark.tier1, pytest.mark.property]


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


# ------------------------------------------------- pooled sampler identity


def _scalar_reference(model, rng, count):
    """The value sequence the pre-pooling scalar implementation produced."""
    if isinstance(model, ConstantLatency):
        return [model.value] * count
    if isinstance(model, LogNormalLatency):
        return [float(rng.lognormal(mean=np.log(model.median), sigma=model.sigma))
                for _ in range(count)]
    raise AssertionError(f"no scalar reference for {type(model).__name__}")


# The test fake and the shipped log-normal shapes: storage-node service, the
# network hop / cache hit, a zero-sigma edge and a heavy tail.
MODEL_BUILDERS = [
    lambda: ConstantLatency(0.004),
    lambda: LogNormalLatency(0.0005, 0.3),
    lambda: LogNormalLatency(0.004, 0.45),
    lambda: LogNormalLatency(0.002, 0.0),
    lambda: LogNormalLatency(0.01, 1.5),
]


@pytest.mark.parametrize("build", MODEL_BUILDERS)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       count=st.integers(min_value=1, max_value=2500))
@settings(deadline=None)
def test_pooled_sampler_matches_scalar_draws(build, seed, count):
    """Pooled ``sample()`` emits the identical per-stream value sequence.

    ``count`` deliberately crosses the pool block size so block refills are
    exercised, not just the first block.
    """
    model = build()
    rng_pooled = np.random.default_rng(seed)
    rng_scalar = np.random.default_rng(seed)
    pooled = [model.sample(rng_pooled) for _ in range(count)]
    reference = _scalar_reference(build(), rng_scalar, count)
    assert pooled == reference


@pytest.mark.parametrize("build", MODEL_BUILDERS)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       split=st.integers(min_value=0, max_value=700),
       bulk=st.integers(min_value=1, max_value=1500))
@settings(deadline=None)
def test_sample_many_continues_the_pooled_stream(build, seed, split, bulk):
    """``slowest``, the one read of many samples at once, returns the largest
    of the next ``bulk`` values as a built-in ``float`` and leaves the pooled
    stream where ``bulk`` scalar draws would, whether or not it crosses a
    block."""
    model = build()
    rng_pooled = np.random.default_rng(seed)
    head = [model.sample(rng_pooled) for _ in range(split)]
    slowest = model.slowest(rng_pooled, bulk)
    after = [model.sample(rng_pooled) for _ in range(3)]
    reference = _scalar_reference(build(), np.random.default_rng(seed),
                                  split + bulk + 3)
    assert type(slowest) is float
    assert head == reference[:split]
    assert slowest == max(reference[split:split + bulk])
    assert after == reference[split + bulk:]


def test_queueing_latency_pools_through_base():
    model = QueueingLatency(LogNormalLatency(0.004, 0.45))
    model.set_utilisation(0.5)
    rng = np.random.default_rng(3)
    pooled = [model.sample(rng) for _ in range(1500)]
    reference = [v / 0.5 for v in
                 _scalar_reference(LogNormalLatency(0.004, 0.45),
                                   np.random.default_rng(3), 1500)]
    assert pooled == pytest.approx(reference)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       count=st.integers(min_value=1, max_value=2500))
@settings(deadline=None)
def test_zipf_pooled_draws_match_scalar_uniforms(seed, count):
    """ZipfGenerator's pooled uniforms emit the pre-pooling index sequence."""
    zipf = ZipfGenerator(97, 0.8, np.random.default_rng(seed))
    pooled = [zipf.draw() for _ in range(count)]
    rng = np.random.default_rng(seed)
    cdf = zipf._cdf
    reference = [int(np.searchsorted(cdf, rng.random())) for _ in range(count)]
    assert pooled == reference


# ------------------------------------------------- route memo invalidation


HASH_TOKENS = [f"u{i:03d}" for i in range(80)]


def _replay_hash(ops):
    """A fresh (memo-cold) hash partitioner after replaying ``ops``."""
    partitioner = hash_ring(["g0", "g1"], virtual_nodes=16)
    for op in ops:
        try:
            if op[0] == "add":
                partitioner.add_group(op[1])
            else:
                partitioner.remove_group(op[1])
        except PartitionerError:
            pass
    return partitioner


hash_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from([f"g{i}" for i in range(5)])),
        st.tuples(st.just("remove"), st.sampled_from([f"g{i}" for i in range(5)])),
    ),
    max_size=12,
)


@given(ops=hash_ops)
@settings(deadline=None)
def test_hash_route_memo_invalidates_across_topology_changes(ops):
    """After any op sequence, memoized routes equal a memo-cold replica's.

    The memoized partitioner answers queries *between* ops (priming the memo
    with soon-to-be-stale routes); a stale entry surviving a topology change
    would diverge from the fresh replay.
    """
    memoized = hash_ring(["g0", "g1"], virtual_nodes=16)
    applied = []
    for op in ops:
        for token in HASH_TOKENS[::7]:  # prime the memo before each change
            memoized.group_for_token(token)
        try:
            if op[0] == "add":
                memoized.add_group(op[1])
            else:
                memoized.remove_group(op[1])
            applied.append(op)
        except PartitionerError:
            pass
    fresh = _replay_hash(applied)
    for token in HASH_TOKENS:
        assert memoized.group_for_token(token) == fresh.group_for_token(token)


def test_range_route_memo_invalidates_across_split_merge_reassign():
    """Route after each topology change matches an unmemoized partitioner."""
    tokens = [f"u{i:03d}" for i in range(40)]
    memoized = range_partitioner(["g0", "g1", "g2"])
    mirror_ops = []

    def check():
        fresh = range_partitioner(["g0", "g1", "g2"])
        for name, args in mirror_ops:
            getattr(fresh, name)(*args)
        for token in tokens:
            assert memoized.group_for_token(token) == fresh.group_for_token(token)

    def apply(name, *args):
        for token in tokens:  # prime the memo with the pre-change routes
            memoized.group_for_token(token)
        getattr(memoized, name)(*args)
        mirror_ops.append((name, args))
        check()

    apply("set_splits", ["", "u010", "u020"], ["g0", "g1", "g2"])
    apply("split_at", "u015")        # -> [g0, g1, g1, g2]
    apply("merge_at", 1)             # -> [g0, g1, g2] (same-owner merge)
    apply("reassign", 2, "g0")       # -> [g0, g1, g0]
    apply("add_group", "g3")
    apply("reassign", 0, "g3")       # -> [g3, g1, g0]
    apply("remove_group", "g2")      # unreferenced group leaves cleanly
    apply("remove_group", "g3")      # its range falls back to g0


# ----------------------------------------------------- cached-range index


class _CountingEntries(OrderedDict):
    """A cache's entry map that counts the entries looked up by token: every
    range candidate a lookup or an invalidation inspects is one."""

    looked_up = 0

    def __getitem__(self, token):
        self.looked_up += 1
        return super().__getitem__(token)


def test_range_misses_and_invalidations_do_not_walk_the_namespace():
    """With 4096 other users' scans cached in one namespace, an exact-token
    miss inspects one entry — the oldest admitted, for expiry — and a point
    invalidation a handful of candidates — the written user's own scans —
    not the namespace."""
    store = StalenessBudgetCache(capacity=100_000)
    namespace = "index:friends"
    for index in range(4096):
        user = f"u{index:08d}"
        rows = [((user, f"f{friend:04d}"), {}) for friend in range(2)]
        store.put_range(namespace, (user,), (user + "\x00",), 50, False, rows,
                        now=0.0, ttl=10.0)
        # a second, bounded scan of the same user's prefix
        store.put_range(namespace, (user, "f0000"), (user, "f0001\x00"), 50, False,
                        rows[:1], now=0.0, ttl=10.0)
    store._entries = entries = _CountingEntries(store._entries)  # noqa: SLF001
    for index in range(1000):
        user = f"u{index:08d}"
        before = entries.looked_up
        # same prefix, another limit: misses its exact token
        assert store.get_range(namespace, (user,), (user + "\x00",), 20, False,
                               now=1.0) is None
        assert entries.looked_up - before <= 1
        before = entries.looked_up
        stranger = f"v{index:08d}"
        assert store.get_range(namespace, (stranger,), (stranger + "\x00",), 50,
                               False, now=1.0) is None
        assert entries.looked_up - before <= 1
    assert store.stats.misses == 2000
    for index in range(1000):
        before = entries.looked_up
        dropped = store.invalidate_key(namespace, (f"u{index:08d}", "f0000"))
        assert dropped == 2
        assert entries.looked_up - before <= 4
    assert len(store) == 2 * (4096 - 1000)


# ------------------------------------------- one object per propagation


def _replication_fixture(max_retries=100):
    sim = Simulator(seed=1)
    nodes = {node_id: StorageNode(node_id, sim.random.get(f"node:{node_id}"))
             for node_id in ("n0", "n1", "n2")}
    engine = ReplicationEngine(sim, NetworkModel(sim.random.get("network")), nodes)
    engine.max_retries = max_retries
    return sim, nodes, engine, ReplicaGroup("g", list(nodes))


def _tracked_allocations(work) -> int:
    """Net growth of the youngest gc generation while ``work()`` runs with
    collection off: the gc-tracked objects it allocated and left alive."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        work()
        return gc.get_count()[0] - before
    finally:
        if was_enabled:
            gc.enable()


def test_a_replicated_write_allocates_one_object_per_replica_apply():
    """rf 3: the write's two deliveries are one record and its one heap entry,
    which is the event (a record per apply allocated two tracked objects per
    apply, the closure-based engine 13)."""
    sim, _, engine, group = _replication_fixture()
    writes = [(("user", index), VersionedValue(index, timestamp=0.0, version=1))
              for index in range(200)]
    engine.propagate(group, "entity:profiles", ("warm",), writes[0][1])  # names, pools

    def work():
        for key, value in writes:
            engine.propagate(group, "entity:profiles", key, value)

    scheduled = 2 * len(writes)
    assert _tracked_allocations(work) <= 3 * len(writes)
    assert len(sim.queue) == len(writes) + 1
    assert engine.pending_count() == scheduled + 2


def test_a_retry_cycle_re_arms_the_same_record():
    """Against a crashed replica every cycle is a ``replicate-retry`` event and
    a re-attempt event carrying the *same* record — nothing else.  Fired events
    are kept alive so that what each one allocated stays counted."""
    cycles = 200
    sim, nodes, engine, _ = _replication_fixture(max_retries=cycles + 1)
    nodes["n1"].crash()
    record = engine.replicate_to("n0", "n1", "entity:profiles", ("user", 0),
                                 VersionedValue(0, timestamp=0.0, version=1))
    fired = []

    def work():
        for _ in range(2 * cycles):
            entry = sim.queue.pop()
            sim.clock.advance_to(entry[0])
            entry[3]()
            fired.append(entry)

    assert _tracked_allocations(work) <= 3 * cycles
    assert all(entry[3] is record for entry in fired)
    assert [entry[4] for entry in fired[:2]] == ["replicate:entity:profiles",
                                                 "replicate-retry"]
    assert engine.pending_count() == 1 and record.applied_time is None


# ------------------------------------------- one pass per dereference list


def _social_engine(friends_of):
    """An engine holding ``user -> number of friends`` friend lists."""
    engine = Scads(seed=5, autoscale=False, initial_groups=2)
    app = SocialNetworkApp(engine, register_friends_of_friends=False)
    for user, count in friends_of.items():
        for index in range(count):
            app.add_friendship(user, f"{user}-friend{index:02d}")
    engine.start()
    engine.settle()
    return engine


def _profiled_calls(work):
    """(Python-level, C-level) function calls made while ``work()`` runs."""
    calls = {"call": 0, "c_call": 0}

    def profiler(frame, event, arg):
        if event in calls:
            calls[event] += 1

    sys.setprofile(profiler)
    try:
        work()
    finally:
        sys.setprofile(None)
    # the call that switches profiling off is itself reported
    return calls["call"], calls["c_call"] - 1


def test_a_cached_query_makes_the_same_calls_whatever_its_length():
    """All hits: the interpreter-level calls of ``query("friends")`` do not
    depend on the number of dereferences, and the C-level ones grow by at most
    3 each (one store probe, one LRU refresh; the per-key path made 2 more
    Python-level and 7 C-level calls per dereference)."""
    engine = _social_engine({"few": 3, "many": 15})
    for user in ("few", "many", "few", "many"):  # fills the cache, then the
        engine.query("friends", {"user_id": user}, session_id=user)  # latency pool
    counted = {}
    for user in ("few", "many"):
        params = {"user_id": user}
        hits_before = engine.cache.store.stats.hits

        def work():
            counted[user] = engine.query("friends", params, session_id=user)

        python_calls, c_calls = _profiled_calls(work)
        served = engine.cache.store.stats.hits - hits_before
        assert served == counted[user].dereferences + 1  # the scan and every row
        counted[user] = (python_calls, c_calls, counted[user].dereferences)
    few_python, few_c, few_dereferences = counted["few"]
    many_python, many_c, many_dereferences = counted["many"]
    assert (few_dereferences, many_dereferences) == (3, 15)
    assert many_python == few_python
    assert many_c - few_c <= 3 * (many_dereferences - few_dereferences)


def test_a_session_without_guarantees_keeps_no_history(monkeypatch):
    """A session that guarantees nothing can reject no value: with the default
    spec and a session id on every op, a social-network run (bulk load, then
    twenty seconds of the CloudStone mix) opens no ``Session`` and consults
    none on any read or write path."""
    calls = Counter()
    for name in ("__init__", "note_read", "note_reads", "acceptable", "note_write"):
        def counted(*args, _name=name, _function=getattr(Session, name), **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)
        monkeypatch.setattr(Session, name, counted)
    engine, app, graph = build_engine_and_app(seed=11, n_users=60, autoscale=False)
    assert not engine.spec.session.any_enabled
    engine.start()
    generator = LoadGenerator(engine.sim, ConstantTrace(100.0),
                              CloudStoneMix(graph, engine.sim.random.get("mix")),
                              app.execute)
    generator.start()
    engine.run_for(20.0)
    generator.stop()
    counts = engine.cumulative_operation_counts()
    assert counts["read"] > 1000 and counts["write"] > 100
    hits, misses = engine.cache.hit_counts()
    assert hits > 0 and misses > 0
    assert calls == Counter()


def test_a_cached_get_is_the_tiers_hit():
    """A get served by the cache returns the row and latency of the
    ``lookup_entity`` hit it made, and draws no other hit latency."""
    engines = [_social_engine({"reader": 1}) for _ in range(2)]
    key = ("reader", "reader-friend00")
    for engine in engines:
        assert engine.get("friendships", key).success  # fills the cache
    served, twin = engines
    hits = []
    lookup = served.cache.lookup_entity

    def recorded(*args):
        hits.append(lookup(*args))
        return hits[-1]

    served.cache.lookup_entity = recorded
    outcome = served.get("friendships", key, session_id="reader")
    value, latency = hits[0]
    assert outcome.row is value.value
    assert outcome.latency == latency
    assert twin.cache.lookup_entity(entity_namespace("friendships"), key, None) == hits[0]
    assert served.cache.sample_hit_latency() == twin.cache.sample_hit_latency()


# ------------------------------------------------- one copy per stored row


def _primary_row(engine, entity, key):
    """The row the owning group's primary holds for ``key``."""
    namespace = entity_namespace(entity)
    group = engine.cluster.group_for_key(namespace, key)
    return engine.cluster.nodes[group.primary].peek(namespace, key).value


def test_every_read_path_hands_out_the_stored_row_itself():
    """A stored row is copied once, where its write is resolved: a
    cluster-served get, a cache hit, a query's dereferences (from the cluster
    and from the cache) and index maintenance's pre-reads each return the very
    mapping the primary's ``VersionedValue`` holds — objects, not timings."""
    engine = _social_engine({"reader": 2})
    keys = [("reader", "reader-friend00"), ("reader", "reader-friend01")]
    stored = {key: _primary_row(engine, "friendships", key) for key in keys}
    assert all(isinstance(row, MappingProxyType) for row in stored.values())

    hits, misses = engine.cache.hit_counts()
    assert engine.get("friendships", keys[0]).row is stored[keys[0]]
    assert engine.cache.hit_counts() == (hits, misses + 1)  # cluster-served
    assert engine.get("friendships", keys[0]).row is stored[keys[0]]
    assert engine.cache.hit_counts() == (hits + 1, misses + 1)  # cache hit

    for _ in range(2):  # friend01 from the cluster, then every row from the cache
        result = engine.query("friends", {"user_id": "reader"})
        assert result.dereferences == 2
        assert all(row is stored[(row["f1"], row["f2"])] for row in result.rows)

    adapter = engine._adapter
    assert adapter.entity_row("friendships", keys[1]) is stored[keys[1]]
    assert all(row is stored[(row["f1"], row["f2"])]
               for row in adapter.entity_rows_by_prefix("friendships", ("reader",)))


def test_a_cluster_served_scan_hands_its_rows_through_uncopied(monkeypatch):
    """The list ``Router.read_range`` returns for a query's index scan is the
    list the executor receives and the list the cache admits: no per-row
    re-projection between the serving node and the executor."""
    engine = _social_engine({"reader": 3})
    returned, received, admitted = [], [], []
    read_range = engine.router.read_range
    admit_range = engine.cache.admit_range
    range_read = engine_module._QueryReader.range_read

    def recording_read_range(*args, **kwargs):
        result = read_range(*args, **kwargs)
        returned.append(result.rows)
        return result

    def recording_admit_range(*args, **kwargs):
        entry = admit_range(*args, **kwargs)
        admitted.append(entry.value)
        return entry

    def recording_range_read(reader, *args):
        rows, latency = range_read(reader, *args)
        received.append(rows)
        return rows, latency

    monkeypatch.setattr(engine.router, "read_range", recording_read_range)
    monkeypatch.setattr(engine.cache, "admit_range", recording_admit_range)
    monkeypatch.setattr(engine_module._QueryReader, "range_read", recording_range_read)
    assert engine.query("friends", {"user_id": "reader"}).index_entries_read == 3
    assert len(returned) == len(received) == len(admitted) == 1
    assert received[0] is returned[0]
    assert admitted[0] is returned[0]
    assert all(type(versioned.value) is int for _, versioned in returned[0])


def test_hot_path_records_are_slotted():
    versioned = VersionedValue({"a": 1}, timestamp=0.0)
    records = [
        versioned,
        KeyRange("ns", ("a",), ("b",)),
        CacheEntry(("entity", "ns", ("a",)), "ns", versioned, 0.0, 1.0, ("a",)),
        QueryResult([], 0.0, 0, 0),
    ]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__


# ------------------------------------------------- a version is a value


def _stored_versions(engine, prefixes):
    """``(namespace, key, version)`` for every version the nodes hold in a
    namespace starting with one of ``prefixes``."""
    return [(namespace, key, versioned)
            for node in engine.cluster.nodes.values()
            for namespace, store in node._namespaces.items()
            if namespace.startswith(prefixes)
            for key, versioned in store._data.items()]


def _loaded_app():
    engine = Scads(seed=5, autoscale=False, initial_groups=2)
    app = SocialNetworkApp(engine)
    engine.start()
    app.load_graph(SocialGraph(40, np.random.default_rng(3), max_friends=6,
                               mean_friends=3.0))
    engine.settle()
    return engine


def test_identical_index_versions_written_at_one_instant_are_one_object():
    """After a bulk load, the index and reverse-index versions on every node
    are as many objects as there are distinct field tuples (one object per
    routed write held them before); entity versions are never shared by two
    keys."""
    engine = _loaded_app()
    index_versions = [versioned for *_, versioned in _stored_versions(
        engine, (INDEX_NAMESPACE_PREFIX, REVERSE_NAMESPACE_PREFIX))]
    fields = {(v.value, v.timestamp, v.writer, v.version, v.tombstone)
              for v in index_versions}
    assert len(index_versions) > 10 * len(fields)  # sharing has something to do
    assert len({id(v) for v in index_versions}) == len(fields)

    keys_of = {}
    for namespace, key, versioned in _stored_versions(
            engine, (ENTITY_NAMESPACE_PREFIX,)):
        keys_of.setdefault(id(versioned), set()).add((namespace, key))
    assert keys_of and all(len(keys) == 1 for keys in keys_of.values())


def test_a_delete_and_re_create_at_one_instant_keeps_last_write_wins():
    """Two index keys each deleted and re-created at one instant share their
    tombstone and their value version, and every replica still ends at the
    re-create (version 2 beats the version-1 tombstone of the same
    timestamp)."""
    engine = _loaded_app()
    router = engine.router
    namespace = INDEX_NAMESPACE_PREFIX + "friends"
    keys = [("zz-new", "a"), ("zz-new", "b")]
    written = []
    for key in keys:
        deleted = router.delete(namespace, key, writer="index-maintenance")
        created = router.write(namespace, key, 1, writer="index-maintenance")
        written.append((deleted.value, created.value))
    (tombstone, value), (other_tombstone, other_value) = written
    assert tombstone is other_tombstone and value is other_value
    assert (tombstone.version, tombstone.tombstone) == (1, True)
    assert (value.version, value.value, value.tombstone) == (2, 1, False)
    engine.settle()
    for key in keys:
        group = engine.cluster.group_for_key(namespace, key)
        assert len(group.node_ids) == 3
        for node_id in group.node_ids:
            assert engine.cluster.nodes[node_id].peek(namespace, key) is value



def test_a_namespace_string_is_built_once():
    """Every queued replica update holds its namespace's one string: after a
    settled load, new writes queue index maintenance, and once the queue is
    drained the in-flight propagations carry no more distinct namespace
    objects than namespaces, each the object its spec names."""
    assert entity_namespace("profiles") is entity_namespace("profiles")
    engine = Scads(seed=5, autoscale=False, initial_groups=2)
    app = SocialNetworkApp(engine)
    engine.start()
    app.load_graph(SocialGraph(40, np.random.default_rng(3), max_friends=6,
                               mean_friends=3.0))
    engine.settle()
    app.add_friendship("u0", "u7")
    app.update_profile("u3", birthday="01-02")
    assert engine.flush_indexes() > 0
    records = [entry[3] for entry in engine.sim.queue._heap
               if isinstance(entry[3], PropagationRecord)]
    namespaces = {record.namespace for record in records}
    assert any(name.startswith(INDEX_NAMESPACE_PREFIX) for name in namespaces)
    assert len({id(record.namespace) for record in records}) == len(namespaces)
    specs = {entity_namespace(name) for name in ("profiles", "friendships")}
    for name in ("friends", "friend_birthdays"):
        compiled = engine.compiled_query(name)
        specs.add(compiled.index_spec.namespace)
        specs.update(spec.namespace for spec in compiled.reverse_indexes)
    by_value = {name: name for name in specs}
    for record in records:
        assert record.namespace is by_value.get(record.namespace), record.namespace


# ------------------------------------------------- a stored copy costs a dict slot


class _CountingBisect:
    """Stands in for the node module's ``bisect``, counting each call."""

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        function = getattr(bisect, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return function(*args, **kwargs)
        return counted


def test_stored_copies_sort_no_key_until_an_ordered_read(monkeypatch):
    """Primary puts and replica applies are one dict store each; scans and
    batch deletes order no key; only a range read orders its
    store, by one sort when the keys added since its last ordered read are
    many and by insertion when they are few against the sorted keys."""
    counting = _CountingBisect()
    monkeypatch.setattr(node_module, "bisect", counting)
    node = StorageNode("n", np.random.default_rng(0))
    keys = [(lead, n) for lead in ("u5", "u3", "u9", "u1") for n in (2, 0, 1)]
    version = VersionedValue(1, timestamp=1.0)
    for namespace in ("ranged", "scanned", "dropped"):
        for key in keys:
            node.put(namespace, key, version, now=1.0)
    for key in keys:
        assert node.apply_replica_write("replica", key, version)
    assert counting.calls == {}

    rows, _ = node.get_range(KeyRange("ranged", ("u3",), ("u3\x00",)), now=2.0)
    assert [key for key, _ in rows] == [("u3", 0), ("u3", 1), ("u3", 2)]
    assert counting.calls["insort"] == 0  # twelve new keys took one sort
    ranged = node._store("ranged")
    assert ranged._sorted_keys == sorted(keys)

    # A scan reads storage order; a batch delete of keys no range read has
    # ordered only drops them from the dict.
    assert [key for key, _ in node.scan_namespace("scanned")] == keys
    dropped = node._store("dropped")
    dropped.delete_many([("u5", 1)])
    dropped.delete_many([("u3", 2), ("u1", 0), ("absent", 0)])
    assert [key for key, _ in node.scan_namespace("dropped")] == [
        key for key in keys if key not in (("u5", 1), ("u3", 2), ("u1", 0))]
    assert node._store("scanned")._sorted_keys == dropped._sorted_keys == []
    # Deleting ordered keys takes them out of the sorted list as it stands;
    # deleting a key stored since (the dict's unordered tail) leaves the
    # sorted list alone.
    ranged.delete_many([("u9", 0)])
    ranged.delete_many([("u1", 1), ("u5", 2)])
    node.put("ranged", ("u2", 0), version, now=2.5)
    ranged.delete_many([("u2", 0)])
    assert ranged._sorted_keys == sorted(
        set(keys) - {("u9", 0), ("u1", 1), ("u5", 2)})
    assert counting.calls["insort"] == 0

    node.put("ranged", ("u4", 0), version, now=3.0)
    node.apply_replica_write("replica", ("u0", 0), version)
    assert counting.calls["insort"] == 0
    rows, _ = node.get_range(KeyRange("ranged", ("u4",), ("u4\x00",)), now=4.0)
    assert [key for key, _ in rows] == [("u4", 0)]
    assert counting.calls["insort"] == 1  # one key into nine sorted ones
    # Nothing has range-read the replica's store: it has sorted no key.
    assert node._store("replica")._sorted_keys == []


@pytest.mark.parametrize("build", MODEL_BUILDERS + [
    lambda: QueueingLatency(LogNormalLatency(0.004, 0.45)),
])
def test_every_pooled_sample_is_a_builtin_float(build):
    model = build()
    rng = np.random.default_rng(7)
    samples = [model.sample(rng) for _ in range(2 * LatencyModel.POOL_BLOCK + 5)]
    if isinstance(model, QueueingLatency):
        model.set_contention(1.5)  # the tracking branch of the inlined lookup
        samples += [model.sample(rng) for _ in range(LatencyModel.POOL_BLOCK)]
    assert {type(sample) for sample in samples} == {float}


def test_a_pool_holds_about_one_block_of_doubles():
    """Whatever is drawn, a pool keeps about ``POOL_BLOCK`` doubles alive:
    the traced memory held after each block's worth of draws stays within
    one block of doubles plus an eighth (a list of floats would hold four
    blocks)."""
    model = LogNormalLatency(0.004, 0.45)
    rng = np.random.default_rng(11)
    model.sample(rng)  # the pool and its first block exist before tracing
    block_bytes = 8 * LatencyModel.POOL_BLOCK
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            for _ in range(LatencyModel.POOL_BLOCK):
                model.sample(rng)
            held = tracemalloc.get_traced_memory()[0] - baseline
            assert held <= block_bytes * 9 // 8
    finally:
        tracemalloc.stop()
