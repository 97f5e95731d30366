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
   operation (hash: add/remove group, set_weight; range: split/merge/
   reassign/set_splits/rebalance) must bump the topology epoch and invalidate
   the token→group memo, so a memoized partitioner always answers exactly
   like a freshly built (memo-cold) replica of itself.

A third, from the cache's range index: **range misses and invalidations do
not walk the namespace** — their work is counted (not timed) against a
namespace holding thousands of other users' scans.

A fourth, from the write-path fast lane: **a propagation is one object** — the
gc-tracked allocations of a replicated write and of a retry cycle are counted
(not timed), so a closure per attempt cannot creep back in.

A fifth, from the dereference fast lane: **a query's dereference list is served
in one pass** — the interpreter-level calls of a cached query are counted (not
timed) against the length of its list, sessions hold no history their
guarantee cannot read, and the records on the path carry no ``__dict__``.

A sixth: **a stored row is copied once** — where its write is resolved, into a
read-only mapping — and every read path hands out that object, checked by
identity (``is``), not by timing.
"""

from __future__ import annotations

import gc
import sys
from collections import OrderedDict
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.social_network import SocialNetworkApp
from repro.cache.store import CacheEntry, StalenessBudgetCache
from repro.core.engine import Scads
from repro.core.query.executor import QueryResult
from repro.core.query.plans import entity_namespace
from repro.sim.latency import ConstantLatency, LogNormalLatency, QueueingLatency
from repro.sim.network import NetworkModel
from repro.sim.randomness import ZipfGenerator
from repro.sim.simulator import Simulator
from repro.storage.node import StorageNode
from repro.storage.partitioner import (
    ConsistentHashPartitioner,
    PartitionerError,
    RangePartitioner,
)
from repro.storage.records import KeyRange, VersionedValue
from repro.storage.replication import ReplicaGroup, ReplicationEngine

pytestmark = [pytest.mark.tier1, pytest.mark.property]


def hash_ring(group_ids, virtual_nodes=None):
    partitioner = ConsistentHashPartitioner()
    if virtual_nodes is not None:
        partitioner.virtual_nodes = virtual_nodes
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
    """Interleaving scalar draws with ``sample_many`` preserves draw order."""
    model = build()
    rng_pooled = np.random.default_rng(seed)
    head = [model.sample(rng_pooled) for _ in range(split)]
    tail = model.sample_many(rng_pooled, bulk).tolist()
    reference = _scalar_reference(build(), np.random.default_rng(seed), split + bulk)
    assert head + tail == pytest.approx(reference)


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
            elif op[0] == "remove":
                partitioner.remove_group(op[1])
            else:
                partitioner.set_weight(op[1], op[2])
        except PartitionerError:
            pass
    return partitioner


hash_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from([f"g{i}" for i in range(5)])),
        st.tuples(st.just("remove"), st.sampled_from([f"g{i}" for i in range(5)])),
        st.tuples(st.just("weight"), st.sampled_from([f"g{i}" for i in range(5)]),
                  st.sampled_from([0.25, 0.5, 1.0, 1.75, 3.0])),
    ),
    max_size=12,
)


@given(ops=hash_ops)
@settings(deadline=None)
def test_hash_route_memo_invalidates_across_topology_changes(ops):
    """After any op sequence, memoized routes equal a memo-cold replica's.

    The memoized partitioner answers queries *between* ops (priming the memo
    with soon-to-be-stale routes); a stale entry surviving an epoch bump
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
            elif op[0] == "remove":
                memoized.remove_group(op[1])
            else:
                memoized.set_weight(op[1], op[2])
            applied.append(op)
        except PartitionerError:
            pass
    fresh = _replay_hash(applied)
    for token in HASH_TOKENS:
        assert memoized.group_for_token(token) == fresh.group_for_token(token)


def test_hash_epoch_bumps_on_each_topology_change():
    partitioner = hash_ring(["g0", "g1"], virtual_nodes=16)
    epoch = partitioner.topology_epoch
    partitioner.add_group("g2")
    assert partitioner.topology_epoch > epoch
    epoch = partitioner.topology_epoch
    partitioner.set_weight("g2", 2.0)
    assert partitioner.topology_epoch > epoch
    epoch = partitioner.topology_epoch
    partitioner.remove_group("g2")
    assert partitioner.topology_epoch > epoch


def test_range_route_memo_invalidates_across_split_merge_reassign():
    """Route after each topology change matches an unmemoized partitioner."""
    tokens = [f"u{i:03d}" for i in range(40)]
    memoized = RangePartitioner(["g0", "g1", "g2"])
    mirror_ops = []

    def check():
        fresh = RangePartitioner(["g0", "g1", "g2"])
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
    apply("rebalance_evenly", tokens)


def test_range_epoch_bumps_on_each_topology_change():
    partitioner = RangePartitioner(["g0", "g1"])
    operations = [
        ("set_splits", (["", "u5"], ["g0", "g1"])),
        ("split_at", ("u7",)),
        ("reassign", (1, "g1")),
        ("merge_at", (1,)),
        ("add_group", ("g2",)),
        ("remove_group", ("g2",)),
        ("rebalance_evenly", (["a", "b", "c"],)),
    ]
    for name, args in operations:
        epoch = partitioner.topology_epoch
        getattr(partitioner, name)(*args)
        assert partitioner.topology_epoch > epoch, name


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
    """rf 3: each of the two scheduled applies is the record and its heap
    entry, which is the event (the closure-based engine allocated 13 tracked
    objects per apply)."""
    sim, _, engine, group = _replication_fixture()
    writes = [(("user", index), VersionedValue(index, timestamp=0.0, version=1))
              for index in range(200)]
    engine.propagate(group, "entity:profiles", ("warm",), writes[0][1])  # names, pools

    def work():
        for key, value in writes:
            engine.propagate(group, "entity:profiles", key, value)

    scheduled = 2 * len(writes)
    assert _tracked_allocations(work) <= 3 * scheduled
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


def test_a_session_without_guarantees_keeps_no_history():
    """500 dereferences and 50 writes later both version maps are empty."""
    engine = _social_engine({"reader": 20})
    session = engine.sessions.get("reader")
    assert not session.guarantee.any_enabled
    for _ in range(25):
        assert engine.query("friends", {"user_id": "reader"},
                            session_id="reader").dereferences == 20
    for index in range(50):
        assert engine.put("statuses", {"user_id": "reader", "status_id": index,
                                       "text": "hi"}, session_id="reader").success
    assert len(session._last_seen_version) == 0
    assert len(session._last_written_version) == 0


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
