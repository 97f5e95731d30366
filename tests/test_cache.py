"""Tests for the staleness-budget cache tier.

Correctness contract under test:

* no cached read is ever served beyond its declared staleness bound (a
  hypothesis property over random write/read/advance schedules, validated
  against an externally maintained write history);
* read-your-writes sessions bypass the cache after they write (regression);
* write-through invalidation drops the written key and exactly the cached
  range scans covering it;
* the store's LRU + TTL accounting stays within capacity;
* the provisioning loop sees cache absorption (monitor hit-rate feature,
  planner demand discount);
* the indexed range lookups and invalidations behave exactly like a linear
  scan of every cached range (a hypothesis property against a brute-force
  model kept in this file), and the batched dereference lookup exactly like
  that many single lookups.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, strategies as st

from repro.cache.store import CacheStats, StalenessBudgetCache, entity_token
from repro.cache.tier import CacheConfig, CacheTier
from repro.core.consistency.spec import (
    ConsistencySpec,
    PerformanceSLA,
    ReadConsistency,
    SessionGuarantee,
)
from repro.core.engine import Scads
from repro.core.query.plans import entity_namespace
from repro.core.consistency.sessions import Session
from repro.core.schema import EntitySchema, Field
from repro.sim.simulator import Simulator
from repro.storage.records import VersionedValue, prefix_bounds

pytestmark = pytest.mark.tier1

BOUND = 5.0


def make_engine(staleness_bound: float = BOUND, read_your_writes: bool = False,
                capacity: int = 256, seed: int = 3) -> Scads:
    spec = ConsistencySpec(
        performance=PerformanceSLA(percentile=99.0, latency=0.250),
        read=ReadConsistency(staleness_bound=staleness_bound),
        session=SessionGuarantee(read_your_writes=read_your_writes),
    )
    engine = Scads(seed=seed, consistency=spec, autoscale=False,
                   initial_groups=2, cache=CacheConfig(capacity=capacity))
    engine.register_entity(EntitySchema(
        "profiles", key_fields=[Field("user_id")], value_fields=[Field("bio")],
    ))
    engine.start()
    return engine


# ------------------------------------------------------------------ the store


class TestStore:
    def test_lru_eviction_keeps_cost_within_capacity(self):
        store = StalenessBudgetCache(capacity=3)
        for i in range(5):
            store.put_entity("ns", (f"k{i}",), i, now=0.0, ttl=10.0)
        assert store.cost_total <= 3
        assert store.stats.lru_evictions == 2
        assert store.get(entity_token("ns", ("k0",)), now=0.0) is None
        assert store.get(entity_token("ns", ("k4",)), now=0.0) is not None

    def test_hit_refreshes_lru_position(self):
        store = StalenessBudgetCache(capacity=2)
        store.put_entity("ns", ("a",), 1, now=0.0, ttl=10.0)
        store.put_entity("ns", ("b",), 2, now=0.0, ttl=10.0)
        store.get(entity_token("ns", ("a",)), now=0.0)  # a is now most recent
        store.put_entity("ns", ("c",), 3, now=0.0, ttl=10.0)
        assert store.get(entity_token("ns", ("a",)), now=0.0) is not None
        assert store.get(entity_token("ns", ("b",)), now=0.0) is None

    def test_ttl_expiry_is_a_miss_and_reclaims(self):
        store = StalenessBudgetCache(capacity=8)
        store.put_entity("ns", ("k",), 1, now=0.0, ttl=2.0)
        assert store.get(entity_token("ns", ("k",)), now=1.9) is not None
        assert store.get(entity_token("ns", ("k",)), now=2.0) is None
        assert (store.stats.hits, store.stats.misses) == (1, 1)
        assert len(store) == 0

    def test_range_entries_cost_their_row_count(self):
        store = StalenessBudgetCache(capacity=10)
        rows = [(("k", i), {"v": i}) for i in range(7)]
        store.put_range("ns", ("k",), ("k\x00",), None, False, rows, now=0.0, ttl=10.0)
        assert store.cost_total == 7
        store.put_entity("ns", ("x",), 1, now=0.0, ttl=10.0)
        store.put_entity("ns", ("y",), 2, now=0.0, ttl=10.0)
        store.put_entity("ns", ("z",), 3, now=0.0, ttl=10.0)
        assert store.cost_total <= 10

    def test_invalidate_key_drops_exactly_the_covering_ranges(self):
        store = StalenessBudgetCache(capacity=64)
        store.put_entity("ns", ("k", 5), 1, now=0.0, ttl=10.0)
        store.put_range("ns", ("k", 0), ("k", 9), None, False,
                        [(("k", 5), {})], now=0.0, ttl=10.0)
        store.put_range("ns", ("k", 6), ("k", 9), None, False,
                        [(("k", 6), {})], now=0.0, ttl=10.0)
        store.put_range("ns", ("m", 0), ("m", 9), None, False,
                        [(("m", 5), {})], now=0.0, ttl=10.0)
        store.put_range("other", ("k", 0), ("k", 9), None, False,
                        [(("k", 5), {})], now=0.0, ttl=10.0)
        dropped = store.invalidate_key("ns", ("k", 5))
        assert dropped == 2  # the entity entry and the one covering range
        # the same-lead range past the key, the other lead, the other namespace
        assert len(store) == 3

    def test_an_int_led_prefix_range_is_dropped_by_a_write_under_its_lead(self):
        """A one-component int prefix ``[(7,), (8,))`` lies under partition
        key 7 -- the router reads it from 7's group alone -- so the cache
        files it under 7, where a write to any key led by 7 finds it."""
        store = StalenessBudgetCache(capacity=64)
        store.put_range("ns", *prefix_bounds((7,)), None, False,
                        [((7, "a"), {})], now=0.0, ttl=10.0)
        assert list(store._ranges["ns"].buckets) == [7]
        assert store.invalidate_key("ns", (8, "a")) == 0
        assert store.invalidate_key("ns", (7, "b")) == 1
        assert len(store) == 0

    def test_a_range_spanning_partition_keys_is_not_admitted(self):
        store = StalenessBudgetCache(capacity=64)
        with pytest.raises(ValueError):
            store.put_range("ns", ("a",), ("z",), None, False, [], now=0.0, ttl=10.0)
        assert len(store) == 0 and store.cost_total == 0


# ------------------------------------------------------ the admission policy


class TestPolicy:
    """The TTLs the tier derives from the staleness bound, asserted through
    what it admits: an entry expires at ``now + servable_budget - carried
    staleness``, the budget being the bound less its propagation headroom."""

    def tier(self, bound: float = 10.0):
        sim = Simulator(seed=1)
        tier = CacheTier(CacheConfig(), spec=ConsistencySpec(
            read=ReadConsistency(staleness_bound=bound)), simulator=sim)
        sim.run_until(3.0)
        return tier

    def test_ttl_is_bound_minus_headroom_minus_carried_staleness(self):
        tier = self.tier(10.0)  # derived headroom: 1 s
        assert tier.admit_entity("ns", ("a",), "v", 0.0).expires_at == pytest.approx(3.0 + 9.0)
        assert tier.admit_entity("ns", ("b",), "v", 4.0).expires_at == pytest.approx(3.0 + 5.0)
        assert tier.admit_entity("ns", ("c",), "v", 9.5) is None
        scan = tier.admit_range("ns", ("a",), ("a", "~"), None, False, [])
        assert scan.expires_at == pytest.approx(3.0 + 9.0)

    def test_unverified_reads_are_never_admitted(self):
        tier = self.tier(10.0)
        assert tier.admit_entity("ns", ("k",), "v", None) is None
        assert len(tier.store) == 0

    # Budgets of 0.9 s and 9 s: the staleness values straddle both.
    @pytest.mark.parametrize("bound", [1.0, 10.0])
    @pytest.mark.parametrize("known_staleness", [None, -1.0, 0.0, 4.0, 9.0, 9.5, 30.0])
    def test_the_tier_admits_for_exactly_the_policy_ttl(self, bound, known_staleness):
        tier = self.tier(bound)
        entry = tier.admit_entity("ns", ("k",), "value", known_staleness)
        if known_staleness is None or known_staleness < 0 \
                or known_staleness >= tier.servable_budget:
            assert entry is None and len(tier.store) == 0
        else:
            # admitted now, for what is left of the budget
            assert entry.expires_at == 3.0 + (tier.servable_budget - known_staleness)
            assert tier.store.peek(entity_token("ns", ("k",))) is entry

    def test_default_headroom_scales_with_the_bound_but_is_capped(self):
        # headroom: 10 % of the bound, at most 2 s
        for bound, budget in ((10.0, 9.0), (600.0, 598.0)):
            tier = self.tier(bound)
            assert tier.servable_budget == pytest.approx(budget)
            entry = tier.admit_entity("ns", ("k",), "value", 0.5)
            assert entry.expires_at == 3.0 + tier.servable_budget - 0.5


# ------------------------------------------------------------ engine behaviour


class TestEngineIntegration:
    def test_cache_defaults_on_and_false_opts_out(self):
        engine = Scads(seed=0, autoscale=False)
        assert engine.cache is not None
        opted_out = Scads(seed=0, autoscale=False, cache=False)
        assert opted_out.cache is None
        assert opted_out.cache_hit_counts() == (0, 0)

    def test_repeated_get_hits_cache_and_is_much_faster(self):
        engine = make_engine()
        engine.put("profiles", {"user_id": "u1", "bio": "hi"})
        engine.settle(1.0)
        miss = engine.get("profiles", ("u1",))
        hit = engine.get("profiles", ("u1",))
        assert hit.row == miss.row
        assert hit.latency < miss.latency / 2
        assert engine.cache.store.stats.hits == 1

    def test_write_through_invalidation_on_put_and_delete(self):
        engine = make_engine()
        engine.put("profiles", {"user_id": "u1", "bio": "v1"})
        engine.settle(1.0)
        engine.get("profiles", ("u1",))
        assert engine.cache.store.peek(
            entity_token(entity_namespace("profiles"), ("u1",))) is not None
        engine.put("profiles", {"user_id": "u1", "bio": "v2"})
        assert engine.cache.store.peek(
            entity_token(entity_namespace("profiles"), ("u1",))) is None
        engine.settle(1.0)
        engine.get("profiles", ("u1",))
        engine.delete("profiles", ("u1",))
        assert engine.cache.store.peek(
            entity_token(entity_namespace("profiles"), ("u1",))) is None

    def test_cached_query_range_invalidated_by_index_maintenance(self):
        engine = make_engine()
        engine.register_query(
            "profile_of", "SELECT * FROM profiles WHERE user_id = <uid> LIMIT 5")
        engine.put("profiles", {"user_id": "u1", "bio": "v1"})
        engine.settle(1.0)
        first = engine.query("profile_of", {"uid": "u1"})
        cached = engine.query("profile_of", {"uid": "u1"})
        assert cached.rows == first.rows
        assert engine.cache.store.stats.hits >= 1
        engine.put("profiles", {"user_id": "u1", "bio": "v2"})
        engine.settle(1.0)  # applies index maintenance -> invalidates the scan
        after = engine.query("profile_of", {"uid": "u1"})
        assert after.rows[0]["bio"] == "v2"

    def test_entries_expire_at_the_derived_ttl(self):
        engine = make_engine(staleness_bound=BOUND)
        engine.put("profiles", {"user_id": "u1", "bio": "hi"})
        engine.settle(1.0)
        engine.get("profiles", ("u1",))
        token = entity_token(entity_namespace("profiles"), ("u1",))
        entry = engine.cache.store.peek(token)
        assert entry is not None
        budget = engine.cache.servable_budget
        assert entry.expires_at - engine.now <= budget + 1e-9  # admitted now
        engine.run_for(budget + 0.1)
        assert engine.cache.store.get(token, engine.now) is None

    def test_read_your_writes_session_bypasses_stale_cache_entry(self):
        """Regression: a RYW session must not be served a cached value older
        than its own write, even when the entry is well inside its TTL."""
        engine = make_engine(read_your_writes=True)
        namespace = entity_namespace("profiles")
        engine.put("profiles", {"user_id": "u1", "bio": "old"}, session_id="w")
        engine.settle(1.0)
        engine.put("profiles", {"user_id": "u1", "bio": "new"}, session_id="w")
        # Forge the race the bypass exists for: a pre-write value readmitted
        # (e.g. by another client's replica read) after the invalidation.
        stale = VersionedValue(value={"user_id": "u1", "bio": "old"},
                               timestamp=0.0, version=1)
        engine.cache.store.put_entity(namespace, ("u1",), stale,
                                      engine.now, ttl=BOUND)
        # A session without guarantees is served the cached value — the
        # bypass below is per-session, not an invalidation.
        other = engine.get("profiles", ("u1",), session_id="other")
        assert other.row["bio"] == "old"
        hits, misses = engine.cache_hit_counts()
        outcome = engine.get("profiles", ("u1",), session_id="w")
        assert outcome.row["bio"] == "new"
        # The bypass counts as the miss it is, not as a hit.
        assert engine.cache_hit_counts() == (hits, misses + 1)
        # The bypassed read read through the cluster, refreshing the entry.
        refreshed = engine.cache.store.peek(entity_token(namespace, ("u1",)))
        assert refreshed is not None and refreshed.value.value["bio"] == "new"

    def test_monitor_measures_hit_rate_and_planner_discounts_demand(self):
        engine = make_engine()
        engine.put("profiles", {"user_id": "u1", "bio": "hi"})
        engine.settle(1.0)
        for _ in range(50):
            engine.get("profiles", ("u1",))
        observation = engine.monitor.close_window(engine.now + 30.0)
        assert observation.cache_hit_rate > 0.5
        slas = engine.slas
        busy = engine.planner.plan(forecast_rate=20_000.0, write_fraction=0.1,
                                   slas=slas, spec=engine.spec)
        absorbed = engine.planner.plan(forecast_rate=20_000.0, write_fraction=0.1,
                                       slas=slas, spec=engine.spec,
                                       cache_hit_rate=0.9)
        assert absorbed.target_nodes < busy.target_nodes
        assert "cache absorbing" in absorbed.reason


def cluster_reads(engine, namespace, key, attempts=64):
    """``attempts`` cluster reads of one key as ``Scads.get`` issues them on a
    cache miss; yields, per read, the value and the known staleness the
    verification offered to the cache."""
    offered = []
    admit = engine.cache.admit_entity

    def spy(namespace, key, value, known_staleness):
        offered.append((value, known_staleness))
        return admit(namespace, key, value, known_staleness)

    engine.cache.admit_entity = spy
    for _ in range(attempts):
        stale_before = engine.stale_read_count()
        rows, _, error = engine._verify_replica_read(
            namespace, (key,), {key: engine.router.read_one(namespace, key)}, None)
        assert error is None and engine.stale_read_count() == stale_before
        assert len(offered) == 1
        assert rows[key] == offered[0][0].value
        yield offered.pop()


class TestStalenessEdgeCases:
    def test_replica_two_versions_behind_is_never_admitted(self):
        """A replica that missed two writes has unknowable true staleness
        (the intermediate version's commit time is gone from the primary);
        such reads serve but must not be cached."""
        engine = make_engine()
        namespace = entity_namespace("profiles")
        engine.put("profiles", {"user_id": "u1", "bio": "v1"})
        engine.settle(2.0)  # replicas converge on version 1
        group = engine.cluster.group_for_key(namespace, ("u1",))
        primary = engine.cluster.nodes[group.primary]
        # Advance the primary two versions without replicating, so replicas
        # stay at version 1 while the primary is at version 3.
        for version in (2, 3):
            primary.put(namespace, ("u1",), VersionedValue(
                value={"user_id": "u1", "bio": f"v{version}"},
                timestamp=engine.now, version=version), engine.now)
        saw_replica_read = False
        for value, freshness in cluster_reads(engine, namespace, ("u1",)):
            if value.version == 1:  # served by a lagging replica
                saw_replica_read = True
                assert freshness is None, \
                    "a >=2-version gap must be reported as unverified"
            else:
                assert value.version == 3 and freshness == pytest.approx(0.0)
        assert saw_replica_read
        # And the read path must therefore never have admitted version 1.
        entry = engine.cache.store.peek(entity_token(namespace, ("u1",)))
        assert entry is None or entry.value.version == 3

    def test_one_version_behind_carries_the_supersede_age(self):
        engine = make_engine()
        namespace = entity_namespace("profiles")
        engine.put("profiles", {"user_id": "u1", "bio": "v1"})
        engine.settle(2.0)
        group = engine.cluster.group_for_key(namespace, ("u1",))
        primary = engine.cluster.nodes[group.primary]
        primary.put(namespace, ("u1",), VersionedValue(
            value={"user_id": "u1", "bio": "v2"},
            timestamp=engine.now, version=2), engine.now)
        engine.run_for(3.0)  # version 1 has now been superseded for 3 seconds
        for value, freshness in cluster_reads(engine, namespace, ("u1",)):
            if value.version == 1:
                assert freshness == pytest.approx(3.0, abs=0.01)
                return
        pytest.fail("no replica read observed in 64 attempts")

    def test_range_cache_fills_read_the_primary(self):
        """Cached scans must come from the primary: apply-time invalidation
        has already fired for writes a lagging replica may still miss."""
        engine = make_engine()
        engine.register_query(
            "profile_of", "SELECT * FROM profiles WHERE user_id = <uid> LIMIT 5")
        engine.put("profiles", {"user_id": "u1", "bio": "v1"})
        engine.settle(1.0)
        seen = []
        original = engine.router.read_range

        def spy(key_range, limit=None, from_primary=False, reverse=False):
            seen.append(from_primary)
            return original(key_range, limit=limit, from_primary=from_primary,
                            reverse=reverse)

        engine.router.read_range = spy
        engine.query("profile_of", {"uid": "u1"})  # miss -> primary fill
        assert seen == [True]
        engine.query("profile_of", {"uid": "u1"})  # hit -> no router call
        assert seen == [True]


# ------------------------------------------------- the staleness-bound property


def _staleness_violations(ops, bound: float = BOUND) -> list:
    """Drive an engine through ``ops`` and return every bound violation.

    An external write history (per-key sequence numbers embedded in the row)
    is the oracle: a read returning sequence ``s`` while a later write with
    sequence ``s' > s`` has been committed for longer than the bound is a
    violation, no matter which tier served it.
    """
    engine = make_engine(staleness_bound=bound, seed=11)
    users = [f"u{i}" for i in range(4)]
    history = {u: [] for u in users}  # per key: [(seq, commit_time), ...]
    sequence = {u: 0 for u in users}
    violations = []
    for kind, index, delay in ops:
        user = users[index]
        if kind == "put":
            sequence[user] += 1
            outcome = engine.put("profiles", {
                "user_id": user, "bio": f"seq{sequence[user]:04d}",
            })
            if outcome.success:
                history[user].append((sequence[user], engine.now))
        else:
            outcome = engine.get("profiles", (user,))
            if outcome.success and outcome.row is not None:
                seen = int(outcome.row["bio"][3:])
                for seq, committed_at in history[user]:
                    if seq > seen and engine.now - committed_at > bound + 1e-6:
                        violations.append((user, seen, seq, engine.now - committed_at))
        engine.run_for(delay)
    return violations


@pytest.mark.property
@given(st.lists(
    st.tuples(
        st.sampled_from(["put", "get"]),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.0, max_value=3.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=5, max_size=40,
))
def test_no_cached_read_ever_exceeds_the_declared_bound(ops):
    assert _staleness_violations(ops) == []


class TestRangeContainment:
    """Range lookups are served by exact token only: a narrower scan is never
    derived from a wider cached entry."""

    def make_store(self):
        store = StalenessBudgetCache(capacity=256)
        rows = [(("u", i), {"id": i}) for i in range(6)]
        store.put_range("ns", ("u", 0), ("u", 6), None, False, rows,
                        now=0.0, ttl=10.0)
        return store, rows

    def test_exact_token_still_hits_first(self):
        store, rows = self.make_store()
        served = store.get_range("ns", ("u", 0), ("u", 6), None, False, now=1.0)
        assert served == rows
        assert store.stats.hits == 1
        assert store.stats.containment_hits == 0

    def test_truncated_wide_entry_never_serves_by_containment(self):
        """An entry capped by its own limit has unknown coverage past the cut;
        serving a sub-range from it could fabricate a gap."""
        store = StalenessBudgetCache(capacity=256)
        rows = [(("u", i), {"id": i}) for i in range(4)]
        store.put_range("ns", ("u", 0), ("u", 9), 4, False, rows,
                        now=0.0, ttl=10.0)  # len(rows) == limit: truncated
        assert store.get_range("ns", ("u", 1), ("u", 3), None, False, 1.0) is None
        assert store.stats.misses == 1
        assert store.stats.containment_hits == 0

    def test_non_covering_and_expired_entries_miss(self):
        store, _ = self.make_store()
        # Requested range pokes past the cached end.
        assert store.get_range("ns", ("u", 4), ("u", 99), None, False, 1.0) is None
        # After expiry nothing serves (and the entry is reclaimed).
        assert store.get_range("ns", ("u", 2), ("u", 4), None, False, 11.0) is None
        assert len(store) == 0

    def test_exact_miss_reclaims_the_expired_head_only(self):
        store = StalenessBudgetCache(capacity=256)
        store.RECLAIM_CAP = 2
        for index in range(3):  # expire at 5.0, in admission order
            store.put_range("ns", (f"a{index}",), (f"a{index}\x00",), None, False,
                            [], now=0.0, ttl=5.0)
        store.put_range("ns", ("b",), ("b\x00",), None, False, [], now=3.0, ttl=5.0)
        # A hit reclaims nothing, even with the head expired.
        assert store.get_range("ns", ("b",), ("b\x00",), None, False, 6.0) == []
        assert len(store) == 4
        # Each miss reclaims at most RECLAIM_CAP expired entries from the head
        # and stops at the first live one; none of it counts as an eviction.
        assert store.get_range("ns", ("c",), ("c\x00",), None, False, 6.0) is None
        assert len(store) == 2
        assert store.get_range("ns", ("c",), ("c\x00",), None, False, 6.0) is None
        assert list(store._ranges["ns"].admitted) == [
            ("range", "ns", ("b",), ("b\x00",), None, False)]
        assert store.stats.misses == 2
        assert store.stats.lru_evictions == 0

    def test_engine_narrower_binding_misses_then_hits_by_exact_token(self):
        """One paginated template, narrower binding second: it misses the
        wider binding's cached scan, is read from the primary and admitted,
        and the same binding then hits under its own token."""
        engine = make_engine()
        engine.register_entity(EntitySchema(
            "people", key_fields=[Field("city"), Field("pid")],
            value_fields=[Field("name")], max_per_partition=50))
        engine.register_query(
            "page",
            "SELECT * FROM people WHERE city = <c> "
            "AND name BETWEEN <lo> AND <hi> LIMIT 50")
        for i in range(6):
            engine.put("people", {"pid": f"p{i}", "city": "sf", "name": f"n{i}"})
        engine.settle(1.0)
        wide = engine.query("page", {"c": "sf", "lo": "n0", "hi": "n5"})
        assert len(wide.rows) == 6
        stats = engine.cache.store.stats
        range_reads = engine.router.op_counts()["range"]
        misses = stats.misses
        narrow = engine.query("page", {"c": "sf", "lo": "n1", "hi": "n3"})
        assert sorted(r["name"] for r in narrow.rows) == ["n1", "n2", "n3"]
        assert stats.misses == misses + 1
        assert engine.router.op_counts()["range"] == range_reads + 1
        hits = stats.hits
        again = engine.query("page", {"c": "sf", "lo": "n1", "hi": "n3"})
        assert [r["name"] for r in again.rows] == [r["name"] for r in narrow.rows]
        assert stats.hits > hits
        assert engine.router.op_counts()["range"] == range_reads + 1
        assert stats.containment_hits == 0


class TestMissPathLatencyLabel:
    """Blended windows train the latency model on cluster-served reads only."""

    def test_blended_window_still_trains_on_the_miss_path_label(self):
        engine = make_engine()
        engine.put("profiles", {"user_id": "u1", "bio": "hi"})
        engine.settle(1.0)
        engine.monitor.close_window(engine.now)  # baseline (duration-0 window)
        miss = engine.get("profiles", ("u1",))   # cluster read, fills cache
        for _ in range(50):
            engine.get("profiles", ("u1",))      # sub-ms front-tier hits
        targets_before = len(engine.latency_model._targets)
        observation = engine.monitor.close_window(engine.now + 30.0)
        assert observation.cache_hit_rate > \
            engine.monitor.CACHE_BLEND_TRAINING_CUTOFF
        # The clean label is exactly the one cluster-served read's latency...
        assert observation.cluster_read_percentile == pytest.approx(miss.latency)
        # ...and it is what the model trained on — not the blended percentile.
        assert len(engine.latency_model._targets) == targets_before + 1
        assert engine.latency_model._targets[-1] == pytest.approx(miss.latency)
        blended = observation.sla_reports["read"].observed_percentile_latency
        assert blended < miss.latency  # the blend the old skip was protecting

    def test_window_without_cluster_reads_keeps_the_skip(self):
        engine = make_engine()
        engine.put("profiles", {"user_id": "u1", "bio": "hi"})
        engine.settle(1.0)
        engine.monitor.close_window(engine.now)  # baseline (duration-0 window)
        engine.get("profiles", ("u1",))
        engine.monitor.close_window(engine.now + 30.0)  # drains the miss read
        for _ in range(40):
            engine.get("profiles", ("u1",))              # hits only
        targets_before = len(engine.latency_model._targets)
        observation = engine.monitor.close_window(engine.now + 60.0)
        assert observation.cache_hit_rate > \
            engine.monitor.CACHE_BLEND_TRAINING_CUTOFF
        assert observation.cluster_read_percentile is None
        assert len(engine.latency_model._targets) == targets_before

    def test_uncached_engine_skips_the_tracker_and_trains_unchanged(self):
        """Without a cache no read is on a miss path (nothing can blend);
        training uses the window's own report."""
        engine = Scads(seed=0, autoscale=False, initial_groups=2, cache=False)
        engine.register_entity(EntitySchema(
            "profiles", key_fields=[Field("user_id")],
            value_fields=[Field("bio")]))
        engine.put("profiles", {"user_id": "u1", "bio": "hi"})
        engine.settle(1.0)
        engine.monitor.close_window(engine.now)  # baseline (duration-0 window)
        engine.get("profiles", ("u1",))
        targets_before = len(engine.latency_model._targets)
        observation = engine.monitor.close_window(engine.now + 30.0)
        assert observation.cache_hit_rate == 0.0
        assert observation.cluster_read_percentile is None
        # An unblended window trains on the window report.
        assert len(engine.latency_model._targets) == targets_before + 1
        assert engine.latency_model._targets[-1] == pytest.approx(
            observation.sla_reports["read"].observed_percentile_latency)


# --------------------------------------- the range index against a linear scan


class LinearScanStore:
    """Brute-force reference for :class:`StalenessBudgetCache`: the store as
    it was before its range entries were indexed, with every range miss's
    reclamation and every invalidation walking all cached ranges of the
    namespace in admission order (and no cap on how many it walks)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries = OrderedDict()  # token -> dict(value, expires_at, cost)
        self.range_tokens = {}        # namespace -> {token: None}, admission order
        self.cost_total = 0
        self.stats = CacheStats()

    def get(self, token, now):
        entry = self.entries.get(token)
        if entry is None:
            self.stats.misses += 1
            return None
        if now >= entry["expires_at"]:
            self._remove(token)
            self.stats.misses += 1
            return None
        self.entries.move_to_end(token)
        self.stats.hits += 1
        return entry["value"]

    def get_range(self, namespace, start, end, limit, reverse, now):
        token = ("range", namespace, start, end, limit, reverse)
        entry = self.entries.get(token)
        if entry is not None:
            if now >= entry["expires_at"]:
                self._remove(token)
            else:
                self.entries.move_to_end(token)
                self.stats.hits += 1
                return list(entry["value"])
        doomed = [token for token in self.range_tokens.get(namespace, ())
                  if now >= self.entries[token]["expires_at"]]
        for token in doomed:
            self._remove(token)
        self.stats.misses += 1
        return None

    def put_entity(self, namespace, key, value, now, ttl):
        self._insert(("entity", namespace, key), value, now + ttl, 1)

    def put_range(self, namespace, start, end, limit, reverse, rows, now, ttl):
        cost = max(1, len(rows))
        if cost <= self.capacity:
            self._insert(("range", namespace, start, end, limit, reverse),
                         rows, now + ttl, cost)

    def _insert(self, token, value, expires_at, cost):
        self._remove(token)
        self.entries[token] = {"value": value, "expires_at": expires_at, "cost": cost}
        self.cost_total += cost
        if token[0] == "range":
            self.range_tokens.setdefault(token[1], {})[token] = None
        while self.cost_total > self.capacity and len(self.entries) > 1:
            self._remove(next(iter(self.entries)))
            self.stats.lru_evictions += 1

    def invalidate_key(self, namespace, key):
        doomed = [token for token in self.range_tokens.get(namespace, ())
                  if token[2] <= key < token[3]]
        if ("entity", namespace, key) in self.entries:
            doomed.append(("entity", namespace, key))
        for token in doomed:
            self._remove(token)
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def _remove(self, token):
        entry = self.entries.pop(token, None)
        if entry is not None:
            self.cost_total -= entry["cost"]
            if token[0] == "range":
                self.range_tokens[token[1]].pop(token)


MODEL_LEADS = ("a", "b", "c")
MODEL_KEYS = [(lead, sub) for lead in MODEL_LEADS for sub in range(4)]
MODEL_RANGE_TTL = 5.0

_lead = st.sampled_from(MODEL_LEADS)
_sub = st.integers(min_value=0, max_value=3)
_sub_pair = st.tuples(_sub, _sub).filter(lambda pair: pair[0] < pair[1])
# Every shape holds start < end (a request with start >= end names no key) and
# lies under one lead, as every range a query reads does.
range_bounds = st.one_of(
    # one user's prefix, as ``prefix_range`` builds it
    _lead.map(lambda lead: ((lead,), (lead + "\x00",))),
    # bounded variants under one prefix
    st.tuples(_lead, _sub_pair).map(
        lambda t: ((t[0], t[1][0]), (t[0], t[1][1]))),
    st.tuples(_lead, _sub).map(lambda t: ((t[0], t[1]), (t[0] + "\x00",))),
)
range_params = st.tuples(range_bounds, st.sampled_from([None, 1, 2, 3]),
                         st.booleans())
model_ops = st.lists(st.one_of(
    st.tuples(st.just("put_range"), range_params),
    st.tuples(st.just("get_range"), range_params),
    st.tuples(st.just("put_entity"), st.sampled_from(MODEL_KEYS),
              st.sampled_from([2.0, 5.0])),
    st.tuples(st.just("get"), st.sampled_from(MODEL_KEYS)),
    st.tuples(st.just("invalidate"), st.sampled_from(MODEL_KEYS)),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 2.0, 4.0])),
), min_size=10, max_size=80)


def _scan_rows(bounds, limit, reverse, stamp):
    """What a scan of the full key set would return, stamped so that a
    lookup's rows say which admission produced them."""
    start, end = bounds
    rows = [(key, {"stamp": stamp}) for key in MODEL_KEYS if start <= key < end]
    if reverse:
        rows.reverse()
    return rows if limit is None else rows[:limit]


@pytest.mark.property
@given(model_ops)
def test_indexed_ranges_match_a_linear_scan_of_every_cached_range(ops):
    store = StalenessBudgetCache(capacity=12)
    model = LinearScanStore(capacity=12)
    now = 0.0
    for step, (kind, *args) in enumerate(ops):
        if kind == "advance":
            now += args[0]
            continue
        if kind in ("put_range", "get_range"):
            (start, end), limit, reverse = args[0]
            if kind == "put_range":
                rows = _scan_rows((start, end), limit, reverse, stamp=step)
                for target in (store, model):
                    target.put_range("ns", start, end, limit, reverse, list(rows),
                                     now, MODEL_RANGE_TTL)
            else:
                assert (store.get_range("ns", start, end, limit, reverse, now)
                        == model.get_range("ns", start, end, limit, reverse, now)), step
        elif kind == "put_entity":
            key, ttl = args
            for target in (store, model):
                target.put_entity("ns", key, step, now, ttl)
        elif kind == "get":
            entry = store.get(entity_token("ns", args[0]), now)
            assert ((entry.value if entry is not None else None)
                    == model.get(entity_token("ns", args[0]), now)), step
        else:
            assert (store.invalidate_key("ns", args[0])
                    == model.invalidate_key("ns", args[0])), step
        assert store.stats == model.stats, step
        assert store.cost_total == model.cost_total, step
        assert list(store._entries) == list(model.entries), step
        # the index holds exactly the range entries, each in one bucket
        indexed = [token for ranges in store._ranges.values()
                   for bucket in ranges.buckets.values() for token in bucket]
        assert sorted(indexed, key=repr) == sorted(
            (token for token in store._entries if token[0] == "range"), key=repr)
        assert all(list(ranges.admitted) == list(model.range_tokens[namespace])
                   for namespace, ranges in store._ranges.items())


# ------------------------------------- batched dereferences against single ones


class TestLookupEntities:
    """``lookup_entities`` against the per-key calls it batches, on twin tiers
    built from the same seed."""

    NAMESPACE = "entity:profiles"

    def make_tier(self):
        spec = ConsistencySpec(
            read=ReadConsistency(staleness_bound=10.0),
            session=SessionGuarantee(read_your_writes=True, monotonic_reads=True))
        sim = Simulator(seed=21)
        tier = CacheTier(CacheConfig(capacity=64), spec=spec, simulator=sim)
        session = Session(spec.session)
        def value(version):
            return VersionedValue(value={"bio": f"v{version}"}, timestamp=0.0,
                                  version=version)

        tier.store.put_entity(self.NAMESPACE, ("old",), value(1), now=0.0, ttl=1.0)
        for name in ("a", "b", "c", "written"):
            tier.admit_entity(self.NAMESPACE, (name,), value(1), 0.0)
        tier.admit_entity(self.NAMESPACE, ("gone",), None, 0.0)  # negative entry
        session.note_write(self.NAMESPACE, ("written",), value(2))  # newer than cached
        sim.run_until(2.0)  # ("old",) is past its TTL; the rest are live
        return tier, session

    KEYS = [("a",), ("missing",), ("b",), ("a",), ("old",), ("gone",),
            ("written",), ("c",), ("b",)]

    def sequential(self, tier, session):
        """The per-key reference, one ``lookup_entity`` call per distinct key:
        rows, per-key hit latencies and misses."""
        rows, latencies, misses = {}, [], []
        for key in dict.fromkeys(self.KEYS):
            hit = tier.lookup_entity(self.NAMESPACE, key, session)
            if hit is None:
                misses.append(key)
                continue
            value, latency = hit
            rows[key] = dict(value.value) if value is not None else None
            latencies.append(latency)
        return rows, latencies, misses

    @pytest.mark.parametrize("with_session", [True, False])
    def test_equals_sequential_lookups(self, with_session):
        batched_tier, batched_session = self.make_tier()
        single_tier, single_session = self.make_tier()
        if not with_session:
            batched_session = single_session = None
        rows, slowest, misses = batched_tier.lookup_entities(
            self.NAMESPACE, self.KEYS, batched_session)
        expected_rows, latencies, expected_misses = self.sequential(
            single_tier, single_session)
        assert rows == expected_rows
        assert list(rows) == list(expected_rows)
        assert slowest == max(latencies)  # float for float
        assert misses == expected_misses
        assert ("old",) in misses and ("missing",) in misses
        assert (("written",) in misses) == with_session  # read-your-writes bypass
        assert rows[("gone",)] is None
        assert batched_tier.store.stats == single_tier.store.stats
        # a bypass is counted as the miss it is; the expired entry is reclaimed
        stats = batched_tier.store.stats
        assert (stats.hits, stats.misses) == (len(rows), len(misses))
        assert batched_tier.store.peek(entity_token(self.NAMESPACE, ("old",))) is None
        # a bypassed entry is refreshed like a served one
        assert list(batched_tier.store._entries) == list(single_tier.store._entries)
        if with_session:
            assert (batched_session._last_seen_version
                    == single_session._last_seen_version)
            assert batched_session._last_seen_version  # monotonic reads: kept
        # the streams stay in step afterwards
        assert batched_tier.sample_hit_latency() == single_tier.sample_hit_latency()

    def test_nothing_served_draws_nothing(self):
        batched_tier, _ = self.make_tier()
        single_tier, _ = self.make_tier()
        rows, slowest, misses = batched_tier.lookup_entities(
            self.NAMESPACE, [("missing",), ("old",), ("missing",)], None)
        assert (rows, slowest, misses) == ({}, 0.0, [("missing",), ("old",)])
        assert batched_tier.sample_hit_latency() == single_tier.sample_hit_latency()
