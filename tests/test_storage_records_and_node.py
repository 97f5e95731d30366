"""Unit tests for storage records, key ranges, and the simulated node."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.storage.node import NodeDownError, StorageNode
from repro.storage.records import (
    KeyRange,
    VersionedValue,
    key_part_successor,
    prefix_bounds,
    prefix_range,
    range_lead,
    validate_key,
)

pytestmark = pytest.mark.tier1


def make_node(node_id="n1", capacity=1000.0, seed=0):
    return StorageNode(node_id, np.random.default_rng(seed), capacity_ops_per_sec=capacity)


def vv(value, timestamp=0.0, version=1, writer="w", tombstone=False):
    return VersionedValue(value=value, timestamp=timestamp, version=version,
                         writer=writer, tombstone=tombstone)


# ----------------------------------------------------------------------- keys


class TestKeys:
    def test_validate_key_accepts_mixed_primitives(self):
        assert validate_key(("a", 1, 2.5)) == ("a", 1, 2.5)

    def test_validate_key_rejects_non_tuple(self):
        with pytest.raises(TypeError):
            validate_key(["a"])

    def test_validate_key_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_key(())

    def test_validate_key_rejects_bool_and_none(self):
        with pytest.raises(TypeError):
            validate_key((True,))
        with pytest.raises(TypeError):
            validate_key((None,))

    def test_key_part_successor_string_excludes_longer_strings(self):
        assert "abc" < key_part_successor("abc") < "abcd"

    def test_key_part_successor_int(self):
        assert key_part_successor(5) == 6

    def test_key_part_successor_float(self):
        assert key_part_successor(1.0) > 1.0


class TestVersionedValue:
    def test_newer_timestamp_wins(self):
        old = vv("a", timestamp=1.0)
        new = vv("b", timestamp=2.0)
        assert new.wins_over(old)
        assert not old.wins_over(new)

    def test_anything_wins_over_none(self):
        assert vv("a").wins_over(None)

    def test_version_breaks_timestamp_ties(self):
        a = vv("a", timestamp=1.0, version=1)
        b = vv("b", timestamp=1.0, version=2)
        assert b.wins_over(a)


class TestKeyRange:
    def test_contains_half_open(self):
        key_range = KeyRange("ns", start=("a",), end=("c",))
        assert key_range.contains(("a",))
        assert key_range.contains(("b",))
        assert not key_range.contains(("c",))

    def test_both_bounds_are_required(self):
        with pytest.raises(TypeError):
            KeyRange("ns")
        with pytest.raises(TypeError):
            KeyRange("ns", ("a",))

    def test_prefix_range_matches_exact_component_only(self):
        key_range = prefix_range("ns", ("user1",))
        assert key_range.contains(("user1",))
        assert key_range.contains(("user1", "02-14", "friend9"))
        assert not key_range.contains(("user10",))
        assert not key_range.contains(("user0",))

    def test_prefix_range_multi_component(self):
        key_range = prefix_range("ns", ("u1", 5))
        assert key_range.contains(("u1", 5, "x"))
        assert not key_range.contains(("u1", 6))

    @given(
        prefix=st.text(alphabet="abcdef", min_size=1, max_size=5),
        other=st.text(alphabet="abcdef", min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_prefix_range_property(self, prefix, other):
        key_range = prefix_range("ns", (prefix,))
        inside = key_range.contains((other,)) or key_range.contains((other, "x"))
        assert inside == (other == prefix)


class TestRangeLead:
    """``range_lead`` names the one partition key a range read lies under,
    for the router and the cache alike."""

    @pytest.mark.parametrize("start, end", [
        prefix_bounds(("u1", 5)),      # multi-component prefix
        prefix_bounds(("u1",)),        # one-component prefix, str lead
        prefix_bounds((7,)),           # one-component prefix, int lead
        # the executor's BETWEEN shape: prefix + (low,) .. prefix + (high's successor,)
        (("u1", "03-01"), ("u1", key_part_successor("03-31"))),
    ], ids=["multi-component", "str-successor", "int-successor", "between"])
    def test_accepts_the_shapes_queries_build(self, start, end):
        assert range_lead(start, end) == start[0]

    @pytest.mark.parametrize("start, end", [
        (("u1",), ("u2",)),
        (("a", 1), ("b", 0)),
        (("u1",), ("u1\x00", "x")),
        ((7,), (9,)),
    ])
    def test_rejects_a_range_spanning_two_leads(self, start, end):
        with pytest.raises(ValueError):
            range_lead(start, end)


# ----------------------------------------------------------------------- node


class TestSlottedFrozenRecords:
    """``VersionedValue`` and ``KeyRange`` are frozen *and* slotted: the sweep
    fabric pickles them, callers ``replace`` them, sets and dicts hash them."""

    RECORDS = [
        vv({"name": "Ada"}, timestamp=3.5, version=4, writer="s1"),
        vv(None, timestamp=1.0, version=2, tombstone=True),
        KeyRange("ns", ("a", 1), ("a", 2)),
        KeyRange("ns", ("b",), ("b\x00",)),
    ]

    @pytest.mark.parametrize("record", RECORDS, ids=repr)
    def test_pickle_round_trip(self, record):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(record, protocol))
            assert clone == record and type(clone) is type(record)
            assert not hasattr(clone, "__dict__")

    def test_replace_equality_and_hash(self):
        value = vv({"a": 1}, timestamp=2.0, version=3)
        newer = dataclasses.replace(value, version=4)
        assert (newer.version, newer.value, newer.timestamp) == (4, {"a": 1}, 2.0)
        assert newer != value and dataclasses.replace(newer, version=3) == value
        key_range = KeyRange("ns", ("a",), ("b",))
        wider = dataclasses.replace(key_range, end=("c",))
        assert wider == KeyRange("ns", ("a",), ("c",)) and wider.end == ("c",)
        assert hash(wider) == hash(KeyRange("ns", ("a",), ("c",)))
        assert len({key_range, KeyRange("ns", ("a",), ("b",)), wider}) == 2
        assert hash(vv(1)) == hash(vv(1))  # hashable payloads hash by value

    def test_still_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            vv(1).version = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            KeyRange("ns", ("a",), ("b",)).start = ("b",)
        with pytest.raises((AttributeError, TypeError)):
            object.__setattr__(KeyRange("ns", ("a",), ("b",)), "extra", 1)  # no __dict__ to grow


class TestStorageNodeBasics:
    def test_put_then_get(self):
        node = make_node()
        node.put("ns", ("k",), vv({"a": 1}), now=0.0)
        value, latency = node.get("ns", ("k",), now=1.0)
        assert value is not None and value.value == {"a": 1}
        assert latency > 0

    def test_get_missing_returns_none(self):
        node = make_node()
        value, _ = node.get("ns", ("missing",), now=0.0)
        assert value is None

    def test_tombstone_hides_value(self):
        node = make_node()
        node.put("ns", ("k",), vv({"a": 1}), now=0.0)
        node.delete("ns", ("k",), vv(None, timestamp=1.0, version=2, tombstone=True), now=1.0)
        value, _ = node.get("ns", ("k",), now=2.0)
        assert value is None

    def test_peek_does_not_touch_load_model(self):
        node = make_node()
        node.put("ns", ("k",), vv({"a": 1}), now=0.0)
        before = (node.arrival_rate(), node._burst_count, node._last_arrival)
        assert node.peek("ns", ("k",)).value == {"a": 1}
        assert (node.arrival_rate(), node._burst_count, node._last_arrival) == before

    def test_key_count_tracks_new_keys(self):
        node = make_node()
        node.put("ns", ("a",), vv(1), now=0.0)
        node.put("ns", ("b",), vv(2), now=0.0)
        node.put("ns", ("a",), vv(3), now=0.0)  # overwrite, not a new key
        assert node.key_count() == 2

    def test_namespaces_listed(self):
        node = make_node()
        node.put("ns2", ("a",), vv(1), now=0.0)
        node.put("ns1", ("a",), vv(1), now=0.0)
        assert node.namespaces() == ["ns1", "ns2"]

    def test_crash_blocks_operations(self):
        node = make_node()
        node.crash()
        with pytest.raises(NodeDownError):
            node.get("ns", ("k",), now=0.0)
        with pytest.raises(NodeDownError):
            node.put("ns", ("k",), vv(1), now=0.0)

    def test_recover_restores_data(self):
        node = make_node()
        node.put("ns", ("k",), vv(1), now=0.0)
        node.crash()
        node.recover()
        value, _ = node.get("ns", ("k",), now=1.0)
        assert value is not None

    def test_wipe_drops_data(self):
        node = make_node()
        node.put("ns", ("k",), vv(1), now=0.0)
        node.wipe()
        assert node.key_count() == 0

    def test_apply_replica_write_respects_lww(self):
        node = make_node()
        newer = vv("new", timestamp=5.0, version=2)
        older = vv("old", timestamp=1.0, version=1)
        assert node.apply_replica_write("ns", ("k",), newer)
        assert not node.apply_replica_write("ns", ("k",), older)
        assert node.peek("ns", ("k",)).value == "new"

    def test_invalid_key_rejected(self):
        node = make_node()
        with pytest.raises(TypeError):
            node.put("ns", ["not-a-tuple"], vv(1), now=0.0)


class TestStorageNodeWriteAccounting:
    """What ``put`` / ``apply_replica_write`` / ``delete`` return, store and
    charge to the load model, for each state the key can be in when the write
    arrives."""

    KEY = ("k",)
    LIVE = vv("live", timestamp=5.0, version=5)
    TOMBSTONE = vv(None, timestamp=5.0, version=5, tombstone=True)

    def _node(self, present):
        node = make_node()
        node.put("ns", ("other",), vv("x"), now=0.0)
        if present is not None:
            node.put("ns", self.KEY, present, now=0.0)
        return node, node.key_count()

    def _deltas(self, node, before):
        """(new slots in the ordered map, whether the write reached the load
        model): every write so far came at t=0, so only a later request gives
        the node an arrival rate."""
        return node.key_count() - before, node.arrival_rate() > 0.0

    @pytest.mark.parametrize("present,new_keys", [
        (None, 1), (LIVE, 0), (TOMBSTONE, 0),
    ], ids=["new-key", "overwrite", "over-tombstone"])
    def test_put(self, present, new_keys):
        node, before = self._node(present)
        incoming = vv("incoming", timestamp=1.0, version=1)  # older: put is unconditional
        assert node.put("ns", self.KEY, incoming, now=1.0) > 0.0
        assert self._deltas(node, before) == (new_keys, True)
        assert node.peek("ns", self.KEY) is incoming
        assert node.key_count() == 2
        assert sorted(key for key, _ in node.scan_namespace("ns")) == [self.KEY, ("other",)]

    @pytest.mark.parametrize("present,incoming,applied,new_keys", [
        (None, vv("incoming", timestamp=1.0), True, 1),
        (LIVE, vv("incoming", timestamp=9.0), True, 0),
        (TOMBSTONE, vv("incoming", timestamp=9.0), True, 0),
        (LIVE, vv("incoming", timestamp=1.0, version=9), False, 0),      # older timestamp
        (LIVE, vv("incoming", timestamp=5.0, version=4), False, 0),      # tie, lower version
        (LIVE, vv("incoming", timestamp=5.0, version=5, writer="a"), False, 0),
        (LIVE, vv(None, timestamp=9.0, tombstone=True), True, 0),
    ], ids=["new-key", "overwrite", "over-tombstone", "loses-on-timestamp",
            "loses-on-version", "loses-on-writer", "tombstone-wins"])
    def test_apply_replica_write(self, present, incoming, applied, new_keys):
        node, before = self._node(present)
        assert node.apply_replica_write("ns", self.KEY, incoming) is applied
        # Replica application is background work: it never counts as a write.
        assert self._deltas(node, before) == (new_keys, False)
        stored = node.peek("ns", self.KEY, include_tombstones=True)
        assert stored is (incoming if applied else present)
        assert sorted(key for key, _ in node.scan_namespace("ns")) == [self.KEY, ("other",)]

    def test_apply_replica_write_opens_a_new_namespace(self):
        node, before = self._node(None)
        assert node.apply_replica_write("fresh", self.KEY, self.LIVE) is True
        assert self._deltas(node, before) == (1, False)
        assert node.namespaces() == ["fresh", "ns"]

    @pytest.mark.parametrize("present", [None, LIVE, TOMBSTONE],
                             ids=["new-key", "overwrite", "over-tombstone"])
    def test_delete(self, present):
        node, before = self._node(present)
        tombstone = vv(None, timestamp=9.0, version=9, tombstone=True)
        assert node.delete("ns", self.KEY, tombstone, now=9.0) > 0.0
        # A tombstone for an unseen key takes a slot in the ordered map.
        assert self._deltas(node, before) == (int(present is None), True)
        assert node.peek("ns", self.KEY) is None
        assert node.peek("ns", self.KEY, include_tombstones=True) is tombstone
        assert node.key_count() == 2

    def test_a_down_node_refuses_and_counts_nothing(self):
        node, before = self._node(self.LIVE)
        node.crash()
        with pytest.raises(NodeDownError):
            node.put("ns", self.KEY, vv("x", timestamp=9.0), now=9.0)
        with pytest.raises(NodeDownError):
            node.apply_replica_write("ns", self.KEY, vv("x", timestamp=9.0))
        with pytest.raises(NodeDownError):
            node.delete("ns", self.KEY, vv(None, timestamp=9.0, tombstone=True), now=9.0)
        node.recover()
        assert self._deltas(node, before) == (0, 0)
        assert node.peek("ns", self.KEY) is self.LIVE


class TestStorageNodeRanges:
    def _loaded_node(self):
        node = make_node()
        for user in ("u1", "u2"):
            for day in ("01-05", "03-10", "07-20"):
                node.put("idx", (user, day), vv(day), now=0.0)
        return node

    def test_range_is_contiguous_and_sorted(self):
        node = self._loaded_node()
        rows, _ = node.get_range(prefix_range("idx", ("u1",)), now=1.0)
        keys = [key for key, _ in rows]
        assert keys == sorted(keys)
        assert all(key[0] == "u1" for key in keys)
        assert len(keys) == 3

    def test_range_with_limit(self):
        node = self._loaded_node()
        rows, _ = node.get_range(prefix_range("idx", ("u1",)), now=1.0, limit=2)
        assert len(rows) == 2

    def test_range_reverse_returns_descending(self):
        node = self._loaded_node()
        rows, _ = node.get_range(prefix_range("idx", ("u1",)), now=1.0, limit=2, reverse=True)
        days = [key[1] for key, _ in rows]
        assert days == ["07-20", "03-10"]

    def test_range_excludes_tombstones(self):
        node = self._loaded_node()
        node.delete("idx", ("u1", "01-05"),
                    vv(None, timestamp=2.0, version=2, tombstone=True), now=2.0)
        rows, _ = node.get_range(prefix_range("idx", ("u1",)), now=3.0)
        assert len(rows) == 2
        # ``limit`` bounds the entries read: a tombstone among them is
        # skipped, not replaced by the next live row.
        rows, _ = node.get_range(prefix_range("idx", ("u1",)), now=3.0, limit=2)
        assert [key[1] for key, _ in rows] == ["03-10"]
        rows, _ = node.get_range(prefix_range("idx", ("u1",)), now=3.0, limit=3,
                                 reverse=True)
        assert [key[1] for key, _ in rows] == ["07-20", "03-10"]

    def test_range_latency_grows_with_rows(self):
        node = make_node()
        for i in range(500):
            node.put("idx", ("u", i), vv(i), now=0.0)
        small, small_latency = node.get_range(prefix_range("idx", ("u",)), now=1.0, limit=5)
        node2 = make_node(seed=0)
        for i in range(500):
            node2.put("idx", ("u", i), vv(i), now=0.0)
        large, large_latency = node2.get_range(prefix_range("idx", ("u",)), now=1.0)
        assert len(large) == 500
        assert large_latency > small_latency


_MODEL_LEADS = ("a", "b", "c", "d")
_model_keys = st.one_of(
    st.tuples(st.sampled_from(_MODEL_LEADS)),
    st.tuples(st.sampled_from(_MODEL_LEADS), st.integers(0, 11)),
)
_store_writes = st.one_of(
    st.tuples(st.just("put"), _model_keys),
    # A replicated version from up to three steps ago: it may lose LWW.
    st.tuples(st.just("replica"), _model_keys, st.integers(0, 3)),
    st.tuples(st.just("tombstone"), _model_keys),
    st.tuples(st.just("drop"), _model_keys),
    # One of the last keys stored: most likely one no range read has ordered.
    st.tuples(st.just("drop_new"), st.integers(0, 3)),
    st.tuples(st.just("drop_many"), st.lists(_model_keys, max_size=8)),
    st.tuples(st.just("scan")),
)
_store_ops = st.one_of(
    _store_writes,
    st.tuples(st.just("range"), st.sampled_from(_MODEL_LEADS),
              st.one_of(st.none(), st.integers(0, 12)),
              st.one_of(st.none(), st.integers(0, 12)),
              st.one_of(st.none(), st.integers(0, 15)), st.booleans()),
)


@pytest.mark.property
class TestNamespaceStoreModel:
    """A node namespace against a dict, whatever mix of writes, replica
    applies, tombstones, store deletes, batch deletes, scans and range reads
    reaches it.  The dict model keeps the same insertion order as the store,
    so a scan (storage order) equals its items, and after every step the
    store's sorted keys are exactly the model's first ``len(_sorted_keys)``
    keys in key order: the keys no range read has ordered yet are always the
    dict's own suffix."""

    @staticmethod
    def _expected_range(reference, start, end, limit, reverse):
        keys = sorted(key for key in reference if start <= key < end)
        if limit is not None and len(keys) > limit:
            keys = keys[len(keys) - limit:] if reverse else keys[:limit]
        if reverse:
            keys.reverse()
        return [(key, reference[key]) for key in keys
                if not reference[key].tombstone]

    def _replay(self, ops):
        """Apply ``ops`` to a node and to the dict model, checking the store
        after every step; yields after each step so callers can add checks."""
        node = make_node()
        reference = {}
        for step, (kind, *args) in enumerate(ops, start=1):
            now = float(step)
            if kind == "put":
                (key,) = args
                value = reference[key] = vv(step, timestamp=now, version=step)
                node.put("ns", key, value, now=now)
            elif kind == "replica":
                key, age = args
                value = vv(step, timestamp=now - age, version=step, writer="r")
                applied = value.wins_over(reference.get(key))
                assert node.apply_replica_write("ns", key, value) is applied
                if applied:
                    reference[key] = value
            elif kind == "tombstone":
                (key,) = args
                tombstone = reference[key] = vv(
                    None, timestamp=now, version=step, tombstone=True)
                node.delete("ns", key, tombstone, now=now)
            elif kind in ("drop", "drop_new"):
                (key,) = args
                if kind == "drop_new":
                    stored = list(reference)
                    key = stored[-1 - key] if key < len(stored) else ("none",)
                node._store("ns").delete_many([key])
                reference.pop(key, None)
            elif kind == "drop_many":
                (keys,) = args
                node._store("ns").delete_many(keys)
                for key in keys:
                    reference.pop(key, None)
            elif kind == "range":
                lead, low, high, limit, reverse = args
                start = (lead,) if low is None else (lead, low)
                end = (lead + "\x00",) if high is None else (lead, high)
                rows, _ = node.get_range(KeyRange("ns", start, end), now=now,
                                         limit=limit, reverse=reverse)
                assert rows == self._expected_range(
                    reference, start, end, limit, reverse)
            else:
                assert node.scan_namespace("ns") == list(reference.items())
            store = node._store("ns")
            ordered = store._sorted_keys
            assert ordered == sorted(list(reference)[:len(ordered)])
            yield node, store
        assert node.scan_namespace("ns") == list(reference.items())
        assert node.key_count() == len(reference)

    @given(ops=st.lists(_store_ops, max_size=150))
    # A key stored after a range read, below an ordered key, then deleted.
    @example(ops=[("put", ("b",)), ("put", ("c",)),
                  ("range", "b", None, None, None, False),
                  ("put", ("a",)), ("drop_new", 0)])
    @settings(deadline=None)
    def test_matches_a_sorted_dict(self, ops):
        for _ in self._replay(ops):
            pass

    @given(ops=st.lists(_store_writes, max_size=150))
    @settings(deadline=None)
    def test_a_store_nothing_range_reads_sorts_no_key(self, ops):
        for _, store in self._replay(ops):
            assert store._sorted_keys == []


class TestStorageNodeLoadModel:
    def test_utilisation_rises_under_load(self):
        node = make_node(capacity=100.0)
        for i in range(200):
            node.put("ns", ("k", i), vv(i), now=i * 0.001)  # 1000 ops/sec against 100 capacity
        assert node.utilisation() > 0.8

    def test_latency_increases_with_load(self):
        calm = make_node(capacity=1000.0, seed=1)
        for i in range(100):
            calm.put("ns", ("k", i), vv(i), now=i * 1.0)  # 1 op/sec
        calm_latency = np.mean([calm.get("ns", ("k", 0), now=200.0 + i)[1] for i in range(50)])

        busy = make_node(capacity=1000.0, seed=1)
        for i in range(2000):
            busy.put("ns", ("k", i), vv(i), now=i * 0.0002)  # 5000 ops/sec
        busy_latency = np.mean([busy.get("ns", ("k", 0), now=0.4 + i * 0.0002)[1] for i in range(50)])
        assert busy_latency > 2.0 * calm_latency

    def test_decay_load_reduces_utilisation_when_idle(self):
        node = make_node(capacity=100.0)
        for i in range(200):
            node.put("ns", ("k", i), vv(i), now=i * 0.001)
        busy = node.utilisation()
        for step in range(20):
            node.decay_load(now=10.0 + step * 10.0)
        assert node.utilisation() < busy

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            make_node(capacity=0.0)
