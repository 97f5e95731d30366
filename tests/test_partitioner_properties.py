"""Property-based invariants for both partitioners under topology churn.

The paper's bounded-lookup guarantee ("at most one read from a small constant
number of computers") rests on two routing invariants that must survive any
sequence of topology changes — add/remove group (both) and
split/merge/reassign (range):

1. every key routes to exactly one currently-registered replica group, and
2. every prefix range's partition key (``range_lead``) routes to exactly the
   group that owns its keys, so a range read is one group's read.

These suites drive arbitrary operation sequences (invalid operations are
expected to raise ``PartitionerError`` and change nothing) and then check the
invariants over a fixed token population.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.partitioner import (
    ConsistentHashPartitioner,
    PartitionerError,
    RangePartitioner,
)
from repro.storage.records import prefix_range, range_lead

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


TOKENS = [f"u{i:03d}" for i in range(60)]
GROUPS = [f"g{i}" for i in range(6)]

range_op = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(GROUPS)),
    st.tuples(st.just("remove"), st.sampled_from(GROUPS)),
    st.tuples(st.just("split"), st.sampled_from(TOKENS)),
    st.tuples(st.just("merge"), st.sampled_from(TOKENS)),
    st.tuples(st.just("reassign"), st.sampled_from(TOKENS), st.sampled_from(GROUPS)),
)

hash_op = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(GROUPS)),
    st.tuples(st.just("remove"), st.sampled_from(GROUPS)),
)


def apply_hash_op(partitioner: ConsistentHashPartitioner, operation) -> None:
    try:
        if operation[0] == "add":
            partitioner.add_group(operation[1])
        else:
            partitioner.remove_group(operation[1])
    except PartitionerError:
        pass


def apply_range_op(partitioner: RangePartitioner, operation) -> None:
    kind = operation[0]
    try:
        if kind == "add":
            partitioner.add_group(operation[1])
        elif kind == "remove":
            partitioner.remove_group(operation[1])
        elif kind == "split":
            partitioner.split_at(operation[1])
        elif kind == "merge":
            info = partitioner.partition_for_token(operation[1])
            if info.upper is not None:
                partitioner.merge_at(info.index)
        else:
            info = partitioner.partition_for_token(operation[1])
            partitioner.reassign(info.index, operation[2])
    except PartitionerError:
        pass  # invalid transitions must raise, not corrupt state


def check_routing_invariants(partitioner) -> None:
    groups = set(partitioner.groups())
    assert groups, "a partitioner must always have at least one group"
    for token in TOKENS:
        owner = partitioner.group_for_token(token)
        assert owner in groups
        key_range = prefix_range("ns", (token,))
        range_owner = partitioner.group_for_token(
            str(range_lead(key_range.start, key_range.end)))
        assert range_owner == owner, (
            f"prefix range for {token!r} must land on exactly its owner"
        )


class TestRangePartitionerProperties:
    @given(operations=st.lists(range_op, min_size=0, max_size=40))
    def test_every_key_routes_to_exactly_one_registered_group(self, operations):
        partitioner = range_partitioner(["g0"])
        for operation in operations:
            apply_range_op(partitioner, operation)
        check_routing_invariants(partitioner)

    @given(operations=st.lists(range_op, min_size=0, max_size=40))
    def test_partition_table_stays_well_formed(self, operations):
        partitioner = range_partitioner(["g0"])
        for operation in operations:
            apply_range_op(partitioner, operation)
        partitions = partitioner.partitions()
        lowers = [p.lower for p in partitions]
        assert lowers[0] == ""
        assert lowers == sorted(lowers)
        assert len(set(lowers)) == len(lowers), "split points must be unique"
        groups = set(partitioner.groups())
        for left, right in zip(partitions, partitions[1:]):
            assert left.upper == right.lower, "partitions must tile the space"
        assert partitions[-1].upper is None
        for partition in partitions:
            assert partition.owner in groups
            # partition_for_token agrees with the table
            assert partitioner.partition_for_token(partition.lower) == partition


class TestConsistentHashPartitionerProperties:
    @given(operations=st.lists(hash_op, min_size=0, max_size=30))
    def test_every_key_routes_to_exactly_one_registered_group(self, operations):
        partitioner = hash_ring(["g0"], virtual_nodes=16)
        for operation in operations:
            apply_hash_op(partitioner, operation)
        check_routing_invariants(partitioner)

    @given(operations=st.lists(hash_op, min_size=0, max_size=30))
    def test_routing_is_a_pure_function_of_the_operation_history(self, operations):
        def build():
            partitioner = hash_ring(["g0"], virtual_nodes=16)
            for operation in operations:
                apply_hash_op(partitioner, operation)
            return partitioner

        first, second = build(), build()
        for token in TOKENS:
            assert first.group_for_token(token) == second.group_for_token(token)
