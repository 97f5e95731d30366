"""Equivalence by model: the one-object-per-propagation ``ReplicationEngine``
against the closure-based engine it replaced.

The write-path fast lane turned ``PropagationRecord`` into the scheduled
action itself and re-arms the same object on every retry.  That is a host-only
change: the simulator must see the same events at the same times under the
same names, the network stream must be drawn at the same points, and replicas,
lag accounting and listeners must end up identical.  The pre-change engine is
kept here, verbatim in behaviour, as the reference model; twin harnesses built
from one seed are driven through the same random operation sequence and
compared after every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.network import NetworkModel, NetworkPartitionError
from repro.sim.simulator import Simulator
from repro.storage.node import StorageNode
from repro.storage.records import VersionedValue
from repro.storage.replication import ReplicaGroup, ReplicationEngine

pytestmark = [pytest.mark.tier1, pytest.mark.property]


# ------------------------------------------------------------ reference model


@dataclass
class ReferenceRecord:
    namespace: str
    key: tuple
    write_time: float
    replica_id: str
    applied_time: Optional[float] = None

    @property
    def lag(self) -> Optional[float]:
        if self.applied_time is None:
            return None
        return self.applied_time - self.write_time


class ReferenceReplicationEngine:
    """The engine as it was before the fast lane: one ``apply`` closure per
    scheduled attempt, one ``retry`` closure per retry wait."""

    retry_interval = ReplicationEngine.retry_interval
    max_retries = ReplicationEngine.max_retries

    def __init__(self, simulator, network, nodes, processing_delay=0.002):
        self._sim = simulator
        self._network = network
        self._nodes = nodes
        self._processing_delay = processing_delay
        self._max_lag = 0.0
        self._pending = 0
        self._lag_listeners = []

    def add_lag_listener(self, listener):
        self._lag_listeners.append(listener)

    def propagate(self, group, namespace, key, value):
        node_ids = group.node_ids
        primary_id = node_ids[0]
        now = self._sim.clock.now
        for i in range(1, len(node_ids)):
            replica_id = node_ids[i]
            replica = self._nodes.get(replica_id)
            if replica is not None and replica.draining:
                continue
            record = ReferenceRecord(namespace, key, now, replica_id)
            self._pending += 1
            self._schedule_apply(primary_id, replica_id, namespace, key, value,
                                 record, self.max_retries)

    def replicate_to(self, source_id, replica_id, namespace, key, value):
        record = ReferenceRecord(namespace, key, self._sim.now, replica_id)
        self._pending += 1
        self._schedule_apply(source_id, replica_id, namespace, key, value,
                             record, self.max_retries)
        return record

    def _schedule_apply(self, primary_id, replica_id, namespace, key, value,
                        record, retries_left):
        try:
            hop = self._network.delay(primary_id, replica_id)
        except NetworkPartitionError:
            self._schedule_retry(primary_id, replica_id, namespace, key, value,
                                 record, retries_left)
            return
        delay = hop + self._processing_delay

        def apply():
            node = self._nodes.get(replica_id)
            if node is None:
                self._pending -= 1
                return
            if not node.alive:
                self._schedule_retry(primary_id, replica_id, namespace, key, value,
                                     record, retries_left)
                return
            node.apply_replica_write(namespace, key, value)
            record.applied_time = self._sim.clock.now
            self._pending -= 1
            lag = record.applied_time - record.write_time
            if lag > self._max_lag:
                self._max_lag = lag
            for listener in self._lag_listeners:
                listener(record)

        self._sim.schedule(delay, apply, name=f"replicate:{namespace}")

    def _schedule_retry(self, primary_id, replica_id, namespace, key, value,
                        record, retries_left):
        if retries_left <= 0:
            self._pending -= 1
            return

        def retry():
            self._schedule_apply(primary_id, replica_id, namespace, key, value,
                                 record, retries_left - 1)

        self._sim.schedule(self.retry_interval, retry, name="replicate-retry")

    def pending_count(self):
        return self._pending

    def max_observed_lag(self):
        return self._max_lag


# -------------------------------------------------------------------- harness

NODE_IDS = ("n0", "n1", "n2", "n3")   # n0..n2 form the group; n3 is an outsider
NAMESPACES = ("entity:profiles", "index:friends")
KEYS = tuple((f"user{i}", "row") for i in range(4))
MAX_RETRIES = 2                        # small enough for a crash to exhaust


class Harness:
    """A replica group, its nodes and network, and one engine under test."""

    def __init__(self, engine_cls, seed: int) -> None:
        self.sim = Simulator(seed=seed)
        self.network = NetworkModel(self.sim.random.get("network"))
        self.nodes = {
            node_id: StorageNode(node_id, self.sim.random.get(f"node:{node_id}"))
            for node_id in NODE_IDS
        }
        self.group = ReplicaGroup("g", list(NODE_IDS[:3]))
        self.engine = engine_cls(self.sim, self.network, self.nodes)
        self.engine.max_retries = MAX_RETRIES
        self.writes = 0
        self.partitions = []
        # The lag listener sees every completed propagation: what was
        # applied where, when, and with what lag.
        self.heard = []
        self.engine.add_lag_listener(lambda record: self.heard.append(
            (record.namespace, record.key, record.replica_id, record.write_time,
             record.applied_time, record.lag)))

    def _value(self) -> VersionedValue:
        self.writes += 1
        return VersionedValue(value=self.writes, timestamp=self.sim.now,
                              writer="w", version=self.writes)

    def step(self, op) -> None:
        kind = op[0]
        if kind == "propagate":
            _, namespace, key = op
            self.engine.propagate(self.group, NAMESPACES[namespace], KEYS[key],
                                  self._value())
        elif kind == "replicate_to":
            _, source, target, namespace, key = op
            self.engine.replicate_to(NODE_IDS[source], NODE_IDS[target],
                                     NAMESPACES[namespace], KEYS[key], self._value())
        elif kind in ("crash", "recover", "drain"):
            node = self.nodes.get(NODE_IDS[op[1]])
            if node is None:
                pass  # already removed
            elif kind == "crash":
                node.crash()
            elif kind == "recover":
                node.recover()
            else:
                node.set_draining(op[2])
        elif kind == "remove":
            # The replica leaves for good mid-flight; the group still names it.
            self.nodes.pop(NODE_IDS[op[1]], None)
        elif kind == "partition":
            if op[1] != op[2]:
                self.partitions.append(
                    self.network.partition({NODE_IDS[op[1]]}, {NODE_IDS[op[2]]}))
        elif kind == "heal":
            for partition in self.partitions:
                self.network.heal(partition)
            self.partitions.clear()
        elif kind == "advance":
            self.sim.run_until(self.sim.now + op[1])
        else:  # pragma: no cover - strategy and dispatcher out of step
            raise AssertionError(op)

    def observe(self):
        """Everything the rest of the system can see of the engine's work."""
        stores = {
            node_id: {namespace: list(store._data.items())
                      for namespace, store in sorted(node._namespaces.items())}
            for node_id, node in self.nodes.items()
        }
        # the load model each node's write requests drove
        counts = {node_id: (node.arrival_rate(), node._burst_count, node._last_arrival)
                  for node_id, node in self.nodes.items()}
        queued = sorted((time, priority, seq, name)
                        for time, priority, seq, _, name in self.sim.queue._heap)
        return {
            "stores": stores,
            "counts": counts,
            "queued": queued,
            "processed_events": self.sim.processed_events,
            "queue_length": len(self.sim.queue),
            "now": self.sim.now,
            "pending": self.engine.pending_count(),
            "max_lag": self.engine.max_observed_lag(),
            "heard": list(self.heard),
            # One probe draw: the stream was consumed at the same points.
            "network_draw": self.network.delay("probe-a", "probe-b"),
        }


def _node_index(first: int = 0):
    return st.integers(min_value=first, max_value=len(NODE_IDS) - 1)


_namespace = st.integers(min_value=0, max_value=len(NAMESPACES) - 1)
_key = st.integers(min_value=0, max_value=len(KEYS) - 1)

OPERATIONS = st.one_of(
    st.tuples(st.just("propagate"), _namespace, _key),
    st.tuples(st.just("replicate_to"), _node_index(), _node_index(), _namespace, _key),
    st.tuples(st.just("crash"), _node_index()),
    st.tuples(st.just("recover"), _node_index()),
    st.tuples(st.just("drain"), _node_index(1), st.booleans()),
    st.tuples(st.just("remove"), _node_index(1)),
    st.tuples(st.just("partition"), _node_index(), _node_index()),
    st.tuples(st.just("heal")),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.001, 0.01, 0.6, 1.0, 2.5])),
)


def assert_twins_agree(ops, seed: int) -> Harness:
    reference = Harness(ReferenceReplicationEngine, seed)
    subject = Harness(ReplicationEngine, seed)
    for index, op in enumerate(ops):
        reference.step(op)
        subject.step(op)
        assert subject.observe() == reference.observe(), f"diverged at step {index}: {op}"
    return subject


@given(ops=st.lists(OPERATIONS, min_size=1, max_size=60),
       seed=st.integers(min_value=0, max_value=2**16))
def test_engine_matches_the_closure_based_reference(ops, seed):
    assert_twins_agree(ops, seed)


def test_retry_budget_exhaustion_matches_the_reference():
    """A replica down for longer than the budget: the write is given up on at
    the same event, and a later write still gets through after recovery."""
    ops = [
        ("crash", 1),
        ("propagate", 0, 0),                # n1 retries, n2 applies
        ("replicate_to", 0, 1, 1, 1),
        ("advance", 0.6),
        ("partition", 0, 2),
        ("propagate", 0, 1),                # n2 partitioned at schedule time
        ("advance", 1.0),
        ("heal",),
        ("advance", 2.5),                   # n1's budget (2 retries) runs out
        ("recover", 1),
        ("propagate", 1, 2),
        ("advance", 2.5),
    ]
    subject = assert_twins_agree(ops, seed=7)
    assert subject.engine.pending_count() == 0
    assert len(subject.sim.queue) == 0
    n1 = subject.nodes["n1"]
    assert n1.peek(NAMESPACES[0], KEYS[0]) is None          # given up on
    assert n1.peek(NAMESPACES[1], KEYS[1]) is None          # replicate_to, same fate
    assert n1.peek(NAMESPACES[1], KEYS[2]) is not None      # after recovery
    assert subject.nodes["n2"].peek(NAMESPACES[0], KEYS[1]) is not None  # retried past the partition
    # Every retry re-arms the record it started with: listeners saw each
    # applied propagation once, with the original write time.
    assert len(subject.heard) == len(set(subject.heard)) == 4


def test_record_is_the_scheduled_action_and_exposes_the_lag():
    harness = Harness(ReplicationEngine, seed=3)
    record = harness.engine.replicate_to("n0", "n3", NAMESPACES[0], KEYS[0],
                                         harness._value())
    assert record.lag is None and record.applied_time is None
    (entry,) = harness.sim.queue._heap
    assert entry[3] is record and entry[4] == f"replicate:{NAMESPACES[0]}"
    harness.sim.run_until(1.0)
    assert record.lag == record.applied_time - record.write_time > 0.0
    assert harness.heard == [(NAMESPACES[0], KEYS[0], "n3", 0.0,
                              record.applied_time, record.lag)]
