"""Equivalence by model: the one-record-per-write ``ReplicationEngine``
against the closure-based engine it replaced.

The write-path fast lane turned ``PropagationRecord`` into the scheduled
action itself, re-armed the same object on every retry, and then made one
record carry all of a write's deliveries, queued once at a time at the next
delivery's due time.  Those are host-only changes: the simulator must process
the same events at the same times under the same names, the network stream
must be drawn at the same points, and replicas, lag accounting and listeners
must end up identical.  The pre-change engine is kept here, verbatim in
behaviour, as the reference model; twin harnesses built from one seed are
driven through the same random operation sequence and compared after every
step.  What is queued is compared as outstanding deliveries — due time, event
name and target replica — since the subject queues one entry for what the
reference queues as several.
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
from repro.storage.replication import PropagationRecord, ReplicaGroup, ReplicationEngine

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
GROUP_SIZE = 3
SURGE_IDS = tuple(f"n{i}" for i in range(6))  # a surge group n0..n4; n5 is an outsider
SURGE_SIZE = 5
NAMESPACES = ("entity:profiles", "index:friends")
KEYS = tuple((f"user{i}", "row") for i in range(4))
MAX_RETRIES = 2                        # small enough for a crash to exhaust


class Harness:
    """A replica group, its nodes and network, and one engine under test."""

    def __init__(self, engine_cls, seed: int, node_ids=NODE_IDS,
                 group_size: int = GROUP_SIZE) -> None:
        self.sim = Simulator(seed=seed)
        self.network = NetworkModel(self.sim.random.get("network"))
        self.node_ids = node_ids
        self.nodes = {
            node_id: StorageNode(node_id, self.sim.random.get(f"node:{node_id}"))
            for node_id in node_ids
        }
        self.group = ReplicaGroup("g", list(node_ids[:group_size]))
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
        node_ids = self.node_ids
        if kind == "propagate":
            _, namespace, key = op
            self.engine.propagate(self.group, NAMESPACES[namespace], KEYS[key],
                                  self._value())
        elif kind == "replicate_to":
            _, source, target, namespace, key = op
            self.engine.replicate_to(node_ids[source], node_ids[target],
                                     NAMESPACES[namespace], KEYS[key], self._value())
        elif kind in ("crash", "recover", "drain"):
            node = self.nodes.get(node_ids[op[1]])
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
            self.nodes.pop(node_ids[op[1]], None)
        elif kind == "partition":
            if op[1] != op[2]:
                self.partitions.append(
                    self.network.partition({node_ids[op[1]]}, {node_ids[op[2]]}))
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
        queued = sorted(delivery for entry in self.sim.queue._heap
                        for delivery in _deliveries(entry))
        return {
            "stores": stores,
            "counts": counts,
            "queued": queued,
            "processed_events": self.sim.processed_events,
            "queue_length": len(queued),
            "now": self.sim.now,
            "pending": self.engine.pending_count(),
            "max_lag": self.engine.max_observed_lag(),
            "heard": list(self.heard),
            # One probe draw: the stream was consumed at the same points.
            "network_draw": self.network.delay("probe-a", "probe-b"),
        }


def _deliveries(entry):
    """The outstanding deliveries one queued entry stands for: ``(due time,
    event name, target replica)`` each."""
    time, _, _, action, name = entry
    if isinstance(action, PropagationRecord):
        yield time, name, action.replica_id
        if action._next_id is not None:
            yield action._next_due, name, action._next_id
            for due, replica_id in action._later or ():
                yield due, name, replica_id
    else:
        # A reference closure: its target is the replica_id it closes over.
        cells = dict(zip(action.__code__.co_freevars,
                         (cell.cell_contents for cell in action.__closure__)))
        yield time, name, cells["replica_id"]


_namespace = st.integers(min_value=0, max_value=len(NAMESPACES) - 1)
_key = st.integers(min_value=0, max_value=len(KEYS) - 1)


def operations(node_count: int):
    """One random operation on a harness of ``node_count`` nodes."""
    def node_index(first: int = 0):
        return st.integers(min_value=first, max_value=node_count - 1)

    return st.one_of(
        st.tuples(st.just("propagate"), _namespace, _key),
        st.tuples(st.just("replicate_to"), node_index(), node_index(), _namespace, _key),
        st.tuples(st.just("crash"), node_index()),
        st.tuples(st.just("recover"), node_index()),
        st.tuples(st.just("drain"), node_index(1), st.booleans()),
        st.tuples(st.just("remove"), node_index(1)),
        st.tuples(st.just("partition"), node_index(), node_index()),
        st.tuples(st.just("heal")),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.001, 0.01, 0.6, 1.0, 2.5])),
    )


OPERATIONS = operations(len(NODE_IDS))


def assert_twins_agree(ops, seed: int, node_ids=NODE_IDS,
                       group_size: int = GROUP_SIZE, hop=None) -> Harness:
    """Drive both engines through ``ops``; ``hop`` replaces the network's
    latency model on both sides."""
    reference = Harness(ReferenceReplicationEngine, seed, node_ids, group_size)
    subject = Harness(ReplicationEngine, seed, node_ids, group_size)
    if hop is not None:
        reference.network._default_latency = subject.network._default_latency = hop
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


@given(ops=st.lists(operations(len(SURGE_IDS)), min_size=1, max_size=60),
       seed=st.integers(min_value=0, max_value=2**16))
def test_a_surge_group_matches_the_reference(ops, seed):
    """Four deliveries per write: the ones past the next wait in the record's
    list and still arrive at the reference's times and in its order."""
    assert_twins_agree(ops, seed, SURGE_IDS, SURGE_SIZE)


class _ConstantHop:
    """Every hop takes the same time, so a write's deliveries are all due at
    one instant."""

    def sample(self, rng) -> float:
        return 0.0005


@pytest.mark.parametrize("node_ids, group_size",
                         [(NODE_IDS, GROUP_SIZE), (SURGE_IDS, SURGE_SIZE)],
                         ids=["rf3", "surge"])
def test_deliveries_due_at_one_instant_arrive_in_node_order(node_ids, group_size):
    """With the sequence number out of the comparison, the same-time tie is
    checked here: both engines apply a write's simultaneous deliveries in
    node order, and a crashed one arrives after the others once it retries."""
    ops = [
        ("propagate", 0, 0),
        ("advance", 0.01),
        ("crash", 1),
        ("propagate", 1, 1),                # n1 is first in node order and down
        ("advance", 0.01),
        ("recover", 1),
        ("advance", 1.0),
    ]
    subject = assert_twins_agree(ops, seed=5, node_ids=node_ids,
                                 group_size=group_size, hop=_ConstantHop())
    replicas = list(node_ids[1:group_size])

    def heard(key):
        return [(replica, applied) for _, heard_key, replica, _, applied, _
                in subject.heard if heard_key == key]

    first = heard(KEYS[0])
    assert [replica for replica, _ in first] == replicas
    assert len({applied for _, applied in first}) == 1
    second = heard(KEYS[1])
    assert [replica for replica, _ in second] == replicas[1:] + replicas[:1]
    assert len({applied for _, applied in second[:-1]}) == 1
    assert second[-1][1] > second[0][1]
    assert subject.engine.pending_count() == 0
