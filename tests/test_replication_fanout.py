"""A write in flight is one record and one queued event.

``ReplicationEngine.propagate`` draws every replica's hop when the primary
accepts the write, and queues one ``PropagationRecord`` for all of them at the
earliest due time; the record fires at each delivery's due time in turn.  A
delivery that finds its replica down splits off on a record of its own and
retries there, while the rest of the write arrives on time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.social_network import SocialNetworkApp
from repro.core.engine import Scads
from repro.sim.network import NetworkModel
from repro.sim.simulator import Simulator
from repro.storage.node import StorageNode
from repro.storage.records import VersionedValue
from repro.storage.replication import (
    PROCESSING_DELAY,
    PropagationRecord,
    ReplicaGroup,
    ReplicationEngine,
)
from repro.workloads.social_graph import SocialGraph

pytestmark = pytest.mark.tier1

NAMESPACE = "entity:profiles"
KEY = ("u1", "row")


def _records(sim):
    return [entry for entry in sim.queue._heap if isinstance(entry[3], PropagationRecord)]


class Fanout:
    """One replica group of ``size`` nodes and its engine, plus a twin
    network stream that yields the hops the engine will draw."""

    def __init__(self, size: int, seed: int = 3) -> None:
        self.sim = Simulator(seed=seed)
        self.node_ids = [f"n{i}" for i in range(size)]
        self.nodes = {node_id: StorageNode(node_id, self.sim.random.get(f"node:{node_id}"))
                      for node_id in self.node_ids}
        self.engine = ReplicationEngine(
            self.sim, NetworkModel(self.sim.random.get("network")), self.nodes)
        self.group = ReplicaGroup("g", list(self.node_ids))
        self.twin = NetworkModel(Simulator(seed=seed).random.get("network"))
        self.heard = []
        self.engine.add_lag_listener(lambda record: self.heard.append(
            (record.replica_id, record.applied_time, record.lag, self.sim.now)))

    def write(self):
        """Propagate one write; return ``(replica_id, due)`` in node order."""
        now = self.sim.now
        drawn = [(replica_id, now + (self.twin.delay("n0", replica_id) + PROCESSING_DELAY))
                 for replica_id in self.node_ids[1:]]
        self.engine.propagate(self.group, NAMESPACE, KEY,
                              VersionedValue(value={"a": 1}, timestamp=now, writer="w",
                                             version=1))
        return drawn


def test_a_flush_queues_one_record_per_replicated_write(monkeypatch):
    """After the index flush of a settled rf-3 app, the heap holds one
    record per replicated write, and the engine still counts each of its
    two deliveries as pending."""
    engine = Scads(seed=5, autoscale=False, initial_groups=2)
    app = SocialNetworkApp(engine)
    engine.start()
    app.load_graph(SocialGraph(40, np.random.default_rng(3), max_friends=6,
                               mean_friends=3.0))
    engine.settle()
    replication = engine.cluster.replication
    assert replication.pending_count() == 0 and not _records(engine.sim)
    writes = []
    propagate = replication.propagate

    def counted(group, namespace, key, value):
        assert len(group.node_ids) == 3
        writes.append(key)
        propagate(group, namespace, key, value)

    monkeypatch.setattr(replication, "propagate", counted)
    app.add_friendship("u0", "u7")
    app.update_profile("u3", birthday="01-02")
    assert engine.flush_indexes() > 0
    records = _records(engine.sim)
    assert len(writes) > 4
    assert len(records) == len(writes)
    assert replication.pending_count() == 2 * len(writes)
    for _, _, _, record, _ in records:
        assert record._next_id is not None and record._later is None
    engine.run_for(2.0)
    assert replication.pending_count() == 0 and not _records(engine.sim)


def test_a_crashed_first_replica_retries_on_its_own_record():
    fanout = Fanout(3)
    drawn = fanout.write()
    (entry,) = fanout.sim.queue._heap
    record = entry[3]
    (first, first_due), (second, second_due) = sorted(drawn, key=lambda d: d[1])
    assert (entry[0], record.replica_id) == (first_due, first)
    assert (record._next_due, record._next_id) == (second_due, second)
    fanout.nodes[first].crash()
    fanout.sim.run_until(first_due)
    # The retry waits a whole interval; the other hop is due within it.
    onward, retry = sorted(fanout.sim.queue._heap)
    assert onward[3] is record and onward[0] == second_due
    assert onward[4] == f"replicate:{NAMESPACE}" and record.replica_id == second
    assert retry[3] is not record and retry[4] == "replicate-retry"
    assert retry[3].replica_id == first
    assert retry[3]._retries_left == ReplicationEngine.max_retries - 1
    fanout.sim.run_until(second_due)
    assert fanout.heard == [(second, second_due, second_due, second_due)]  # written at 0
    assert fanout.nodes[second].peek(NAMESPACE, KEY) is not None
    assert fanout.engine.pending_count() == 1
    fanout.nodes[first].recover()
    fanout.sim.run_until(first_due + 2.0)
    assert [replica for replica, *_ in fanout.heard] == [second, first]
    assert fanout.nodes[first].peek(NAMESPACE, KEY) is not None
    assert fanout.engine.pending_count() == 0 and not fanout.sim.queue._heap


@pytest.mark.parametrize("size", [4, 5, 7])
def test_a_surge_group_is_delivered_in_due_order_through_one_record(size):
    fanout = Fanout(size, seed=size)
    drawn = fanout.write()
    expected = sorted(drawn, key=lambda d: d[1])
    (entry,) = fanout.sim.queue._heap
    record = entry[3]
    queued = []
    while fanout.sim.queue._heap:
        (entry,) = fanout.sim.queue._heap
        assert entry[3] is record
        queued.append((record.replica_id, entry[0]))
        fanout.sim.run_until(entry[0])
    assert queued == expected
    assert [(replica, applied) for replica, applied, _, _ in fanout.heard] == expected
    assert fanout.sim.processed_events == size - 1
    assert fanout.engine.pending_count() == 0


def test_each_listener_call_sees_its_own_delivery():
    fanout = Fanout(4, seed=9)
    drawn = dict(fanout.write())
    assert len(fanout.sim.queue) == 1
    fanout.sim.run_until(1.0)
    assert sorted(replica for replica, *_ in fanout.heard) == sorted(drawn)
    for replica, applied, lag, now in fanout.heard:
        assert applied == now == drawn[replica]
        assert lag == applied  # written at 0


def test_replicate_to_is_a_one_delivery_record():
    fanout = Fanout(3)
    record = fanout.engine.replicate_to("n0", "n2", NAMESPACE, KEY,
                                        VersionedValue(value={"a": 1}, timestamp=0.0,
                                                       writer="w", version=1))
    assert record._next_id is None and record._later is None
    (entry,) = fanout.sim.queue._heap
    assert entry[3] is record
