"""Distributed storage substrate.

An in-process, discrete-event-simulated stand-in for the range-partitioned,
replicated column store (Cassandra) the paper plans to build on.  It provides
ordered per-namespace key/value storage on simulated nodes, range and
consistent-hash partitioning, asynchronous (lazy) replication with observable
lag, quorum operations, live data movement for elastic scaling, a durability
model, and failure injection.
"""

from repro.storage.records import KeyRange, VersionedValue
from repro.storage.node import StorageNode
from repro.storage.partitioner import (
    ConsistentHashPartitioner,
    PartitionInfo,
    Partitioner,
    RangePartitioner,
)
from repro.storage.replication import ReplicaGroup, ReplicationEngine
from repro.storage.router import RequestResult, Router
from repro.storage.cluster import Cluster, MigrationRecord
from repro.storage.durability import DurabilityModel
from repro.storage.failure import FailureInjector
from repro.storage.rebalancer import (
    PartitionLoadTracker,
    RebalanceAction,
    Rebalancer,
)

__all__ = [
    "VersionedValue",
    "KeyRange",
    "StorageNode",
    "Partitioner",
    "PartitionInfo",
    "RangePartitioner",
    "ConsistentHashPartitioner",
    "ReplicaGroup",
    "ReplicationEngine",
    "Router",
    "RequestResult",
    "Cluster",
    "MigrationRecord",
    "DurabilityModel",
    "FailureInjector",
    "PartitionLoadTracker",
    "RebalanceAction",
    "Rebalancer",
]
