"""Discrete-event simulation kernel.

Everything in the reproduction that involves time — request latency,
replication lag, instance boot delay, billing hours — runs against a virtual
clock managed by :class:`Simulator`.  The kernel is deliberately small: an
event queue whose heap entries are the events, a clock, reproducible random
streams, latency distributions, and a network model with injectable
partitions.
"""

from repro.sim.clock import VirtualClock
from repro.sim.events import Entry, EventQueue
from repro.sim.simulator import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    QueueingLatency,
)
from repro.sim.network import NetworkModel, Partition

__all__ = [
    "VirtualClock",
    "Entry",
    "EventQueue",
    "Simulator",
    "RandomStreams",
    "LatencyModel",
    "ConstantLatency",
    "LogNormalLatency",
    "QueueingLatency",
    "NetworkModel",
    "Partition",
]
