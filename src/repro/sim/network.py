"""Network model: hop latency and partitions between endpoints.

The SCADS paper's arbitration story (Section 3.3.1) hinges on what the system
does when "two datacenters become disconnected"; this module provides the
substrate those experiments inject partitions into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Set

import numpy as np

from repro.sim.latency import LogNormalLatency


class NetworkPartitionError(RuntimeError):
    """Raised when a message is sent across an active network partition."""


@dataclass(frozen=True)
class Partition:
    """A network partition separating two groups of endpoints."""

    group_a: FrozenSet[str]
    group_b: FrozenSet[str]

    def separates(self, src: str, dst: str) -> bool:
        """True if ``src`` and ``dst`` are on opposite sides of the partition."""
        return (src in self.group_a and dst in self.group_b) or (
            src in self.group_b and dst in self.group_a
        )


class NetworkModel:
    """Tracks active partitions.

    Every hop samples one default latency model; this keeps small experiments
    simple while still letting the failure-injection benches cut specific
    paths.
    """

    def __init__(
        self,
        rng: np.random.Generator,
    ) -> None:
        self._rng = rng
        self._default_latency = LogNormalLatency(0.0005, 0.3)
        self._partitions: Set[Partition] = set()

    def partition(self, group_a: Set[str], group_b: Set[str]) -> Partition:
        """Install a partition separating the two endpoint groups."""
        overlap = set(group_a) & set(group_b)
        if overlap:
            raise ValueError(f"partition groups overlap: {sorted(overlap)}")
        part = Partition(frozenset(group_a), frozenset(group_b))
        self._partitions.add(part)
        return part

    def heal(self, partition: Partition) -> None:
        """Remove a previously installed partition."""
        self._partitions.discard(partition)

    def is_reachable(self, src: str, dst: str) -> bool:
        """True unless an active partition separates the endpoints."""
        if not self._partitions:
            return True
        return not any(p.separates(src, dst) for p in self._partitions)

    def delay(self, src: str, dst: str) -> float:
        """One-way message delay from ``src`` to ``dst``.

        Raises :class:`NetworkPartitionError` if the endpoints are partitioned.
        The healthy-network case (no partitions) is the per-request hot path
        and skips every lookup.
        """
        if src == dst:
            return 0.0
        if self._partitions and not self.is_reachable(src, dst):
            raise NetworkPartitionError(f"{src} cannot reach {dst}: network partition")
        return self._default_latency.sample(self._rng)
