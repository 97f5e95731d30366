"""A Dynamo-style quorum-tuned key-value store baseline.

The paper argues (Section 2.2 and related work) that exposing quorum knobs
(N, R, W) forces developers to reason about mechanisms, whereas SCADS lets
them declare outcomes.  This baseline exposes exactly those knobs on top of
the same simulated cluster so experiment E12 can sweep (R, W) combinations
and compare latency / consistency outcomes against one declarative spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.sim.simulator import Simulator
from repro.storage.cluster import Cluster
from repro.storage.records import Key
from repro.storage.router import RequestResult, Router


@dataclass
class QuorumConfig:
    """The hand-tuned knobs: replication factor N, read quorum R, write quorum W."""

    n: int = 3
    r: int = 1
    w: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("N must be >= 1")
        if not 1 <= self.r <= self.n:
            raise ValueError("need 1 <= R <= N")
        if not 1 <= self.w <= self.n:
            raise ValueError("need 1 <= W <= N")

    @property
    def strongly_consistent(self) -> bool:
        """R + W > N guarantees a read quorum overlaps every write quorum."""
        return self.r + self.w > self.n


class QuorumStore:
    """A key-value store whose consistency is tuned via (N, R, W)."""

    NAMESPACE = "quorum:data"

    def __init__(
        self,
        config: QuorumConfig,
        seed: int = 0,
        initial_groups: int = 2,
    ) -> None:
        self.config = config
        self.sim = Simulator(seed=seed)
        self.cluster = Cluster(
            simulator=self.sim,
            replication_factor=config.n,
            initial_groups=initial_groups,
        )
        self.router = Router(self.cluster)

    # ---------------------------------------------------------------- operations

    def put(self, key: Key, value: Dict[str, Any], writer: str = "") -> RequestResult:
        """Write with W synchronous acknowledgements."""
        return self.router.write(
            self.NAMESPACE, key, value, writer=writer, write_quorum=self.config.w
        )

    def get(self, key: Key) -> RequestResult:
        """Read from R replicas, returning the newest version seen."""
        return self.router.read(self.NAMESPACE, key, read_quorum=self.config.r)

    def get_and_check_staleness(self, key: Key) -> Tuple[RequestResult, bool]:
        """Read and report whether the result was stale w.r.t. the primary.

        Used by E12 to measure the consistency outcome of each (R, W) setting
        without the developer having declared what they actually wanted.
        """
        result = self.get(key)
        stale = False
        if result.success:
            group = self.cluster.group_for_key(self.NAMESPACE, key)
            primary = self.cluster.nodes.get(group.primary)
            if primary is not None and primary.alive:
                latest = primary.peek(self.NAMESPACE, key)
                observed_version = result.value.version if result.value is not None else 0
                latest_version = latest.version if latest is not None else 0
                stale = observed_version < latest_version
        return result, stale

    def run_for(self, seconds: float) -> None:
        """Advance simulated time (lets asynchronous replication apply)."""
        self.sim.run_until(self.sim.now + seconds)

    # ----------------------------------------------------------------- reporting
