"""Feature extraction for the performance models.

A feature vector summarises one observation window: what the workload looked
like and what the cluster configuration was.  The models then learn the map
from these features to observed latency percentiles / replication lag.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class WorkloadFeatures:
    """One observation window's workload + configuration summary.

    Attributes:
        request_rate: aggregate offered request rate (ops/sec).
        write_fraction: fraction of operations that are writes.
        node_count: storage nodes serving the workload.
        per_node_rate: request_rate / node_count — the main capacity signal.
        mean_utilisation: cluster-mean node utilisation during the window.
        max_utilisation: worst node utilisation (captures hot spots).
        pending_updates: queued asynchronous index updates at window end.
    """

    request_rate: float
    write_fraction: float
    node_count: float
    per_node_rate: float
    mean_utilisation: float
    max_utilisation: float
    pending_updates: float = 0.0

    def as_vector(self) -> np.ndarray:
        """The features as a flat numpy vector (field order is stable)."""
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=float)


class FeatureExtractor:
    """Builds :class:`WorkloadFeatures` from raw window measurements."""

    def extract(
        self,
        request_rate: float,
        write_fraction: float,
        node_count: int,
        mean_utilisation: float,
        max_utilisation: float,
        pending_updates: int = 0,
    ) -> WorkloadFeatures:
        """Assemble a feature vector, deriving the per-node rate."""
        if node_count <= 0:
            raise ValueError(f"node_count must be positive, got {node_count}")
        if request_rate < 0:
            raise ValueError(f"request_rate must be non-negative, got {request_rate}")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError(f"write_fraction must be in [0, 1], got {write_fraction}")
        return WorkloadFeatures(
            request_rate=float(request_rate),
            write_fraction=float(write_fraction),
            node_count=float(node_count),
            per_node_rate=float(request_rate) / float(node_count),
            mean_utilisation=float(mean_utilisation),
            max_utilisation=float(max_utilisation),
            pending_updates=float(pending_updates),
        )
