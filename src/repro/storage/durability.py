"""Durability modelling.

The paper's durability axis lets a developer declare "data must persist with
99.999 % probability" and expects the system to choose a replication level
that achieves it given expected node failure rates.  This module contains
that calculation: the probability that all replicas of a committed write fail
within the window before the data can be re-replicated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The largest replication factor required_replication_factor will propose.
MAX_REPLICATION_FACTOR = 10


@dataclass
class DurabilityModel:
    """Analytic model of data-loss probability under independent node failures.

    Args:
        node_mttf_hours: mean time to failure of one node, in hours.
        re_replication_hours: time to restore full replication after a node
            loss (detect + copy), in hours.  Data is lost only if every
            replica fails within this window of one another.
    """

    node_mttf_hours: float = 4380.0  # six months
    re_replication_hours: float = 1.0

    def __post_init__(self) -> None:
        if self.node_mttf_hours <= 0:
            raise ValueError("node MTTF must be positive")
        if self.re_replication_hours <= 0:
            raise ValueError("re-replication time must be positive")

    def node_failure_probability_in_window(self) -> float:
        """Probability a single node fails during one re-replication window."""
        return 1.0 - math.exp(-self.re_replication_hours / self.node_mttf_hours)

    def loss_probability(self, replication_factor: int, horizon_hours: float = 8760.0) -> float:
        """Probability of losing a given object within ``horizon_hours``.

        Modelled as a sequence of independent re-replication windows: in each
        window the object is lost if the remaining ``replication_factor - 1``
        replicas also fail before re-replication completes, given the first
        failure that opened the window.
        """
        if replication_factor < 1:
            raise ValueError("replication factor must be >= 1")
        if horizon_hours <= 0:
            raise ValueError("horizon must be positive")
        p_window = self.node_failure_probability_in_window()
        # Rate of "first failure" events over the horizon for the replica set.
        first_failure_events = (horizon_hours / self.node_mttf_hours) * replication_factor
        # Given a first failure, all other replicas must fail inside the window.
        p_cascade = p_window ** (replication_factor - 1)
        expected_loss_events = first_failure_events * p_cascade
        return 1.0 - math.exp(-expected_loss_events)

    def durability(self, replication_factor: int, horizon_hours: float = 8760.0) -> float:
        """Probability the object survives the horizon (1 - loss probability)."""
        return 1.0 - self.loss_probability(replication_factor, horizon_hours)

    def required_replication_factor(
        self,
        target_durability: float,
        horizon_hours: float = 8760.0,
    ) -> int:
        """Smallest replication factor meeting the declared durability SLA.

        Raises ``ValueError`` if no factor up to ``MAX_REPLICATION_FACTOR``
        achieves it — a genuinely unmeetable specification, which SCADS
        surfaces to the developer rather than silently under-delivering.
        """
        if not 0.0 < target_durability < 1.0:
            raise ValueError(
                f"target durability must be in (0, 1), got {target_durability}"
            )
        for factor in range(1, MAX_REPLICATION_FACTOR + 1):
            if self.durability(factor, horizon_hours) >= target_durability:
                return factor
        raise ValueError(
            f"no replication factor <= {MAX_REPLICATION_FACTOR} achieves durability "
            f"{target_durability} with MTTF {self.node_mttf_hours}h and "
            f"re-replication {self.re_replication_hours}h"
        )
