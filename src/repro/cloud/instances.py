"""Instance types and instance lifecycle.

Prices and boot times are modelled on 2008-era EC2 (the paper's setting):
an m1.small at $0.10/hour booting in a couple of minutes.  Absolute values
only matter for the cost experiments' *ratios* (autoscaled vs. static), so
the defaults are round numbers documented here rather than hidden constants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict


class InstanceState(enum.Enum):
    """Lifecycle of a rented instance."""

    BOOTING = "booting"
    RUNNING = "running"
    HIBERNATED = "hibernated"
    TERMINATED = "terminated"


# Purchase options for a launch: reliable on-demand capacity, or spot
# capacity that is cheaper but revocable with a two-minute notice.
ON_DEMAND = "on_demand"
SPOT = "spot"
PURCHASE_OPTIONS = (ON_DEMAND, SPOT)


@dataclass(frozen=True)
class InstanceType:
    """A rentable machine class.

    Attributes:
        name: type label (e.g. ``m1.small``).
        hourly_cost: dollars per machine-hour, billed per started hour.
        boot_delay: seconds from the rent request until the instance is usable.
        capacity_ops_per_sec: sustainable storage-request rate when used as a
            storage node; this is how the capacity planner converts "ops/sec
            needed" into "instances needed".
        billing_increment: billing granularity in seconds.  On-demand rentals
            keep EC2's classic per-started-hour charging (3600 s); spot
            leases bill per started minute (see
            :data:`repro.cloud.market.SPOT_BILLING_INCREMENT`).
    """

    name: str
    hourly_cost: float
    boot_delay: float
    capacity_ops_per_sec: float
    billing_increment: float = 3600.0

    def __post_init__(self) -> None:
        if self.hourly_cost < 0:
            raise ValueError("hourly cost must be non-negative")
        if self.boot_delay < 0:
            raise ValueError("boot delay must be non-negative")
        if self.capacity_ops_per_sec <= 0:
            raise ValueError("capacity must be positive")
        if self.billing_increment <= 0:
            raise ValueError("billing increment must be positive")


INSTANCE_TYPES: Dict[str, InstanceType] = {
    "m1.small": InstanceType(
        name="m1.small", hourly_cost=0.10, boot_delay=120.0, capacity_ops_per_sec=1000.0
    ),
    "m1.large": InstanceType(
        name="m1.large", hourly_cost=0.40, boot_delay=150.0, capacity_ops_per_sec=4500.0
    ),
    "m1.xlarge": InstanceType(
        name="m1.xlarge", hourly_cost=0.80, boot_delay=180.0, capacity_ops_per_sec=9500.0
    ),
}


@dataclass
class Instance:
    """One rented machine.

    Billing lives entirely on the instance's :class:`~repro.cloud.billing.Lease`
    (the pool opens one per rental period, so a hibernate/resume cycle is two
    leases); the instance itself only tracks lifecycle state.
    """

    instance_id: str
    instance_type: InstanceType
    purchase_option: str = ON_DEMAND
    state: InstanceState = InstanceState.BOOTING

    def mark_running(self) -> None:
        """Transition from BOOTING to RUNNING (idempotent once terminated-checked)."""
        if self.state is InstanceState.TERMINATED:
            raise ValueError(f"instance {self.instance_id} already terminated")
        self.state = InstanceState.RUNNING

    def hibernate(self) -> None:
        """Freeze a running instance: state preserved, billing stopped."""
        if self.state is not InstanceState.RUNNING:
            raise ValueError(
                f"instance {self.instance_id} cannot hibernate from {self.state.value}")
        self.state = InstanceState.HIBERNATED

    def begin_resume(self) -> None:
        """Start waking a hibernated instance (a short boot follows)."""
        if self.state is not InstanceState.HIBERNATED:
            raise ValueError(
                f"instance {self.instance_id} cannot resume from {self.state.value}")
        self.state = InstanceState.BOOTING

    def terminate(self) -> None:
        """Stop the instance; billing stops at the end of the started increment."""
        if self.state is InstanceState.TERMINATED:
            return
        self.state = InstanceState.TERMINATED

    def is_usable(self) -> bool:
        """True when the instance can serve traffic."""
        return self.state is InstanceState.RUNNING
