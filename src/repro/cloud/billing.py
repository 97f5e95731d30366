"""Machine-hour billing, charged per started increment per instance.

On-demand leases keep EC2's classic per-started-hour charging; spot leases
bill per started minute at the market rate prevailing over each increment
(see :mod:`repro.cloud.market`).  A lease is the single source of billing
truth: :class:`~repro.cloud.instances.Instance` carries no cost logic, and a
hibernate/resume cycle is simply two leases on the same instance id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cloud.instances import ON_DEMAND, InstanceType


@dataclass
class Lease:
    """One instance's rental period.

    Attributes:
        purchase_option: ``"on_demand"`` or ``"spot"``.
        billing_increment: billing granularity in seconds; elapsed time is
            rounded up to whole started increments.
        price_per_hour: for spot leases, the market's hourly price as a
            function of simulated time — each started increment is charged at
            the price in force at its start.  ``None`` bills the instance
            type's flat on-demand rate.
    """

    instance_id: str
    instance_type: InstanceType
    start: float
    end: Optional[float] = None
    purchase_option: str = ON_DEMAND
    billing_increment: Optional[float] = None
    price_per_hour: Optional[Callable[[float], float]] = field(
        default=None, repr=False, compare=False)

    def _increment(self) -> float:
        if self.billing_increment is not None:
            return self.billing_increment
        return self.instance_type.billing_increment

    def machine_hours(self, now: float) -> float:
        """Billable machine-hours: elapsed time rounded up to whole increments."""
        end = self.end if self.end is not None else now
        elapsed = max(end - self.start, 0.0)
        if elapsed <= 0:
            return 0.0
        increment = self._increment()
        return math.ceil(elapsed / increment) * increment / 3600.0

    def cost(self, now: float) -> float:
        """Dollars owed for this lease so far.

        Flat-rate leases are hours times the type's hourly rate.  Market-rate
        leases walk the started increments and charge each at the hourly
        price in force when the increment began — the spot analogue of EC2
        repricing a running instance as the market moves.
        """
        if self.price_per_hour is None:
            return self.machine_hours(now) * self.instance_type.hourly_cost
        end = self.end if self.end is not None else now
        elapsed = max(end - self.start, 0.0)
        if elapsed <= 0:
            return 0.0
        increment = self._increment()
        increments = math.ceil(elapsed / increment)
        hours_per_increment = increment / 3600.0
        return sum(
            self.price_per_hour(self.start + i * increment) * hours_per_increment
            for i in range(increments)
        )


class BillingMeter:
    """Accumulates leases and answers cost queries.

    An instance may hold many leases over its life (one per rental period —
    hibernation closes a lease, resume opens a fresh one), but never more
    than one *open* lease at a time.
    """

    def __init__(self) -> None:
        self._leases: Dict[str, List[Lease]] = {}

    def open_lease(
        self,
        instance_id: str,
        instance_type: InstanceType,
        now: float,
        purchase_option: str = ON_DEMAND,
        billing_increment: Optional[float] = None,
        price_per_hour: Optional[Callable[[float], float]] = None,
    ) -> Lease:
        """Start billing an instance."""
        history = self._leases.setdefault(instance_id, [])
        if history and history[-1].end is None:
            raise ValueError(f"instance {instance_id!r} already has an open lease")
        lease = Lease(
            instance_id=instance_id,
            instance_type=instance_type,
            start=now,
            purchase_option=purchase_option,
            billing_increment=billing_increment,
            price_per_hour=price_per_hour,
        )
        history.append(lease)
        return lease

    def close_lease(self, instance_id: str, now: float) -> Lease:
        """Stop billing an instance (the started increment is still charged)."""
        history = self._leases.get(instance_id)
        if not history:
            raise KeyError(f"no lease for instance {instance_id!r}")
        lease = history[-1]
        if lease.end is None:
            lease.end = now
        return lease

    def leases(self) -> List[Lease]:
        """Every lease ever opened, flattened in open order per instance."""
        return [lease for history in self._leases.values() for lease in history]

    def total_machine_hours(self, now: float) -> float:
        """Machine-hours across every lease, open leases billed up to ``now``."""
        return sum(lease.machine_hours(now) for lease in self.leases())

    def total_cost(self, now: float) -> float:
        """Dollars across every lease, open leases billed up to ``now``."""
        return sum(lease.cost(now) for lease in self.leases())

    def cost_by_purchase_option(self, now: float) -> Dict[str, float]:
        """Dollars split by purchase option (mixed-fleet reporting)."""
        out: Dict[str, float] = {}
        for lease in self.leases():
            out[lease.purchase_option] = out.get(lease.purchase_option, 0.0) + lease.cost(now)
        return out
