"""The elastic instance pool.

The provisioning controller asks the pool for more machines (paying the boot
delay before they become usable) or releases machines it no longer needs.
The pool records a full time series of running-instance counts so the Figure-1
reproduction can print the same "servers over time" curve the paper shows for
Animoto.

With a :class:`~repro.cloud.market.SpotMarket` attached, launches may name a
purchase option: ``spot`` instances bill per started minute at the market
rate, can be interrupted with a two-minute notice, and support
hibernate/resume — billing stops while hibernated and a resume pays only a
short wake delay instead of a full boot.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.cloud.billing import BillingMeter
from repro.cloud.instances import (
    INSTANCE_TYPES,
    ON_DEMAND,
    PURCHASE_OPTIONS,
    SPOT,
    Instance,
    InstanceState,
    InstanceType,
)
from repro.cloud.market import SPOT_BILLING_INCREMENT, SpotMarket
from repro.metrics.timeseries import TimeSeries
from repro.sim.simulator import Simulator

# Waking a hibernated instance is much faster than a cold boot: the image is
# already laid down, only the guest needs thawing.
RESUME_DELAY = 15.0


class SpotUnavailableError(RuntimeError):
    """Raised when a spot launch/resume is refused by the market."""


class InstancePool:
    """Rents and releases simulated utility-computing instances."""

    def __init__(
        self,
        simulator: Simulator,
        instance_type: InstanceType = INSTANCE_TYPES["m1.small"],
        max_instances: int = 10_000,
    ) -> None:
        if max_instances < 1:
            raise ValueError("max_instances must be at least 1")
        self._sim = simulator
        self.instance_type = instance_type
        self.max_instances = max_instances
        self.billing = BillingMeter()
        self._instances: Dict[str, Instance] = {}
        self._counter = itertools.count()
        self._count_series = TimeSeries(name="running-instances")
        self._count_series.append(simulator.now, 0.0)
        self._market: Optional[SpotMarket] = None
        # Fleet-layer hook: called with (instance, deadline, reason) when the
        # market delivers an interruption notice for one of our instances.
        self.on_spot_interruption: Optional[Callable[[Instance, float, str], None]] = None

    # ------------------------------------------------------------------ market

    def attach_market(self, market: SpotMarket) -> None:
        """Enable spot purchases against ``market`` for this pool's class."""
        market.add_instance_type(self.instance_type)
        market.set_revoke_hook(self._force_revoke)
        self._market = market

    @property
    def market(self) -> Optional[SpotMarket]:
        return self._market

    def spot_available(self) -> bool:
        """True when the market will accept a spot launch right now."""
        return self._market is not None and self._market.available(self.instance_type.name)

    # ----------------------------------------------------------------- renting

    def launch(self, count: int = 1,
               on_ready: Optional[Callable[[Instance], None]] = None,
               boot_delay_override: Optional[float] = None,
               purchase_option: str = ON_DEMAND) -> List[Instance]:
        """Request ``count`` new instances.

        Each instance becomes usable after its type's boot delay, at which
        point ``on_ready`` is invoked (the provisioner uses this to attach the
        machine to the storage cluster).  ``boot_delay_override`` exists so a
        controller can adopt machines that are already running (delay 0) at
        experiment start.  Raises ``ValueError`` when the request would exceed
        the pool cap, and :class:`SpotUnavailableError` when ``spot`` is
        requested without an attached market or during a drought/price spike.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if boot_delay_override is not None and boot_delay_override < 0:
            raise ValueError("boot_delay_override must be non-negative")
        if purchase_option not in PURCHASE_OPTIONS:
            raise ValueError(f"unknown purchase option {purchase_option!r}")
        if self.active_count() + self.booting_count() + count > self.max_instances:
            raise ValueError(
                f"launching {count} instances would exceed the pool cap of {self.max_instances}"
            )
        if purchase_option == SPOT:
            if self._market is None:
                raise SpotUnavailableError("no spot market attached to this pool")
            if not self._market.available(self.instance_type.name):
                raise SpotUnavailableError(
                    f"spot capacity for {self.instance_type.name} unavailable "
                    "(drought or price at/above on-demand)")
        boot_delay = (
            self.instance_type.boot_delay if boot_delay_override is None else boot_delay_override
        )
        launched = []
        for _ in range(count):
            instance = Instance(
                instance_id=f"i-{next(self._counter):06d}",
                instance_type=self.instance_type,
                purchase_option=purchase_option,
            )
            self._instances[instance.instance_id] = instance
            self._open_lease(instance)
            if purchase_option == SPOT:
                self._register_with_market(instance)
            launched.append(instance)

            def make_ready(inst: Instance) -> Callable[[], None]:
                def ready() -> None:
                    if inst.state is not InstanceState.BOOTING:
                        return  # terminated or hibernated while booting
                    inst.mark_running()
                    self._record_count()
                    if on_ready is not None:
                        on_ready(inst)

                return ready

            if boot_delay == 0:
                make_ready(instance)()
            else:
                self._sim.schedule(boot_delay, make_ready(instance),
                                   name=f"boot:{instance.instance_id}")
        self._record_count()
        return launched

    def _open_lease(self, instance: Instance) -> None:
        if instance.purchase_option == SPOT:
            assert self._market is not None
            self.billing.open_lease(
                instance.instance_id, self.instance_type, self._sim.now,
                purchase_option=SPOT,
                billing_increment=SPOT_BILLING_INCREMENT,
                price_per_hour=self._market.price_fn(self.instance_type.name),
            )
        else:
            self.billing.open_lease(
                instance.instance_id, self.instance_type, self._sim.now,
                purchase_option=ON_DEMAND,
            )

    def _register_with_market(self, instance: Instance) -> None:
        assert self._market is not None

        def notify(instance_id: str, deadline: float, reason: str) -> None:
            inst = self._instances.get(instance_id)
            if inst is None or inst.state is InstanceState.TERMINATED:
                return
            if self.on_spot_interruption is not None:
                self.on_spot_interruption(inst, deadline, reason)

        self._market.register(instance.instance_id, self.instance_type.name, notify)

    def _force_revoke(self, instance_id: str) -> None:
        """Market deadline enforcement: hibernate an un-drained spot instance."""
        instance = self._instances.get(instance_id)
        if instance is None or instance.state is not InstanceState.RUNNING:
            return
        self.hibernate(instance_id)

    def terminate(self, instance_id: str) -> None:
        """Release one instance (billing charges the started increment)."""
        instance = self._instances.get(instance_id)
        if instance is None:
            raise KeyError(f"unknown instance {instance_id!r}")
        if instance.state is InstanceState.TERMINATED:
            return
        was_hibernated = instance.state is InstanceState.HIBERNATED
        instance.terminate()
        if not was_hibernated:  # a hibernated instance's lease is already closed
            self.billing.close_lease(instance_id, self._sim.now)
        if self._market is not None:
            self._market.unregister(instance_id)
        self._record_count()

    # -------------------------------------------------------------- hibernation

    def hibernate(self, instance_id: str) -> Instance:
        """Freeze a running instance: lease closes, state is preserved."""
        instance = self._instances.get(instance_id)
        if instance is None:
            raise KeyError(f"unknown instance {instance_id!r}")
        instance.hibernate()
        self.billing.close_lease(instance_id, self._sim.now)
        if self._market is not None:
            self._market.unregister(instance_id)
        self._record_count()
        return instance

    def resume(self, instance_id: str,
               on_ready: Optional[Callable[[Instance], None]] = None) -> Instance:
        """Wake a hibernated instance; a fresh lease opens immediately.

        Spot instances can only resume when the market will have them back
        (:class:`SpotUnavailableError` otherwise).  ``on_ready`` fires after
        the short :data:`RESUME_DELAY`.
        """
        instance = self._instances.get(instance_id)
        if instance is None:
            raise KeyError(f"unknown instance {instance_id!r}")
        if instance.state is not InstanceState.HIBERNATED:
            raise ValueError(f"instance {instance_id!r} is not hibernated")
        if instance.purchase_option == SPOT:
            if self._market is None or not self._market.available(self.instance_type.name):
                raise SpotUnavailableError(
                    f"cannot resume {instance_id!r}: spot capacity unavailable")
        instance.begin_resume()
        self._open_lease(instance)
        if instance.purchase_option == SPOT:
            self._register_with_market(instance)

        def ready() -> None:
            if instance.state is not InstanceState.BOOTING:
                return
            instance.mark_running()
            self._record_count()
            if on_ready is not None:
                on_ready(instance)

        self._sim.schedule(RESUME_DELAY, ready, name=f"resume:{instance_id}")
        self._record_count()
        return instance

    # ------------------------------------------------------------------ queries

    def instances(self, state: Optional[InstanceState] = None) -> List[Instance]:
        """All instances, optionally filtered by state."""
        if state is None:
            return list(self._instances.values())
        return [i for i in self._instances.values() if i.state is state]

    def get(self, instance_id: str) -> Optional[Instance]:
        return self._instances.get(instance_id)

    def active_count(self) -> int:
        """Instances currently able to serve traffic."""
        return len(self.instances(InstanceState.RUNNING))

    def booting_count(self) -> int:
        """Instances paid for but not yet usable."""
        return len(self.instances(InstanceState.BOOTING))

    def running_or_booting(self) -> List[Instance]:
        """Instances that are currently being paid for."""
        return [
            i for i in self._instances.values()
            if i.state in (InstanceState.RUNNING, InstanceState.BOOTING)
        ]

    def count_series(self) -> TimeSeries:
        """Time series of the number of billed (running or booting) instances."""
        return self._count_series

    def _record_count(self) -> None:
        self._count_series.append(self._sim.now, float(len(self.running_or_booting())))

    # ------------------------------------------------------------------ billing

    def total_cost(self) -> float:
        """Dollars accrued so far (open leases billed up to the current time)."""
        return self.billing.total_cost(self._sim.now)

    def total_machine_hours(self) -> float:
        """Machine-hours accrued so far."""
        return self.billing.total_machine_hours(self._sim.now)

    def cost_by_purchase_option(self) -> Dict[str, float]:
        """Dollars split by purchase option."""
        return self.billing.cost_by_purchase_option(self._sim.now)
