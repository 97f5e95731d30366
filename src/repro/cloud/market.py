"""A deterministic spot market for interruptible instances.

Models the three behaviours that make spot capacity *cheap but revocable*:

- **Price trace.** Each instance class gets a mean-reverting geometric random
  walk (one step per :data:`PRICE_INTERVAL`), seeded from the simulator's RNG
  registry under its own stream name, so the whole trace is a pure function
  of ``(seed, instance class, step index)`` — adding the market never
  perturbs any other stream, which is what keeps paired-seed sweeps
  byte-identical.  Occasional spikes push the price above the on-demand
  rate, the signal for the fleet layer to fall back to on-demand capacity.
- **Capacity droughts.** Random windows during which the market refuses new
  spot launches and revokes running spot instances — the "capacity
  reclaimed" half of real spot behaviour, independent of price.
- **Interruption notices.** When a class becomes unavailable (drought, price
  at/above on-demand, or a forced storm), every registered instance of that
  class receives a notice with :data:`NOTICE_SECONDS` of warning.  An
  instance still registered at its deadline is forcibly revoked via the
  pool's revoke hook (hibernation) — graceful drain must finish first.

``interruption_storm`` forces a drought window with immediate correlated
notices, the failure injector's entry point for revocation storms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cloud.instances import InstanceType
from repro.sim.simulator import Simulator

# Billing granularity for spot leases (EC2 bills spot per started minute).
SPOT_BILLING_INCREMENT = 60.0

# Warning between an interruption notice and the forced revocation.
NOTICE_SECONDS = 120.0

# Price-trace step width in seconds.
PRICE_INTERVAL = 60.0


@dataclass(slots=True)
class InterruptionNotice:
    """One delivered interruption notice."""

    instance_id: str
    deadline: float
    reason: str  # "drought", "price", or "storm"


class SpotMarket:
    """Deterministic spot price traces, droughts, and interruption delivery."""

    # Spot trades at roughly a third of on-demand when calm (the 2009-era
    # discount the paper's cost argument would have seen).
    BASE_DISCOUNT = 0.32
    # Mean-reversion strength and per-step volatility of log-price.
    REVERSION = 0.15
    VOLATILITY = 0.08
    # Per-step probability of a demand spike and its multiplier range.
    SPIKE_PROBABILITY = 0.01
    SPIKE_RANGE = (2.5, 4.5)
    # Per-step probability of entering a capacity drought, and its length
    # range in steps.
    DROUGHT_PROBABILITY = 0.004
    DROUGHT_STEPS = (3, 10)

    def __init__(self, simulator: Simulator) -> None:
        self._sim = simulator
        self._types: Dict[str, InstanceType] = {}
        self._prices: Dict[str, List[float]] = {}
        self._droughts: Dict[str, List[bool]] = {}
        self._drought_left: Dict[str, int] = {}
        self._rngs: Dict[str, object] = {}
        # instance_id -> (type_name, on_notice(instance_id, deadline, reason))
        self._registered: Dict[str, Tuple[str, Callable[[str, float, str], None]]] = {}
        self._notices: Dict[str, InterruptionNotice] = {}
        # Forced (storm) drought windows: list of (start, end).
        self._storms: List[Tuple[float, float]] = []
        self._on_revoke: Optional[Callable[[str], None]] = None
        self._ticking = False

    # ------------------------------------------------------------------- setup

    def add_instance_type(self, instance_type: InstanceType) -> None:
        """Register a class; its price trace starts at the base discount."""
        name = instance_type.name
        if name in self._types:
            return
        self._types[name] = instance_type
        self._prices[name] = [instance_type.hourly_cost * self.BASE_DISCOUNT]
        self._droughts[name] = [False]
        self._drought_left[name] = 0
        self._rngs[name] = self._sim.random.get(f"spot-market:{name}")

    def set_revoke_hook(self, hook: Callable[[str], None]) -> None:
        """Called with an instance id whose notice deadline expired un-drained."""
        self._on_revoke = hook

    def start(self) -> None:
        """Begin periodic interruption checks (one per price step)."""
        if self._ticking:
            return
        self._ticking = True
        self._sim.schedule_periodic(PRICE_INTERVAL, self._tick, name="spot-market-tick")

    # ------------------------------------------------------------------- trace

    def _ensure_steps(self, type_name: str, step: int) -> None:
        """Lazily extend the price/drought trace through ``step``.

        Draws a fixed four variates per step so the trace depends only on the
        step index, never on the query pattern that forced the extension.
        """
        prices = self._prices[type_name]
        droughts = self._droughts[type_name]
        rng = self._rngs[type_name]
        instance_type = self._types[type_name]
        base = instance_type.hourly_cost * self.BASE_DISCOUNT
        while len(prices) <= step:
            z = rng.normal()
            u_spike = rng.uniform()
            u_drought = rng.uniform()
            u_len = rng.uniform()
            log_prev = math.log(max(prices[-1], 1e-6))
            log_base = math.log(base)
            log_next = (log_prev
                        + self.REVERSION * (log_base - log_prev)
                        + self.VOLATILITY * z)
            price = math.exp(log_next)
            if u_spike < self.SPIKE_PROBABILITY:
                lo, hi = self.SPIKE_RANGE
                price *= lo + (hi - lo) * u_len
            prices.append(min(price, instance_type.hourly_cost * 10.0))
            left = self._drought_left[type_name]
            if left > 0:
                droughts.append(True)
                self._drought_left[type_name] = left - 1
            elif u_drought < self.DROUGHT_PROBABILITY:
                lo_s, hi_s = self.DROUGHT_STEPS
                length = lo_s + int(u_len * (hi_s - lo_s + 1))
                droughts.append(True)
                self._drought_left[type_name] = max(length - 1, 0)
            else:
                droughts.append(False)

    def _step_for(self, t: float) -> int:
        return max(int(t // PRICE_INTERVAL), 0)

    def price(self, type_name: str, at: Optional[float] = None) -> float:
        """Hourly spot price of a class at time ``at`` (default: now)."""
        if type_name not in self._types:
            raise KeyError(f"unknown instance class {type_name!r}")
        t = self._sim.now if at is None else at
        step = self._step_for(t)
        self._ensure_steps(type_name, step)
        return self._prices[type_name][step]

    def price_fn(self, type_name: str) -> Callable[[float], float]:
        """The price trace as a pure callable, for market-rate leases."""
        return lambda t: self.price(type_name, at=t)

    def in_drought(self, type_name: str) -> bool:
        """True during a capacity drought (random or storm-forced)."""
        t = self._sim.now
        for start, end in self._storms:
            if start <= t < end:
                return True
        step = self._step_for(t)
        self._ensure_steps(type_name, step)
        return self._droughts[type_name][step]

    def available(self, type_name: str) -> bool:
        """True when new spot capacity of this class can be had profitably:
        no drought and the spot price is below the on-demand rate."""
        if type_name not in self._types:
            return False
        if self.in_drought(type_name):
            return False
        return self.price(type_name) < self._types[type_name].hourly_cost

    # ---------------------------------------------------------- registration

    def register(self, instance_id: str, type_name: str,
                 on_notice: Callable[[str, float, str], None]) -> None:
        """Track a running spot instance; ``on_notice`` is called with
        ``(instance_id, deadline, reason)`` when the market revokes it."""
        if type_name not in self._types:
            raise KeyError(f"unknown instance class {type_name!r}")
        self._registered[instance_id] = (type_name, on_notice)

    def unregister(self, instance_id: str) -> None:
        """Stop tracking an instance (drained, hibernated, or terminated)."""
        self._registered.pop(instance_id, None)
        self._notices.pop(instance_id, None)

    # ------------------------------------------------------------ revocation

    def _tick(self) -> None:
        for instance_id, (type_name, _) in list(self._registered.items()):
            if instance_id in self._notices:
                continue
            if self.in_drought(type_name):
                self._issue_notice(instance_id, "drought")
            elif self.price(type_name) >= self._types[type_name].hourly_cost:
                self._issue_notice(instance_id, "price")

    def _issue_notice(self, instance_id: str, reason: str) -> None:
        entry = self._registered.get(instance_id)
        if entry is None or instance_id in self._notices:
            return
        on_notice = entry[1]
        now = self._sim.now
        notice = InterruptionNotice(
            instance_id=instance_id,
            deadline=now + NOTICE_SECONDS,
            reason=reason,
        )
        self._notices[instance_id] = notice
        self._sim.schedule(NOTICE_SECONDS, lambda: self._enforce_deadline(instance_id),
                           name=f"spot-revoke:{instance_id}")
        on_notice(instance_id, notice.deadline, reason)

    def _enforce_deadline(self, instance_id: str) -> None:
        """Forcibly revoke an instance that outlived its notice."""
        if instance_id not in self._notices or instance_id not in self._registered:
            return  # drained/hibernated in time
        self._registered.pop(instance_id, None)
        self._notices.pop(instance_id, None)
        if self._on_revoke is not None:
            self._on_revoke(instance_id)

    def interruption_storm(self, at: float, duration: float) -> None:
        """Force a drought window with immediate correlated revocations.

        Every spot instance registered when the storm lands gets its notice
        at ``at``; instances launched during the window are refused (the
        drought makes ``available`` False) so the fleet layer falls back to
        on-demand until the storm passes.
        """
        if duration <= 0:
            raise ValueError("storm duration must be positive")
        self._storms.append((at, at + duration))

        def land() -> None:
            for instance_id in list(self._registered.keys()):
                self._issue_notice(instance_id, "storm")

        self._sim.schedule_at(at, land, name="spot-storm")
