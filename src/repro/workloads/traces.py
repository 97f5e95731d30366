"""Load traces: request rate as a function of simulated time.

Each trace answers "what aggregate request rate (ops/sec) does the site see at
time t?".  The shapes reproduce the load patterns the paper names:

* :class:`AnimotoViralTrace` — Figure 1's viral growth, where load grows by
  nearly two orders of magnitude over three days.
* :class:`DiurnalTrace` — ordinary day/night cycles, the scale-down economics
  workload.
* :class:`HalloweenSpikeTrace` — a sudden, write-heavy event spike layered on
  a baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class LoadTrace:
    """Base class: a deterministic request-rate curve over simulated time."""

    def rate_at(self, time: float) -> float:
        """Aggregate request rate (ops/sec) at simulated time ``time``."""
        raise NotImplementedError


@dataclass
class ConstantTrace(LoadTrace):
    """A flat request rate."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be non-negative")

    def rate_at(self, time: float) -> float:
        return self.rate


@dataclass
class DiurnalTrace(LoadTrace):
    """A sinusoidal day/night cycle.

    Rate oscillates between ``base_rate`` and ``peak_rate`` with a period of
    one day, peaking at ``peak_hour`` (default 20:00 — evening traffic).
    """

    base_rate: float
    peak_rate: float
    peak_hour: float = 20.0
    period_hours: float = 24.0

    def __post_init__(self) -> None:
        if self.base_rate < 0 or self.peak_rate < self.base_rate:
            raise ValueError("need 0 <= base_rate <= peak_rate")
        if self.period_hours <= 0:
            raise ValueError("period must be positive")

    def rate_at(self, time: float) -> float:
        hours = time / 3600.0
        phase = 2.0 * math.pi * (hours - self.peak_hour) / self.period_hours
        # cos(0) = 1 at the peak hour.
        amplitude = (self.peak_rate - self.base_rate) / 2.0
        midpoint = (self.peak_rate + self.base_rate) / 2.0
        return midpoint + amplitude * math.cos(phase)


@dataclass
class AnimotoViralTrace(LoadTrace):
    """Figure 1's viral growth: exponential ramp over ~3 days, then plateau.

    Animoto went from about 50 servers to 3 400+ in three days.  Interpreting
    one 2008-era server as roughly ``rate_per_server_equivalent`` ops/sec of
    storage traffic gives a load curve with the same two-orders-of-magnitude
    ramp; the reproduction only depends on the *ratio* between start and peak.
    """

    start_rate: float = 500.0
    peak_multiplier: float = 68.0  # 3400 / 50
    ramp_duration: float = 3 * 86400.0
    ramp_start: float = 6 * 3600.0

    def __post_init__(self) -> None:
        if self.start_rate <= 0:
            raise ValueError("start_rate must be positive")
        if self.peak_multiplier < 1:
            raise ValueError("peak_multiplier must be >= 1")
        if self.ramp_duration <= 0:
            raise ValueError("ramp_duration must be positive")

    def rate_at(self, time: float) -> float:
        if time <= self.ramp_start:
            return self.start_rate
        progress = min((time - self.ramp_start) / self.ramp_duration, 1.0)
        # Exponential interpolation start -> start * multiplier.
        return self.start_rate * (self.peak_multiplier ** progress)


@dataclass
class HalloweenSpikeTrace(LoadTrace):
    """A sudden spike on top of a baseline, with a sharp rise and slower decay."""

    base_rate: float
    spike_multiplier: float = 5.0
    spike_start: float = 12 * 3600.0
    rise_duration: float = 1800.0
    hold_duration: float = 4 * 3600.0
    decay_duration: float = 6 * 3600.0

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if self.spike_multiplier < 1:
            raise ValueError("spike_multiplier must be >= 1")
        for name in ("rise_duration", "hold_duration", "decay_duration"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def rate_at(self, time: float) -> float:
        peak = self.base_rate * self.spike_multiplier
        rise_end = self.spike_start + self.rise_duration
        hold_end = rise_end + self.hold_duration
        decay_end = hold_end + self.decay_duration
        if time < self.spike_start or time >= decay_end:
            return self.base_rate
        if time < rise_end:
            progress = (time - self.spike_start) / self.rise_duration
            return self.base_rate + (peak - self.base_rate) * progress
        if time < hold_end:
            return peak
        progress = (time - hold_end) / self.decay_duration
        return peak - (peak - self.base_rate) * progress


@dataclass
class FlashCrowdTrace(LoadTrace):
    """A diurnal cycle with a flash crowd erupting on top of it.

    The validation grid's hardest mixed shape: ordinary day/night traffic
    (deep troughs the controller should scale down into) interrupted by a
    sudden crowd — a news link, a celebrity post — that rises in minutes,
    holds, and decays.  Expressed as one registered trace kind (rather than a
    nested composite) so scenario specs stay flat, human-readable data.
    """

    base_rate: float
    peak_rate: float
    period_hours: float = 24.0
    peak_hour: float = 20.0
    crowd_start: float = 12 * 3600.0
    crowd_multiplier: float = 4.0
    rise_duration: float = 300.0
    hold_duration: float = 1800.0
    decay_duration: float = 1800.0

    def __post_init__(self) -> None:
        self._diurnal = DiurnalTrace(
            base_rate=self.base_rate, peak_rate=self.peak_rate,
            peak_hour=self.peak_hour, period_hours=self.period_hours,
        )
        # The crowd multiplies the diurnal baseline at its start instant, so
        # the spike's absolute height tracks whatever the cycle was doing.
        crowd_base = self._diurnal.rate_at(self.crowd_start)
        self._crowd = HalloweenSpikeTrace(
            base_rate=crowd_base,
            spike_multiplier=self.crowd_multiplier,
            spike_start=self.crowd_start,
            rise_duration=self.rise_duration,
            hold_duration=self.hold_duration,
            decay_duration=self.decay_duration,
        )

    def rate_at(self, time: float) -> float:
        # The crowd trace contributes only its excess over its own baseline;
        # the diurnal curve supplies the ambient rate throughout.
        excess = self._crowd.rate_at(time) - self._crowd.base_rate
        return self._diurnal.rate_at(time) + excess
