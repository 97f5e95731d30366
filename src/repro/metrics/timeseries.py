"""Simple time-series recording for experiment output.

Benchmarks record (time, value) series — server counts, request rates, window
percentiles — and print or summarise them the way the paper's figures do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


@dataclass
class TimeSeries:
    """An append-only (timestamp, value) series."""

    name: str
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, time: float, value: float) -> None:
        """Append one observation; timestamps must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"timestamps must be non-decreasing: {time} after {self.times[-1]}"
            )
        self.times.append(float(time))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def max(self) -> float:
        if not self.values:
            raise ValueError(f"time series {self.name!r} is empty")
        return float(np.max(self.values))

    def min(self) -> float:
        if not self.values:
            raise ValueError(f"time series {self.name!r} is empty")
        return float(np.min(self.values))

    def mean(self) -> float:
        if not self.values:
            raise ValueError(f"time series {self.name!r} is empty")
        return float(np.mean(self.values))

    def value_at(self, time: float) -> float:
        """Step-function lookup: the last value recorded at or before ``time``."""
        if not self.times:
            raise ValueError(f"time series {self.name!r} is empty")
        idx = int(np.searchsorted(self.times, time, side="right")) - 1
        if idx < 0:
            raise ValueError(f"no observation at or before time {time}")
        return self.values[idx]

    def integrate(self) -> float:
        """Time-weighted integral of the step function (e.g. machine-seconds)."""
        if len(self.times) < 2:
            return 0.0
        total = 0.0
        for i in range(len(self.times) - 1):
            total += self.values[i] * (self.times[i + 1] - self.times[i])
        return total


class TimeSeriesRecorder:
    """A named collection of time series sharing one clock."""

    def __init__(self) -> None:
        self._series: Dict[str, TimeSeries] = {}

    def record(self, name: str, time: float, value: float) -> None:
        """Append an observation to the named series (creating it on first use)."""
        if name not in self._series:
            self._series[name] = TimeSeries(name=name)
        self._series[name].append(time, value)

    def get(self, name: str) -> TimeSeries:
        """Return the named series; raises KeyError if it was never recorded."""
        return self._series[name]

    def __contains__(self, name: str) -> bool:
        return name in self._series
