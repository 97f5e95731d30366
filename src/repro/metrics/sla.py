"""SLA attainment accounting.

An SLA in SCADS is of the form "P percent of requests of type T must succeed
within L seconds".  :class:`OpRecorder` records every client operation once
and answers that question three ways from the one log: per reporting window
(what the provisioning loop reacts to), per fixed clock window (what the
validation grid gates on) and for the whole experiment (what
``EXPERIMENTS.md`` reports).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.metrics.percentiles import PercentileEstimator


@dataclass
class SLAReport:
    """Attainment of one SLA over one interval."""

    op_type: str
    target_percentile: float
    target_latency: float
    observed_fraction_within: float
    observed_percentile_latency: float
    request_count: int
    satisfied: bool

    def merge(self, other: "SLAReport",
              merged_percentile_latency: Optional[float] = None) -> "SLAReport":
        """Combine two reports over disjoint request populations.

        ``observed_fraction_within`` combines exactly (it is a
        request-count-weighted mean).  The percentile latency of a union
        cannot be recovered from two summary percentiles; pass
        ``merged_percentile_latency`` computed from merged
        :class:`~repro.metrics.percentiles.PercentileEstimator` samples (what
        the sweep aggregator does) for the exact value, otherwise the
        pessimistic ``max`` of the two is reported.  ``satisfied`` is
        recomputed from the combined fraction, matching
        :meth:`OpRecorder.report`.
        """
        if (self.op_type != other.op_type
                or self.target_percentile != other.target_percentile
                or self.target_latency != other.target_latency):
            raise ValueError(
                "can only merge SLAReports for the same op type and target "
                f"({self.op_type}@p{self.target_percentile}<{self.target_latency}s vs "
                f"{other.op_type}@p{other.target_percentile}<{other.target_latency}s)"
            )
        total = self.request_count + other.request_count
        if total == 0:
            return SLAReport(
                op_type=self.op_type,
                target_percentile=self.target_percentile,
                target_latency=self.target_latency,
                observed_fraction_within=1.0,
                observed_percentile_latency=0.0,
                request_count=0,
                satisfied=True,
            )
        within = (self.observed_fraction_within * self.request_count
                  + other.observed_fraction_within * other.request_count) / total
        if merged_percentile_latency is None:
            merged_percentile_latency = max(self.observed_percentile_latency,
                                            other.observed_percentile_latency)
        return SLAReport(
            op_type=self.op_type,
            target_percentile=self.target_percentile,
            target_latency=self.target_latency,
            observed_fraction_within=within,
            observed_percentile_latency=merged_percentile_latency,
            request_count=total,
            satisfied=within >= self.target_percentile / 100.0,
        )


# --------------------------------------------------- fixed-clock compliance

#: Width of the fixed compliance windows every engine tracks (seconds of
#: simulated time).  Unlike :meth:`OpRecorder.close_window`, which only fires
#: when the provisioning monitor ticks (autoscale on), these windows are a
#: pure function of the sim clock — every run yields the same per-window
#: compliance series for the validation grid's SLA policy to gate on.
COMPLIANCE_WINDOW_SECONDS = 60.0


@dataclass(slots=True)
class ComplianceWindow:
    """Request-level SLA compliance counters for one fixed clock window."""

    start: float
    total: int
    within: int

    @property
    def fraction_within(self) -> float:
        return self.within / self.total if self.total else 1.0

    def compliant(self, target_percentile: float) -> bool:
        """Did this window meet "P percent of requests within L seconds"?"""
        return self.fraction_within >= target_percentile / 100.0


class WindowedComplianceTracker:
    """Per-window "requests within target latency" counts, always on.

    Two integers per (window, op type) — cheap enough for the hot request
    path — which is all the validation grid's windowed SLA policy needs:
    whether each window's within-fraction met the declared percentile.
    Failed requests count toward the window total but never as within.
    """

    __slots__ = ("window_seconds", "target_latency", "_buckets")

    def __init__(self, window_seconds: float, target_latency: float) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.window_seconds = window_seconds
        self.target_latency = target_latency
        self._buckets: dict = {}

    def observe(self, now: float, latency: Optional[float]) -> None:
        """Record one request; ``latency=None`` means the request failed."""
        index = int(now // self.window_seconds)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = [0, 0]
        bucket[0] += 1
        if latency is not None and latency <= self.target_latency:
            bucket[1] += 1

    def windows(self) -> List[ComplianceWindow]:
        """Traffic windows in clock order (empty windows are absent)."""
        return [
            ComplianceWindow(start=index * self.window_seconds,
                             total=total, within=within)
            for index, (total, within) in sorted(self._buckets.items())
        ]


def _linear_percentile(samples: np.ndarray, p: float) -> float:
    """``float(np.percentile(samples, p))``, bit for bit, for a non-empty 1-d
    array, which is left as it is.

    ``np.percentile`` imports ``numpy.ma`` on its first call, a module no
    other code here needs; this is numpy's own 'linear' method without it:
    the virtual index ``(n - 1) * (p / 100)``, its two neighbours taken by one
    partition, and numpy's ``_lerp``, which interpolates down from the upper
    neighbour once the weight reaches one half.  An index at the last
    position is the largest sample.
    """
    last = samples.shape[0] - 1
    index = last * (p / 100.0)
    if index >= last:
        return float(samples.max())
    below = int(index)
    neighbours = np.partition(samples, (below, below + 1))
    low = float(neighbours[below])
    high = float(neighbours[below + 1])
    weight = index - below
    if weight >= 0.5:
        return high - (high - low) * (1 - weight)
    return low + (high - low) * weight


# ------------------------------------------------------------ the one op log


class _OpLog:
    """Everything recorded for one operation type."""

    __slots__ = ("op_type", "sla", "failures", "window_failures", "all_time",
                 "window", "closed_off_miss_path", "compliance")

    def __init__(self, op_type: str, sla) -> None:
        self.op_type = op_type
        self.sla = sla
        self.failures = 0
        self.window_failures = 0
        self.all_time = PercentileEstimator()
        # Successful latencies since the last close_window(), indexed by the
        # miss_path flag: each sample lands in exactly one of the two arrays.
        self.window: Tuple[array, array] = (array("d"), array("d"))
        # Successes off the miss path in the windows closed so far.
        self.closed_off_miss_path = 0
        self.compliance = WindowedComplianceTracker(
            COMPLIANCE_WINDOW_SECONDS, sla.latency)

    def report(self, latencies: np.ndarray, failures: int) -> SLAReport:
        """Attainment over ``latencies`` (the successes) plus ``failures``."""
        sla = self.sla
        total = latencies.shape[0] + failures
        if latencies.shape[0]:
            within = float(np.sum(latencies <= sla.latency)) / total
            observed = _linear_percentile(latencies, sla.percentile)
        else:
            # Nothing succeeded: met vacuously with no traffic at all,
            # missed outright when every request failed.
            within = 0.0 if total else 1.0
            observed = float("inf") if total else 0.0
        return SLAReport(
            op_type=self.op_type,
            target_percentile=sla.percentile,
            target_latency=sla.latency,
            observed_fraction_within=within,
            observed_percentile_latency=observed,
            request_count=total,
            satisfied=within >= sla.percentile / 100.0,
        )


class OpRecorder:
    """The one log of client operations; every SLA number is a view of it.

    ``slas`` maps an operation type to its target (anything with
    ``percentile`` and ``latency``, e.g. a
    :class:`~repro.core.consistency.spec.PerformanceSLA`).  Per type the
    recorder keeps the failure count, the all-time
    :class:`~repro.metrics.percentiles.PercentileEstimator`, the successful
    samples since the last :meth:`close_window` (and how many closed windows
    held off the miss path) and the fixed-clock compliance buckets; attempt
    counts, reports and percentiles are derived.  Every latency sample, in
    the estimator and in the window buffers, is a packed double in an
    ``array('d')``: 8 bytes each instead of a float object per operation.
    """

    def __init__(self, slas: Mapping[str, object]) -> None:
        self._logs: Dict[str, _OpLog] = {
            op_type: _OpLog(op_type, sla) for op_type, sla in slas.items()
        }

    def record(self, op_type: str, now: float, latency: Optional[float],
               success: bool = True, miss_path: bool = False) -> None:
        """Record one operation outcome at simulated time ``now``.

        Failed operations count against attainment; their latency, if any,
        is ignored.  ``miss_path`` marks a success the storage cluster served
        behind a cache tier; :meth:`close_window` reports the percentile of
        those reads on their own, apart from the cache hits they blend with.
        """
        log = self._logs[op_type]
        if success:
            if latency is None:
                raise ValueError("successful requests must report a latency")
            log.all_time.add(latency)  # rejects a negative sample before it counts
            log.window[miss_path].append(latency)
        else:
            log.failures += 1
            log.window_failures += 1
            latency = None
        log.compliance.observe(now, latency)

    def close_window(self) -> Tuple[Dict[str, SLAReport], Optional[float]]:
        """Report on everything since the previous close and start a new window.

        Returns the window's report per operation type (``request_count`` is
        the window's attempt count) and the read SLA's percentile over only
        the reads recorded ``miss_path`` — None when there were none.  Both
        are control inputs (the latency and sizing models train on them), so
        neither formula may change: numpy's 'linear' percentile over the
        window's samples for the report (:func:`_linear_percentile`, equal to
        ``np.percentile`` bit for bit), the estimator's percentile for the
        miss path.
        """
        reports: Dict[str, SLAReport] = {}
        cluster_read_percentile: Optional[float] = None
        for op_type, log in self._logs.items():
            others, missed = log.window
            if op_type == "read" and missed:
                miss_path = PercentileEstimator()
                miss_path.extend(missed)
                cluster_read_percentile = miss_path.percentile(log.sla.percentile)
            reports[op_type] = log.report(
                np.asarray(others + missed, dtype=float), log.window_failures)
            log.closed_off_miss_path += len(others)
            log.window = (array("d"), array("d"))
            log.window_failures = 0
        return reports, cluster_read_percentile

    def report(self, op_type: str) -> SLAReport:
        """Attainment over every operation of one type since construction."""
        log = self._logs[op_type]
        return log.report(log.all_time.sorted_samples(), log.failures)

    def compliance_windows(self, op_type: str) -> List[ComplianceWindow]:
        """The fixed-clock compliance series of one operation type."""
        return self._logs[op_type].compliance.windows()

    def counts(self) -> Dict[str, int]:
        """Cumulative attempts (successes and failures) per operation type."""
        return {op_type: len(log.all_time) + log.failures
                for op_type, log in self._logs.items()}

    def failure_counts(self) -> Dict[str, int]:
        """Cumulative failed attempts per operation type."""
        return {op_type: log.failures for op_type, log in self._logs.items()}

    def off_miss_path_count(self, op_type: str) -> int:
        """Successes of one operation type recorded without ``miss_path``
        since construction (behind a cache tier: the cache-served ones)."""
        log = self._logs[op_type]
        return log.closed_off_miss_path + len(log.window[False])

    def op_types(self) -> List[str]:
        """Operation types with at least one successful sample."""
        return sorted(op_type for op_type, log in self._logs.items()
                      if len(log.all_time))

    def all_time(self, op_type: str) -> PercentileEstimator:
        """All-time latency estimator of an operation type's successes."""
        log = self._logs.get(op_type)
        if log is None or not len(log.all_time):
            raise KeyError(f"no latencies recorded for operation type {op_type!r}")
        return log.all_time
