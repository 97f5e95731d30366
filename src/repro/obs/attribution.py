"""Latency attribution: where did the worst operations' milliseconds go?

Takes the flat trace list a run produced and answers, per time window:
what was the p-th percentile of traced latencies, and how do the
worst-decile traces' on-path span kinds split that time?  This is the
"contention vs. capacity" measurement substrate ROADMAP direction 3
needs — a window whose worst ops are dominated by ``queue`` spans is
under-provisioned; one dominated by ``service`` with low queueing is
contended or mis-calibrated; ``dual_route``/``cache_miss`` markers
attribute tails to migrations and cold caches instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Dict, Iterable, List

from repro.obs.tracing import TraceRecord

# The percentile each window reports, and the share of its slowest traces
# whose span kinds make up the breakdown.
PERCENTILE = 99.0
WORST_FRACTION = 0.1


@dataclass(slots=True)
class WindowAttribution:
    """p99 + span-kind breakdown of the worst traces in one time window."""

    start: float
    end: float
    trace_count: int
    percentile: float
    percentile_latency: float
    worst_count: int
    kind_seconds: Dict[str, float] = field(default_factory=dict)

    def kind_fractions(self) -> Dict[str, float]:
        total = sum(self.kind_seconds.values())
        if total <= 0.0:
            return {kind: 0.0 for kind in self.kind_seconds}
        return {kind: seconds / total for kind, seconds in self.kind_seconds.items()}

    def describe(self) -> str:
        fractions = self.kind_fractions()
        parts = ", ".join(
            f"{kind} {fractions[kind] * 100:.1f}%"
            for kind in sorted(self.kind_seconds, key=self.kind_seconds.get, reverse=True)
        )
        return (
            f"[{self.start:8.1f}s – {self.end:8.1f}s] "
            f"traces={self.trace_count:<5d} "
            f"p{self.percentile:g}={self.percentile_latency * 1000:8.3f}ms "
            f"worst {self.worst_count}: {parts or 'n/a'}"
        )


def attribute_windows(
    traces: Iterable[TraceRecord],
    window: float = 60.0,
) -> List[WindowAttribution]:
    """Per-window p99 + worst-decile span-kind attribution.

    Windows are aligned at multiples of ``window`` seconds from t=0.
    Within each window the traces are ranked by latency and the top
    ``WORST_FRACTION`` (at least one) contribute their on-path span-kind
    durations to the breakdown.
    """
    if window <= 0.0:
        raise ValueError("window must be positive")
    buckets: Dict[int, List[TraceRecord]] = {}
    for trace in traces:
        buckets.setdefault(int(trace.start // window), []).append(trace)
    reports: List[WindowAttribution] = []
    for index in sorted(buckets):
        bucket = sorted(buckets[index], key=lambda t: t.latency)
        latencies = [t.latency for t in bucket]
        rank = (len(latencies) - 1) * (PERCENTILE / 100.0)
        lo = int(rank)
        hi = min(lo + 1, len(latencies) - 1)
        p_latency = latencies[lo] + (latencies[hi] - latencies[lo]) * (rank - lo)
        worst_count = max(1, ceil(len(bucket) * WORST_FRACTION))
        kind_seconds: Dict[str, float] = {}
        for trace in bucket[-worst_count:]:
            for kind, seconds in trace.kind_totals().items():
                kind_seconds[kind] = kind_seconds.get(kind, 0.0) + seconds
        reports.append(
            WindowAttribution(
                start=index * window,
                end=(index + 1) * window,
                trace_count=len(bucket),
                percentile=PERCENTILE,
                percentile_latency=p_latency,
                worst_count=worst_count,
                kind_seconds=kind_seconds,
            )
        )
    return reports


def format_attribution(reports: Iterable[WindowAttribution]) -> str:
    """One line per window, ready to print."""
    lines = [report.describe() for report in reports]
    return "\n".join(lines) if lines else "(no traces)"
