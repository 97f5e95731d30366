"""Mergeable sweep results.

Workers ship back one :class:`RunSuccess` (a picklable
:class:`~repro.experiments.harness.ClosedLoopSummary` plus sweep bookkeeping)
or one :class:`RunFailure` (a structured error record — the run's exception
never takes down its siblings).  :class:`SweepResult` holds them in run-index
order, so the collection is identical no matter how pool scheduling
interleaved the executions, and aggregates replicates into per-cell
:class:`MergedCellReport` summaries via the mergeable metrics layer:
:meth:`~repro.metrics.percentiles.PercentileEstimator.merge` combines the
runs' latency distributions without re-sorting raw samples, which makes the
merged SLA percentile *exact* (equal to a single estimator fed every run's
samples), and :meth:`~repro.metrics.cost.CostReport.merge` /
:meth:`~repro.metrics.sla.SLAReport.merge` combine the economics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Union

from repro.experiments.harness import ClosedLoopSummary
from repro.metrics.cost import CostReport
from repro.metrics.percentiles import PercentileEstimator
from repro.metrics.sla import SLAReport
from repro.obs.telemetry import Telemetry
from repro.obs.timeline import DecisionTimeline


@dataclass(slots=True)
class RunSuccess:
    """One completed run: sweep bookkeeping plus the portable summary."""

    index: int
    run_id: str
    cell: str
    params: Dict[str, Any]
    seed: int
    summary: ClosedLoopSummary
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return True


@dataclass(slots=True)
class RunFailure:
    """One failed run, isolated into a structured error record."""

    index: int
    run_id: str
    cell: str
    params: Dict[str, Any]
    seed: int
    error_type: str
    message: str
    traceback: str
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return False


RunRecord = Union[RunSuccess, RunFailure]


def merge_sla_reports(reports: List[SLAReport],
                      estimator: Optional[PercentileEstimator]) -> SLAReport:
    """Combine per-run SLA reports into one exact multi-run report.

    Fractions-within combine exactly by request-count weighting; the
    percentile latency is recomputed from the merged estimator (the union of
    every run's successful-request latencies) when one is available, because
    a percentile of a union is not derivable from per-run percentiles.
    """
    if not reports:
        raise ValueError("no reports to merge")
    merged = reports[0]
    for report in reports[1:]:
        merged = merged.merge(report)
    if estimator is not None and len(estimator) > 0:
        merged = replace(
            merged,
            observed_percentile_latency=estimator.percentile(merged.target_percentile),
        )
    return merged


def merge_estimators(
    estimators: List[Optional[PercentileEstimator]],
) -> Optional[PercentileEstimator]:
    """Union of the given estimators' samples (None when none carry samples)."""
    present = [e for e in estimators if e is not None and len(e) > 0]
    if not present:
        return None
    return PercentileEstimator.merged(present)


def merge_telemetry(registries: List[Optional[Telemetry]]) -> Optional[Telemetry]:
    """Fold per-run telemetry registries into one (None when none present).

    Counters sum, gauges take the max, histograms merge exactly — and the
    fold runs in run-index order, so the result is identical at any worker
    count (asserted by the trace-sweep determinism tests).
    """
    present = [t for t in registries if t is not None]
    if not present:
        return None
    merged = Telemetry()
    for registry in present:
        merged.merge(registry)
    return merged


def merge_traces(trace_lists: List[Optional[list]]) -> Optional[list]:
    """Concatenate per-run trace lists in run-index order (None when absent)."""
    present = [traces for traces in trace_lists if traces is not None]
    if not present:
        return None
    merged: list = []
    for traces in present:
        merged.extend(traces)
    return merged


def merge_timelines(timelines: List[DecisionTimeline]) -> DecisionTimeline:
    """Concatenate per-run decision timelines in run-index order."""
    merged = DecisionTimeline()
    for timeline in timelines:
        merged.merge(timeline)
    return merged


@dataclass(slots=True)
class MergedCellReport:
    """One grid cell's replicates, aggregated."""

    cell: str
    params: Dict[str, Any]
    runs: int
    failures: int
    operations: int
    duration: float
    read_report: SLAReport
    write_report: SLAReport
    cost: CostReport
    read_latency: Optional[PercentileEstimator]
    write_latency: Optional[PercentileEstimator]
    # Every replicate's decision log, concatenated in run order.
    decision_timeline: DecisionTimeline
    # Observability aggregates (None unless the cell's runs carried them).
    telemetry: Optional[Telemetry] = None
    traces: Optional[list] = None

    def summary(self) -> Dict[str, object]:
        """Flat dictionary for the sweep runner's printed table."""
        return {
            "cell": self.cell,
            "runs": self.runs,
            "failures": self.failures,
            "operations": self.operations,
            "read_p_latency_ms": round(
                self.read_report.observed_percentile_latency * 1000, 2),
            "read_sla_met": self.read_report.satisfied,
            "dollars": round(self.cost.dollars, 3),
            "machine_hours": round(self.cost.machine_hours, 2),
            "cost_per_million": round(self.cost.cost_per_million_requests(), 3),
        }


def merge_cell(cell: str, params: Dict[str, Any],
               successes: List[RunSuccess], failures: int) -> MergedCellReport:
    """Aggregate one cell's successful replicates into a merged report."""
    if not successes:
        raise ValueError(f"cell {cell!r} has no successful runs to merge")
    summaries = [record.summary for record in successes]
    read_latency = merge_estimators([s.read_latency for s in summaries])
    write_latency = merge_estimators([s.write_latency for s in summaries])
    cost = summaries[0].cost
    for summary in summaries[1:]:
        cost = cost.merge(summary.cost)
    return MergedCellReport(
        cell=cell,
        params=dict(params),
        runs=len(successes),
        failures=failures,
        operations=sum(s.operations for s in summaries),
        duration=sum(s.duration for s in summaries),
        read_report=merge_sla_reports([s.read_report for s in summaries],
                                      read_latency),
        write_report=merge_sla_reports([s.write_report for s in summaries],
                                       write_latency),
        cost=cost,
        read_latency=read_latency,
        write_latency=write_latency,
        telemetry=merge_telemetry([s.telemetry for s in summaries]),
        traces=merge_traces([s.traces for s in summaries]),
        decision_timeline=merge_timelines(
            [s.decision_timeline for s in summaries]),
    )


@dataclass(slots=True)
class SweepResult:
    """Every run record of one sweep, in run-index order."""

    records: List[RunRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1

    @property
    def failures(self) -> List[RunFailure]:
        return [r for r in self.records if not r.ok]

    def cells(self) -> List[str]:
        """Cell labels in first-appearance (grid) order."""
        seen: List[str] = []
        for record in self.records:
            if record.cell not in seen:
                seen.append(record.cell)
        return seen

    def cell_reports(self) -> List[MergedCellReport]:
        """Per-cell merged reports (cells whose every run failed are skipped)."""
        reports: List[MergedCellReport] = []
        for cell in self.cells():
            members = [r for r in self.records if r.cell == cell]
            successes = [r for r in members if r.ok]
            if not successes:
                continue
            reports.append(merge_cell(cell, members[0].params, successes,
                                      failures=len(members) - len(successes)))
        return reports
