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
from typing import List, Optional, Union

from repro.experiments.harness import ClosedLoopSummary
from repro.metrics.cost import CostReport
from repro.metrics.percentiles import PercentileEstimator
from repro.metrics.sla import SLAReport


@dataclass(slots=True)
class RunSuccess:
    """One completed run: sweep bookkeeping plus the portable summary."""

    run_id: str
    cell: str
    seed: int
    summary: ClosedLoopSummary
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return True


@dataclass(slots=True)
class RunFailure:
    """One failed run, isolated into a structured error record."""

    run_id: str
    cell: str
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


@dataclass(slots=True)
class MergedCellReport:
    """One grid cell's replicates, aggregated."""

    cell: str
    runs: int
    read_report: SLAReport
    write_report: SLAReport
    cost: CostReport


def merge_cell(cell: str, successes: List[RunSuccess]) -> MergedCellReport:
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
        runs=len(successes),
        read_report=merge_sla_reports([s.read_report for s in summaries],
                                      read_latency),
        write_report=merge_sla_reports([s.write_report for s in summaries],
                                       write_latency),
        cost=cost,
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
            successes = [r for r in self.records if r.cell == cell and r.ok]
            if successes:
                reports.append(merge_cell(cell, successes))
        return reports
