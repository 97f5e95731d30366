"""Measurement substrate: latency percentiles, SLA attainment, time series.

Every experiment in ``benchmarks/`` reports through these classes so the
numbers in ``EXPERIMENTS.md`` are computed the same way everywhere.
"""

from repro.metrics.percentiles import PercentileEstimator
from repro.metrics.sla import OpRecorder, SLAReport
from repro.metrics.timeseries import TimeSeries, TimeSeriesRecorder
from repro.metrics.cost import CostReport

__all__ = [
    "PercentileEstimator",
    "OpRecorder",
    "SLAReport",
    "TimeSeries",
    "TimeSeriesRecorder",
    "CostReport",
]
