"""Unit tests for the measurement substrate (repro.metrics)."""

from __future__ import annotations

import os
import pickle
import struct
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.cost import CostReport
from repro.core.consistency.spec import PerformanceSLA
from repro.metrics.percentiles import PercentileEstimator
from repro.metrics.sla import (
    OpRecorder,
    SLAReport,
    WindowedComplianceTracker,
    _linear_percentile,
)
from repro.metrics.timeseries import TimeSeries, TimeSeriesRecorder

pytestmark = pytest.mark.tier1


class TestPercentileEstimator:
    def test_percentile_of_known_values(self):
        estimator = PercentileEstimator()
        estimator.extend(range(1, 101))
        assert estimator.percentile(50) == pytest.approx(50.5)
        assert estimator.percentile(100) == 100

    def test_mean_and_max(self):
        estimator = PercentileEstimator()
        estimator.extend([1.0, 2.0, 3.0])
        assert estimator.mean() == pytest.approx(2.0)
        assert estimator.max() == 3.0

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError):
            PercentileEstimator().add(-1.0)

    def test_empty_estimator_raises(self):
        with pytest.raises(ValueError):
            PercentileEstimator().percentile(50)

    def test_invalid_percentile_rejected(self):
        estimator = PercentileEstimator()
        estimator.add(1.0)
        with pytest.raises(ValueError):
            estimator.percentile(0)
        with pytest.raises(ValueError):
            estimator.percentile(101)

    def test_reset_clears_samples(self):
        estimator = PercentileEstimator()
        estimator.add(1.0)
        estimator.reset()
        assert len(estimator) == 0

    def test_snapshot_contains_standard_keys(self):
        estimator = PercentileEstimator()
        estimator.extend([0.01] * 10)
        snapshot = estimator.snapshot()
        for key in ("count", "mean", "p50", "p95", "p99", "p999", "max"):
            assert key in snapshot

    def test_snapshot_empty(self):
        assert PercentileEstimator().snapshot() == {"count": 0}

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_percentiles_are_monotone_in_p(self, samples):
        estimator = PercentileEstimator()
        estimator.extend(samples)
        p50 = estimator.percentile(50)
        p90 = estimator.percentile(90)
        p99 = estimator.percentile(99)
        assert p50 <= p90 <= p99

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_percentile_bounded_by_min_and_max(self, samples):
        estimator = PercentileEstimator()
        estimator.extend(samples)
        assert min(samples) <= estimator.percentile(50) <= max(samples)


class TestEstimatorStorage:
    """Pending samples are packed doubles, and every answer equals one
    computed from the same samples held as a Python list (the window
    reports are held to one by ``TestOpRecorderViews``)."""

    SAMPLES = [((index * 7919) % 10007) / 1000.0 for index in range(10_000)]

    def test_a_pending_sample_costs_at_most_16_bytes(self):
        # A list held an 8-byte pointer plus a 24-byte float per sample.
        samples = 10_000
        estimator = PercentileEstimator()
        estimator.add(0.5)  # the buffer exists before the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(samples):
                estimator.add(index * 0.001)  # a fresh float object each time
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(estimator) == samples + 1
        assert allocated <= 16 * samples

    def _fed(self, samples, flush_at=None):
        estimator = PercentileEstimator()
        for index, value in enumerate(samples):
            if index == flush_at:
                estimator.percentile(50)  # part sorted, the rest pending
            estimator.add(value)
        return estimator

    def _reference_snapshot(self, samples):
        running_sum = 0.0  # in arrival order, one add per sample (not sum())
        for value in samples:
            running_sum += value
        return {
            "count": float(len(samples)),
            "mean": running_sum / len(samples),
            "p50": _lerp_percentile(samples, 50),
            "p95": _lerp_percentile(samples, 95),
            "p99": _lerp_percentile(samples, 99),
            "p999": _lerp_percentile(samples, 99.9),
            "max": max(samples),
        }

    @pytest.mark.parametrize("flush_at", [None, 1, 3_333])
    def test_queries_equal_a_reference_over_a_list(self, flush_at):
        samples = self.SAMPLES
        estimator = self._fed(samples, flush_at)
        assert estimator.snapshot() == self._reference_snapshot(samples)
        for p in (0.1, 25.0, 50.0, 99.9, 100.0):
            assert estimator.percentile(p) == _lerp_percentile(samples, p)
        for threshold in (0.0, 1.234, 5.0, 10.006, 11.0):
            assert estimator.fraction_at_or_below(threshold) == (
                sum(value <= threshold for value in samples) / len(samples))

    def test_merge_reset_and_pickle_equal_a_reference_over_a_list(self):
        left, right = self.SAMPLES[:4_000], self.SAMPLES[4_000:]
        merged = self._fed(left, flush_at=1_000).merge(self._fed(right))
        assert list(merged.sorted_samples()) == sorted(left + right)
        assert merged.snapshot()["count"] == float(len(self.SAMPLES))
        assert merged.snapshot()["p99"] == _lerp_percentile(self.SAMPLES, 99)

        pending = self._fed(left, flush_at=2_000)
        restored = pickle.loads(pickle.dumps(pending))
        assert restored.snapshot() == pending.snapshot() == self._reference_snapshot(left)

        pending.reset()
        assert len(pending) == 0 and pending.snapshot() == {"count": 0}
        for value in right:
            pending.add(value)
        assert pending.snapshot() == self._reference_snapshot(right)


def make_recorder(percentile=99.0, latency=0.1):
    sla = PerformanceSLA(percentile=percentile, latency=latency)
    return OpRecorder({"read": sla, "write": sla})


class TestLatencyRecorder:
    """The recorder's per-operation-type latency views."""

    def test_records_per_op_type(self):
        recorder = make_recorder()
        recorder.record("read", 0.0, 0.01)
        recorder.record("write", 0.0, 0.02)
        assert recorder.op_types() == ["read", "write"]
        assert recorder.all_time("read").mean() == pytest.approx(0.01)

    def test_close_window_resets_window_but_not_all_time(self):
        recorder = make_recorder()
        recorder.record("read", 0.0, 0.01)
        reports, _ = recorder.close_window()
        assert reports["read"].request_count == 1
        recorder.record("read", 1.0, 0.03)
        reports, _ = recorder.close_window()
        assert reports["read"].request_count == 1
        assert len(recorder.all_time("read")) == 2

    def test_unknown_op_type_raises(self):
        with pytest.raises(KeyError):
            make_recorder().all_time("nope")
        with pytest.raises(KeyError):
            make_recorder().all_time("read")  # declared, but nothing recorded


class TestSLATracker:
    """The recorder's SLA attainment views, overall and per window."""

    def test_satisfied_when_all_requests_fast(self):
        recorder = make_recorder()
        for _ in range(100):
            recorder.record("read", 0.0, 0.01)
        report = recorder.report("read")
        assert report.satisfied
        assert report.observed_fraction_within == pytest.approx(1.0)

    def test_violated_when_tail_is_slow(self):
        recorder = make_recorder()
        for _ in range(90):
            recorder.record("read", 0.0, 0.01)
        for _ in range(10):
            recorder.record("read", 0.0, 0.5)
        report = recorder.report("read")
        assert not report.satisfied
        assert report.observed_percentile_latency > report.target_latency

    def test_failures_count_against_attainment(self):
        recorder = make_recorder()
        for _ in range(50):
            recorder.record("read", 0.0, 0.01)
        for _ in range(50):
            recorder.record("read", 0.0, None, success=False)
        report = recorder.report("read")
        assert report.observed_fraction_within == pytest.approx(0.5)
        assert recorder.counts() == {"read": 100, "write": 0}
        assert len(recorder.all_time("read")) == 50

    def test_empty_window_is_trivially_satisfied(self):
        reports, miss_path_percentile = make_recorder().close_window()
        assert reports["read"].satisfied
        assert reports["read"].request_count == 0
        assert miss_path_percentile is None

    def test_successful_observation_requires_latency(self):
        with pytest.raises(ValueError):
            make_recorder().record("read", 0.0, None, success=True)

    def test_invalid_targets_rejected(self):
        # A recorder is built from validated targets: none of these exists.
        with pytest.raises(ValueError):
            make_recorder(percentile=0.0)
        with pytest.raises(ValueError):
            make_recorder(latency=-0.1)
        with pytest.raises(ValueError):
            PerformanceSLA(percentile=99.0, latency=0.1, availability=0.0)

    def test_negative_latency_is_rejected_before_it_counts(self):
        recorder = make_recorder()
        with pytest.raises(ValueError):
            recorder.record("read", 0.0, -0.01)
        assert recorder.counts()["read"] == 0
        assert recorder.compliance_windows("read") == []


def _lerp_percentile(samples, p):
    """PercentileEstimator's percentile, recomputed from raw samples."""
    arr = np.sort(np.asarray(samples, dtype=float))
    rank = (arr.shape[0] - 1) * (p / 100.0)
    lo = int(rank)
    hi = min(lo + 1, arr.shape[0] - 1)
    return float(arr[lo]) + (float(arr[hi]) - float(arr[lo])) * (rank - lo)


def _reference_report(op_type, sla, latencies, failures):
    """An SLAReport straight from numpy over arrival-order samples."""
    total = len(latencies) + failures
    if not latencies:
        return SLAReport(op_type, sla.percentile, sla.latency,
                         0.0 if total else 1.0, float("inf") if total else 0.0,
                         total, total == 0)
    arr = np.asarray(latencies)
    within = float(np.sum(arr <= sla.latency)) / total
    return SLAReport(op_type, sla.percentile, sla.latency, within,
                     float(np.percentile(arr, sla.percentile)), total,
                     within >= sla.percentile / 100.0)


_LATENCY = st.one_of(st.just(0.1),  # exactly on target: "within" is inclusive
                     st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
_STEP = st.one_of(
    st.just("close"),
    st.tuples(st.sampled_from(["read", "write"]),
              st.floats(min_value=0.0, max_value=45.0, allow_nan=False),  # clock advance
              _LATENCY, st.booleans(), st.booleans()),
)


class TestOpRecorderViews:
    """Every view of the op log equals a recomputation from the raw stream."""

    @pytest.mark.property
    @given(steps=st.lists(_STEP, max_size=120),
           percentile=st.sampled_from([50.0, 90.0, 99.0, 99.9]))
    def test_views_match_the_raw_stream(self, steps, percentile):
        sla = PerformanceSLA(percentile=percentile, latency=0.1)
        recorder = OpRecorder({"read": sla, "write": sla})
        now = 0.0
        # Raw stream per op type: (now, latency, success, miss_path).
        stream = {"read": [], "write": []}
        window_start = {"read": 0, "write": 0}
        for step in steps:
            if step == "close":
                reports, miss_path_percentile = recorder.close_window()
                flagged = [lat for _, lat, ok, miss in
                           stream["read"][window_start["read"]:] if ok and miss]
                assert miss_path_percentile == (
                    _lerp_percentile(flagged, percentile) if flagged else None)
                for op_type, ops in stream.items():
                    window = ops[window_start[op_type]:]
                    assert reports[op_type] == _reference_report(
                        op_type, sla, [lat for _, lat, ok, _ in window if ok],
                        sum(not ok for _, _, ok, _ in window))
                    window_start[op_type] = len(ops)
                continue
            op_type, advance, latency, success, miss_path = step
            now += advance
            recorder.record(op_type, now, latency, success, miss_path)
            stream[op_type].append((now, latency, success, miss_path))

        assert recorder.counts() == {op: len(ops) for op, ops in stream.items()}
        successes = {op: [lat for _, lat, ok, _ in ops if ok]
                     for op, ops in stream.items()}
        assert recorder.op_types() == sorted(op for op in successes if successes[op])
        for op_type, ops in stream.items():
            latencies = successes[op_type]
            assert recorder.report(op_type) == _reference_report(
                op_type, sla, latencies, len(ops) - len(latencies))
            buckets = {}
            for at, latency, success, _ in ops:
                bucket = buckets.setdefault(int(at // 60.0), [0, 0])
                bucket[0] += 1
                bucket[1] += success and latency <= sla.latency
            assert [(w.start, w.total, w.within)
                    for w in recorder.compliance_windows(op_type)] == [
                (index * 60.0, total, within)
                for index, (total, within) in sorted(buckets.items())]
            if not latencies:
                with pytest.raises(KeyError):
                    recorder.all_time(op_type)
                continue
            running_sum = 0.0  # in arrival order, one add per sample
            for latency in latencies:
                running_sum += latency
            assert recorder.all_time(op_type).snapshot() == {
                "count": float(len(latencies)),
                "mean": running_sum / len(latencies),
                "p50": _lerp_percentile(latencies, 50),
                "p95": _lerp_percentile(latencies, 95),
                "p99": _lerp_percentile(latencies, 99),
                "p999": _lerp_percentile(latencies, 99.9),
                "max": max(latencies),
            }


class TestTimeSeries:
    def test_append_and_last(self):
        series = TimeSeries(name="x")
        series.append(0.0, 1.0)
        series.append(1.0, 2.0)
        assert (series.times[-1], series.values[-1]) == (1.0, 2.0)
        assert len(series) == 2

    def test_rejects_decreasing_timestamps(self):
        series = TimeSeries(name="x")
        series.append(1.0, 1.0)
        with pytest.raises(ValueError):
            series.append(0.5, 2.0)

    def test_value_at_is_step_function(self):
        series = TimeSeries(name="x")
        series.append(0.0, 1.0)
        series.append(10.0, 5.0)
        assert series.value_at(5.0) == 1.0
        assert series.value_at(10.0) == 5.0
        assert series.value_at(20.0) == 5.0

    def test_value_before_first_observation_raises(self):
        series = TimeSeries(name="x")
        series.append(5.0, 1.0)
        with pytest.raises(ValueError):
            series.value_at(1.0)

    def test_integrate_step_function(self):
        series = TimeSeries(name="servers")
        series.append(0.0, 2.0)
        series.append(10.0, 4.0)
        series.append(20.0, 0.0)
        # 2 servers for 10 s + 4 servers for 10 s = 60 server-seconds.
        assert series.integrate() == pytest.approx(60.0)

    def test_min_max_mean(self):
        series = TimeSeries(name="x")
        for t, v in [(0, 1), (1, 3), (2, 2)]:
            series.append(float(t), float(v))
        assert series.min() == 1
        assert series.max() == 3
        assert series.mean() == pytest.approx(2.0)

    def test_empty_series_raises(self):
        with pytest.raises(ValueError):
            TimeSeries(name="x").max()


class TestTimeSeriesRecorder:
    def test_record_and_get(self):
        recorder = TimeSeriesRecorder()
        recorder.record("nodes", 0.0, 5.0)
        recorder.record("nodes", 1.0, 6.0)
        assert recorder.get("nodes").values == [5.0, 6.0]
        assert "nodes" in recorder and "groups" not in recorder

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            TimeSeriesRecorder().get("missing")


class TestCostReport:
    def _report(self, dollars=10.0, requests=1_000_000):
        return CostReport(
            machine_hours=100.0,
            dollars=dollars,
            requests_served=requests,
            peak_instances=10,
            mean_instances=5.0,
        )

    def test_cost_per_million_requests(self):
        report = self._report()
        assert report.cost_per_million_requests() == pytest.approx(10.0)

    def test_zero_requests(self):
        report = self._report(requests=0)
        assert report.cost_per_request() == 0.0


class TestMergeableMetrics:
    """The sweep fabric's aggregation contract: merging estimators and report
    summaries must match computing over the concatenated raw samples."""

    @given(
        left=st.lists(st.floats(min_value=0.0, max_value=10.0,
                                allow_nan=False), max_size=40),
        right=st.lists(st.floats(min_value=0.0, max_value=10.0,
                                 allow_nan=False), max_size=40),
    )
    def test_merge_matches_concatenated_samples(self, left, right):
        a = PercentileEstimator()
        a.extend(left)
        b = PercentileEstimator()
        b.extend(right)
        merged = a.merge(b)
        reference = PercentileEstimator()
        reference.extend(left + right)
        assert len(merged) == len(reference)
        if len(reference):
            assert merged.snapshot() == pytest.approx(reference.snapshot())
            assert merged.fraction_at_or_below(5.0) == reference.fraction_at_or_below(5.0)

    def test_merge_returns_self_and_leaves_other_usable(self):
        a = PercentileEstimator()
        a.extend([1.0, 3.0])
        b = PercentileEstimator()
        b.extend([2.0, 4.0])
        assert a.merge(b) is a
        assert a.percentile(100) == 4.0
        assert b.percentile(100) == 4.0  # other unchanged
        assert a.mean() == pytest.approx(2.5)
        assert a.max() == 4.0

    def test_merged_classmethod_unions_many(self):
        parts = []
        for chunk in ([1.0], [2.0, 5.0], [], [0.5]):
            est = PercentileEstimator()
            est.extend(chunk)
            parts.append(est)
        union = PercentileEstimator.merged(parts)
        assert len(union) == 4
        assert union.max() == 5.0

    def test_merge_with_pending_unsorted_appends_on_both_sides(self):
        a = PercentileEstimator()
        b = PercentileEstimator()
        for value in (5.0, 1.0, 3.0):
            a.add(value)
        a.percentile(50)  # flush a's sorted cache
        a.add(0.5)        # ...then leave a pending sample
        for value in (4.0, 2.0):
            b.add(value)
        a.merge(b)
        assert a.percentile(50) == pytest.approx(2.5)
        assert len(a) == 6

    def test_fraction_at_or_below_is_inclusive(self):
        est = PercentileEstimator()
        est.extend([0.1, 0.2, 0.3])
        assert est.fraction_at_or_below(0.2) == pytest.approx(2 / 3)

    def test_sla_report_merge_weights_fractions_by_count(self):
        from repro.metrics.sla import SLAReport

        good = SLAReport("read", 99.0, 0.1, observed_fraction_within=1.0,
                         observed_percentile_latency=0.05, request_count=300,
                         satisfied=True)
        bad = SLAReport("read", 99.0, 0.1, observed_fraction_within=0.9,
                        observed_percentile_latency=0.4, request_count=100,
                        satisfied=False)
        merged = good.merge(bad)
        assert merged.request_count == 400
        assert merged.observed_fraction_within == pytest.approx(0.975)
        assert not merged.satisfied  # 97.5% < the 99% target
        # Without estimators the percentile is the pessimistic max...
        assert merged.observed_percentile_latency == 0.4
        # ...and an exact merged percentile can be injected.
        exact = good.merge(bad, merged_percentile_latency=0.2)
        assert exact.observed_percentile_latency == 0.2

    def test_sla_report_merge_rejects_mismatched_targets(self):
        from repro.metrics.sla import SLAReport

        read = SLAReport("read", 99.0, 0.1, 1.0, 0.05, 10, True)
        write = SLAReport("write", 99.0, 0.1, 1.0, 0.05, 10, True)
        with pytest.raises(ValueError):
            read.merge(write)

    def test_cost_report_merge_sums_bills_and_weights_means(self):
        a = CostReport(machine_hours=10.0, dollars=1.0, requests_served=100,
                       peak_instances=4, mean_instances=2.0)
        b = CostReport(machine_hours=30.0, dollars=3.0, requests_served=300,
                       peak_instances=3, mean_instances=6.0)
        merged = a.merge(b)
        assert merged.machine_hours == pytest.approx(40.0)
        assert merged.dollars == pytest.approx(4.0)
        assert merged.requests_served == 400
        assert merged.peak_instances == 4
        # (2*10 + 6*30) / 40 = 5.0 — machine-hour-weighted.
        assert merged.mean_instances == pytest.approx(5.0)
        assert merged.cost_per_request() == pytest.approx(0.01)


class TestWindowedComplianceTracker:
    """The always-on per-window counters the grid's SLA policy gates on."""

    def test_buckets_by_fixed_clock_windows(self):
        tracker = WindowedComplianceTracker(60.0, target_latency=0.1)
        tracker.observe(10.0, 0.05)
        tracker.observe(59.9, 0.05)
        tracker.observe(70.0, 0.05)
        windows = tracker.windows()
        assert [w.start for w in windows] == [0.0, 60.0]
        assert [w.total for w in windows] == [2, 1]

    def test_empty_windows_are_absent(self):
        tracker = WindowedComplianceTracker(60.0, target_latency=0.1)
        tracker.observe(5.0, 0.05)
        tracker.observe(605.0, 0.05)
        assert [w.start for w in tracker.windows()] == [0.0, 600.0]

    def test_failed_request_counts_total_but_not_within(self):
        tracker = WindowedComplianceTracker(60.0, target_latency=0.1)
        tracker.observe(1.0, 0.05)
        tracker.observe(2.0, None)
        tracker.observe(3.0, 0.5)
        (window,) = tracker.windows()
        assert window.total == 3
        assert window.within == 1
        assert window.fraction_within == pytest.approx(1 / 3)

    def test_compliant_matches_declared_percentile(self):
        tracker = WindowedComplianceTracker(60.0, target_latency=0.1)
        for i in range(100):
            tracker.observe(1.0, 0.05 if i < 99 else 0.5)
        (window,) = tracker.windows()
        assert window.compliant(99.0)
        assert not window.compliant(99.5)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            WindowedComplianceTracker(0.0, target_latency=0.1)


class TestWindowPercentile:
    """A window's percentile is numpy's 'linear' formula, computed without
    ``np.percentile`` (whose first call imports ``numpy.ma``)."""

    @staticmethod
    def _bits(value: float) -> bytes:
        return struct.pack("<d", value)

    @given(
        samples=st.one_of(
            st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                     min_size=1, max_size=80),
            # few distinct values: duplicates and ties around every index
            st.lists(st.sampled_from([0.0, 0.001, 0.002, 0.05, 1.0]),
                     min_size=1, max_size=80),
        ),
        p=st.one_of(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.sampled_from([0.0, 1e-12, 5e-324, 0.1, 50.0, 99.0, 99.9, 99.99,
                             100.0 - 1e-12, 100.0]),
        ),
    )
    def test_equals_np_percentile_bit_for_bit(self, samples, p):
        array = np.asarray(samples, dtype=float)
        before = array.copy()
        got = _linear_percentile(array, p)
        assert type(got) is float
        assert self._bits(got) == self._bits(float(np.percentile(array, p)))
        assert np.array_equal(array, before)  # the caller's array is left as it is

    @pytest.mark.parametrize("samples, p", [
        ([0.25], 99.9),                     # n = 1
        ([0.25], 0.0),
        ([0.1, 0.3], 100.0),
        ([0.3, 0.1, 0.2], 50.0),           # an integral index
        ([0.1, 0.2], 75.0),                 # weight exactly one half or above
        ([0.1, 0.2], 25.0),
        ([0.2, 0.2, 0.2, 0.1], 99.9),       # ties at the top
    ])
    def test_the_edges_equal_np_percentile(self, samples, p):
        array = np.asarray(samples, dtype=float)
        assert self._bits(_linear_percentile(array, p)) == \
            self._bits(float(np.percentile(array, p)))

    def test_a_closed_loop_run_never_imports_numpy_ma(self):
        """An engine built by the harness, driven by the CloudStone mix across
        two control windows, leaves ``numpy.ma`` unimported: its 1.2 MB of
        RSS is paid by nothing in the window percentile."""
        script = textwrap.dedent("""
            import sys
            from repro.experiments.harness import build_engine_and_app
            from repro.metrics.sla import OpRecorder
            from repro.workloads.generator import LoadGenerator
            from repro.workloads.opmix import CloudStoneMix
            from repro.workloads.traces import ConstantTrace

            closed = []
            close_window = OpRecorder.close_window

            def counted(self):
                closed.append(self)
                return close_window(self)

            OpRecorder.close_window = counted
            engine, app, graph = build_engine_and_app(seed=11, n_users=60,
                                                      control_interval=5.0)
            engine.start()
            generator = LoadGenerator(
                engine.sim, ConstantTrace(100.0),
                CloudStoneMix(graph, engine.sim.random.get("mix")), app.execute)
            generator.start()
            engine.run_for(12.0)
            generator.stop()
            print(len(closed), "numpy.ma" in sys.modules)
        """)
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.split() == ["2", "False"]
